"""The traced run: per-layer counts and self time from outside the program.

:class:`Tracer` wraps public functions of each layer's module for the
duration of one repetition and restores them afterwards.  Every wrapper
times its call and subtracts the time of wrapped calls nested inside
it, so each layer's ``self_ms`` counts only its own work.  Whatever no
wrapper covers -- the event loop, vehicle and RSU glue -- is
``simkernel.residual_ms``, so the rows add up to the traced total.

Shard workers are forked after the wrappers are installed, so they
inherit them.  The worker entry points are wrapped too: each worker
resets its totals when it starts and writes them to a file when it
returns, and the parent adds them in.  The traced total is the sum of
every process's traced wall time; a worker's time spent waiting for a
barrier is ``parallel.barrier_wait_ms``.

City phases come from the program's own profile spans
(``CitySpec(profile=True, observability=True)``); they nest in no
wrapper here.
"""

from __future__ import annotations

import importlib
import json
import os
import statistics
import time
import uuid
from collections import defaultdict
from pathlib import Path

#: Rows of the per-layer table, in report order.  Each contributes
#: ``<layer>.self_ms``; ``simkernel.residual_ms`` closes the sum.
LAYERS = (
    "net",
    "streaming",
    "dissemination",
    "microbatch",
    "detect",
    "wire",
    "collab",
    "parallel",
    "city",
    "faults",
    "dataset",
)

CITY_PHASES = ("arrivals", "churn", "moves", "detect", "digest")

#: Every per-layer metric with its unit, in report order.
METRICS = {
    "trace.total_ms": "ms",
    "trace.overhead": "x",
    "simkernel.events_fired": "count",
    "simkernel.residual_ms": "ms",
    "net.transmit_calls": "count",
    "net.enqueue_calls": "count",
    "net.flush_calls": "count",
    "net.htb_calls": "count",
    "net.self_ms": "ms",
    "streaming.produce_calls": "count",
    "streaming.fetch_calls": "count",
    "streaming.fetch_empty_ratio": "ratio",
    "streaming.self_ms": "ms",
    "dissemination.poll_calls": "count",
    "dissemination.useful_ratio": "ratio",
    "dissemination.notify_calls": "count",
    "dissemination.self_ms": "ms",
    "microbatch.batches": "count",
    "microbatch.records_per_batch": "count",
    "microbatch.self_ms": "ms",
    "detect.calls": "count",
    "detect.records": "count",
    "detect.self_ms": "ms",
    "wire.encode_calls": "count",
    "wire.decode_calls": "count",
    "wire.rows": "count",
    "wire.self_ms": "ms",
    "collab.prepare_calls": "count",
    "collab.frames_sent": "count",
    "collab.frames_gated": "count",
    "collab.bytes_sent": "bytes",
    "collab.bytes_suppressed": "bytes",
    "collab.self_ms": "ms",
    "parallel.barriers": "count",
    "parallel.worker_cpu_s": "s",
    "parallel.critical_path_cpu_s": "s",
    "parallel.engine_cpu_s": "s",
    "parallel.worker_skew": "x",
    "parallel.barrier_wait_ms": "ms",
    "parallel.self_ms": "ms",
    **{f"city.{phase}_ms": "ms" for phase in CITY_PHASES},
    "city.rebalance_events": "count",
    "city.migrations": "count",
    "city.self_ms": "ms",
    "faults.records_retried": "count",
    "faults.records_abandoned": "count",
    "faults.records_dropped": "count",
    "faults.duplicates_rejected": "count",
    "faults.degradation_transitions": "count",
    "faults.self_ms": "ms",
    "dataset.generate_ms": "ms",
    "dataset.fit_ms": "ms",
    "dataset.self_ms": "ms",
}


def _size(value, args) -> int:
    return 0 if value is None else len(value)


def _empty(value, args) -> int:
    return 1 if not value else 0


def _plan_sent(value, args) -> int:
    return 0 if value is None else 1


def _one(value, args) -> int:
    return 1


def _rows_in(value, args) -> int:
    return len(args[1])


# (layer, module, attribute path, counter, observe(result, args) -> int
# added to "<counter>.n" -- or None).  Functions imported by name are
# wrapped in the module that calls them.
TARGETS = (
    ("net", "repro.net.dsrc", "DsrcChannel.transmit", "transmit", None),
    ("net", "repro.net.dsrc", "DsrcChannel.enqueue", "enqueue", None),
    ("net", "repro.net.dsrc", "DsrcChannel.flush", "flush", None),
    ("net", "repro.net.htb", "HtbShaper.send", "htb", None),
    ("net", "repro.net.htb", "HtbShaper.send_deferred", "htb", None),
    ("net", "repro.net.htb", "HtbShaper.send_prioritized", "htb", None),
    ("streaming", "repro.streaming.broker", "Broker.produce", "produce", None),
    ("streaming", "repro.streaming.broker", "Broker.fetch", "fetch", _empty),
    ("streaming", "repro.streaming.broker", "Broker.fetch_block", "fetch", _empty),
    ("microbatch", "repro.microbatch.dstream", "DStream.process", "batches",
     _rows_in),
    # Every collaborative detection runs one road-only detection inside
    # it, so the road-only counter sees each block exactly once.
    ("detect", "repro.core.detector", "AD3Detector.detect_block", "blocks", _rows_in),
    ("detect", "repro.core.collaborative", "CollaborativeDetector.detect_block",
     "fused", None),
    ("wire", "repro.core.rsu", "decode_telemetry_block", "decode", _size),
    ("wire", "repro.core.rsu", "decode_telemetry_segments", "decode", _size),
    ("wire", "repro.core.wire", "TelemetryStructSerde.serialize", "encode", _one),
    ("wire", "repro.core.wire", "TelemetryStructSerde.deserialize", "decode", _one),
    ("wire", "repro.streaming.serde", "FlatStructSerde.serialize", "encode", _one),
    ("wire", "repro.streaming.serde", "FlatStructSerde.deserialize", "decode", _one),
    ("wire", "repro.streaming.serde", "FlatStructSerde.decode_batch", "decode",
     _size),
    ("wire", "repro.streaming.serde", "JsonSerde.serialize", "encode", _one),
    ("wire", "repro.streaming.serde", "JsonSerde.deserialize", "decode", _one),
    ("wire", "repro.core.collab", "encode_summary_full", "encode", _one),
    ("wire", "repro.core.collab", "encode_summary_delta", "encode", _one),
    ("collab", "repro.core.collab", "CollabPlane.prepare", "prepare", _plan_sent),
    ("faults", "repro.streaming.producer", "Producer.send", "send", None),
    ("dataset", "repro.dataset.generator", "DatasetGenerator.generate",
     "generate", None),
    ("dataset", "repro.dataset.preprocess", "Preprocessor.run", "generate", None),
    ("dataset", "repro.core.detector", "AD3Detector.fit", "fit", None),
    ("dataset", "repro.core.collaborative", "CollaborativeDetector.fit", "fit",
     None),
    ("dataset", "repro.core.system", "summaries_from_upstream", "fit", None),
    ("parallel", "multiprocessing.connection", "Connection.send", "ipc", None),
    ("parallel", "multiprocessing.connection", "Connection.recv", "wait", None),
    ("parallel", "repro.streaming.shm", "ShmRing.push", "ipc", None),
    ("parallel", "repro.streaming.shm", "ShmRing.drain", "ipc", None),
)

#: Consumer polls are dissemination on OUT-DATA (vehicles reading
#: warnings) and streaming everywhere else (RSUs reading IN-DATA and
#: CO-DATA).
CONSUMER_METHODS = ("poll", "poll_block")

_INHERITED = object()


class Accounts:
    """Per-process call counts and self time, keyed by counter name."""

    def __init__(self) -> None:
        self.calls = defaultdict(int)
        self.n = defaultdict(int)
        self.self_s = defaultdict(float)
        self.stack = []
        self.simulators = []

    def to_dict(self) -> dict:
        return {
            "calls": dict(self.calls),
            "n": dict(self.n),
            "self_s": dict(self.self_s),
            "events_fired": sum(sim.events_fired for sim in self.simulators),
        }


class Tracer:
    """Installs the wrappers for one repetition and reports its rows."""

    def __init__(self, out_dir: Path) -> None:
        self.out_dir = Path(out_dir)
        self.token = uuid.uuid4().hex
        self.accounts = Accounts()
        self.saved = []
        self.start = 0.0
        self.parent_wall_s = 0.0

    # ------------------------------------------------------------------
    def _timed(self, layer: str, counter: str, fn, observe=None):
        perf = time.perf_counter

        def wrapper(*args, **kwargs):
            accounts = self.accounts
            stack = accounts.stack
            stack.append(0.0)
            started = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf() - started
                nested = stack.pop()
                accounts.self_s[f"{layer}.{counter}"] += elapsed - nested
                if stack:
                    stack[-1] += elapsed
                accounts.calls[f"{layer}.{counter}"] += 1
            if observe is not None:
                accounts.n[f"{layer}.{counter}"] += observe(result, args)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _consumer_poll(self, fn):
        from repro.core.features import OUT_DATA

        dissemination = self._timed("dissemination", "poll", fn, _empty)
        streaming = self._timed("streaming", "poll", fn, _empty)

        def wrapper(consumer, *args, **kwargs):
            if OUT_DATA in consumer.subscriptions:
                return dissemination(consumer, *args, **kwargs)
            return streaming(consumer, *args, **kwargs)

        return wrapper

    def _subscribe_notify(self, fn):
        timed = self._timed

        def wrapper(broker, topic_name, callback):
            return fn(broker, topic_name, timed("dissemination", "notify", callback))

        return wrapper

    def _simulator_init(self, fn):
        tracer = self

        def wrapper(sim, *args, **kwargs):
            fn(sim, *args, **kwargs)
            tracer.accounts.simulators.append(sim)

        return wrapper

    def _worker_main(self, fn):
        tracer = self

        def wrapper(ctx):
            tracer.accounts = Accounts()
            started = time.perf_counter()
            try:
                fn(ctx)
            finally:
                wall = time.perf_counter() - started
                payload = tracer.accounts.to_dict()
                payload["wall_s"] = wall
                path = tracer.out_dir / f"trace-{tracer.token}-{os.getpid()}.json"
                path.write_text(json.dumps(payload))

        return wrapper

    def _patch(self, owner, attr: str, replacement) -> None:
        # An inherited attribute is shadowed, then deleted on restore.
        self.saved.append((owner, attr, vars(owner).get(attr, _INHERITED)))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        for layer, module_name, path, counter, observe in TARGETS:
            owner = importlib.import_module(module_name)
            *classes, attr = path.split(".")
            for name in classes:
                owner = getattr(owner, name)
            original = getattr(owner, attr)
            self._patch(owner, attr, self._timed(layer, counter, original, observe))
        from repro.city import worker as city_worker
        from repro.parallel import engine as shard_engine
        from repro.simkernel.simulator import Simulator
        from repro.streaming.broker import Broker
        from repro.streaming.consumer import Consumer

        for method in CONSUMER_METHODS:
            self._patch(Consumer, method, self._consumer_poll(getattr(Consumer, method)))
        self._patch(Broker, "subscribe_notify", self._subscribe_notify(Broker.subscribe_notify))
        self._patch(Simulator, "__init__", self._simulator_init(Simulator.__init__))
        self._patch(
            shard_engine, "shard_worker_main",
            self._worker_main(shard_engine.shard_worker_main),
        )
        self._patch(
            city_worker, "city_worker_main",
            self._worker_main(city_worker.city_worker_main),
        )
        self.start = time.perf_counter()

    def uninstall(self) -> None:
        self.parent_wall_s = time.perf_counter() - self.start
        for owner, attr, original in reversed(self.saved):
            if original is _INHERITED:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self.saved.clear()

    # ------------------------------------------------------------------
    def _worker_reports(self) -> list:
        reports = []
        for path in sorted(self.out_dir.glob(f"trace-{self.token}-*.json")):
            reports.append(json.loads(path.read_text()))
            path.unlink()
        return reports

    def report(self, workload, engine, result) -> dict:
        """Raw per-layer numbers of this repetition (times are not yet
        calibrated)."""
        processes = [dict(self.accounts.to_dict(), wall_s=self.parent_wall_s)]
        workers = self._worker_reports()
        processes.extend(workers)
        calls = defaultdict(int)
        n = defaultdict(int)
        self_s = defaultdict(float)
        events = 0
        for process in processes:
            for key, value in process["calls"].items():
                calls[key] += value
            for key, value in process["n"].items():
                n[key] += value
            for key, value in process["self_s"].items():
                self_s[key] += value
            events += process["events_fired"]
        total_ms = 1e3 * sum(process["wall_s"] for process in processes)
        rows = defaultdict(float)
        for key, value in self_s.items():
            rows[key.split(".")[0]] += 1e3 * value
        city_profile = getattr(result, "profile", None) or {}
        for phase in CITY_PHASES:
            rows["city"] += city_profile.get(f"city.{phase}", {}).get("total_ms", 0.0)

        def ratio(part, whole):
            return part / whole if whole else 0.0

        m = {
            "simkernel.events_fired": events,
            "net.transmit_calls": calls["net.transmit"],
            "net.enqueue_calls": calls["net.enqueue"],
            "net.flush_calls": calls["net.flush"],
            "net.htb_calls": calls["net.htb"],
            "streaming.produce_calls": calls["streaming.produce"],
            "streaming.fetch_calls": calls["streaming.fetch"],
            "streaming.fetch_empty_ratio": ratio(n["streaming.fetch"], calls["streaming.fetch"]),
            "dissemination.poll_calls": calls["dissemination.poll"],
            "dissemination.useful_ratio": ratio(
                calls["dissemination.poll"] - n["dissemination.poll"],
                calls["dissemination.poll"],
            ),
            "dissemination.notify_calls": calls["dissemination.notify"],
            "microbatch.batches": calls["microbatch.batches"],
            "microbatch.records_per_batch": ratio(
                n["microbatch.batches"], calls["microbatch.batches"]
            ),
            "detect.calls": calls["detect.blocks"],
            "detect.records": n["detect.blocks"],
            "wire.encode_calls": calls["wire.encode"],
            "wire.decode_calls": calls["wire.decode"],
            "wire.rows": n["wire.decode"] + n["wire.encode"],
            "collab.prepare_calls": calls["collab.prepare"],
            "collab.frames_sent": n["collab.prepare"],
            "parallel.barrier_wait_ms": 1e3 * self_s["parallel.wait"],
            "dataset.generate_ms": 1e3 * self_s["dataset.generate"],
            "dataset.fit_ms": 1e3 * self_s["dataset.fit"],
        }
        for phase in CITY_PHASES:
            m[f"city.{phase}_ms"] = city_profile.get(f"city.{phase}", {}).get("total_ms", 0.0)
        m.update(_result_counts(result))
        m.update(_parallel_counts(engine, result))
        for layer in LAYERS:
            m[f"{layer}.self_ms"] = rows[layer]
        residual = total_ms - sum(rows[layer] for layer in LAYERS)
        m["simkernel.residual_ms"] = residual
        m["trace.total_ms"] = total_ms
        problems = []
        if residual < 0:
            problems.append(f"layer rows exceed the traced total by {-residual:.3f} ms")
        expected = getattr(workload, "shards", 1)
        if expected > 1 and len(workers) != expected:
            problems.append(f"{len(workers)} of {expected} workers reported")
        return {"metrics": m, "problems": problems}


def _result_counts(result) -> dict:
    """Counts the program reports itself (collab bytes, faults, city)."""
    m = {}
    rsu_metrics = getattr(result, "rsu_metrics", None)
    if rsu_metrics is not None:
        m["collab.bytes_sent"] = sum(r.co_bytes_sent for r in rsu_metrics.values())
        m["collab.bytes_suppressed"] = sum(
            r.co_bytes_suppressed for r in rsu_metrics.values()
        )
        m["collab.frames_gated"] = sum(r.co_msgs_gated for r in rsu_metrics.values())
    resilience = getattr(result, "resilience", None)
    if resilience is not None:
        m["faults.records_retried"] = resilience.records_retried
        m["faults.records_abandoned"] = resilience.records_abandoned
        m["faults.records_dropped"] = resilience.records_dropped
        m["faults.duplicates_rejected"] = resilience.duplicates_rejected
        m["faults.degradation_transitions"] = sum(
            len(events) for events in resilience.degradation_events.values()
        )
    if hasattr(result, "rebalance_events"):
        m["city.rebalance_events"] = len(result.rebalance_events)
        m["city.migrations"] = result.migrations_produced
    return m


def _parallel_counts(engine, result) -> dict:
    """Shard-runtime accounting the engines record on every run."""
    timings = getattr(engine, "window_timings", None) or getattr(
        result, "window_timings", None
    )
    if not timings:
        return {}
    build = list(getattr(engine, "build_cpu_s", None) or result.build_cpu_s)
    per_worker = [
        build[i] + sum(t.worker_cpu_s[i] for t in timings) for i in range(len(build))
    ]
    mean = sum(per_worker) / len(per_worker)
    source = engine if hasattr(engine, "critical_path_cpu_s") else result
    return {
        "parallel.barriers": len(timings),
        "parallel.worker_cpu_s": sum(per_worker),
        "parallel.critical_path_cpu_s": source.critical_path_cpu_s(),
        "parallel.engine_cpu_s": sum(t.engine_cpu_s for t in timings),
        "parallel.worker_skew": max(per_worker) / mean if mean else 0.0,
    }


def per_layer(traced: list, untraced: list):
    """Per-layer metrics of the traced repetition with the median
    total, calibrated with that repetition's host factor, plus the
    tracing overhead: median traced over median untraced calibrated
    set-up plus run time of the parent process."""
    ordered = sorted(traced, key=lambda rep: rep.layers["metrics"]["trace.total_ms"])
    chosen = ordered[(len(ordered) - 1) // 2]
    raw = chosen.layers["metrics"]
    factor = chosen.run.factor
    metrics = {}
    for name, unit in METRICS.items():
        value = raw.get(name, 0)
        if unit == "ms" or name.endswith("cpu_s"):
            value = value / factor
        metrics[name] = (value, unit)

    def parent_s(rep):
        return rep.setup.seconds + rep.run.seconds

    overhead = statistics.median(parent_s(r) for r in traced) / statistics.median(
        parent_s(r) for r in untraced
    )
    metrics["trace.overhead"] = (overhead, "x")
    problems = [p for rep in traced for p in rep.layers["problems"]]
    return metrics, problems
