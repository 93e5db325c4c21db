"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload corridor-paper --seed 7 \\
        --seconds 20 --trace 0

The program under test is imported from ``src/`` of the same checkout.
Without it the benchmark prints no result and exits with code 2.

``--trace 0`` measures the end-to-end metrics with tracing off.  It
repeats set-up plus run until ``--seconds`` are spent, times the
host-calibration kernel inside and around every timed region, and
reports medians over the repetitions.  ``--trace 1`` alternates untraced and traced
repetitions.  It reports the per-layer rows of the traced repetition
with the median total, and the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A run manifest
(seed, spec, revision, calibration passes, raw timings, digest) goes to
``perfbench/out/``.  The exit code is 0 for a correct run, 1 otherwise.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"

#: Wall-clock limit of one invocation, under the 180 s the benchmark
#: may take.  A run past it counts every operation failed.
DEADLINE_S = 150.0

#: Calibration bursts this close to a region count toward its factor.
BURST_MARGIN_S = 0.5

#: Set-up is repeated within a repetition until this much time is spent
#: (at least once), so a set-up of milliseconds still gives a median.
MIN_SETUP_S = 0.5

END_TO_END_UNITS = {
    "sim_rtf": "x",
    "cpu_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "latency_p50_ms": "ms",
    "latency_p99_ms": "ms",
    "delivery_ratio": "ratio",
}


def import_program() -> bool:
    """Put this checkout's ``src/`` first on the path and import the
    program from it, never from an installed copy."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"error: no program sources under {src}", file=sys.stderr)
        return False
    sys.path.insert(0, str(src))
    import repro

    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        print(f"error: imported repro from {repro.__file__}", file=sys.stderr)
        return False
    sys.path.insert(0, str(HERE))
    return True


def _revision() -> str:
    git = ROOT / ".git"
    try:
        ref = (git / "HEAD").read_text().strip()
        if ref.startswith("ref: "):
            return (git / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def _cpu_s() -> float:
    """CPU time of this process and every reaped child."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def _peak_rss_mb() -> float:
    """Peak RSS so far of the largest process: this one or any reaped
    child (shard workers)."""
    return max(
        resource.getrusage(who).ru_maxrss
        for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)
    ) / 1024.0


@dataclass
class Rep:
    """One repetition: set-up, run, judgement."""

    setup: object
    setups: int
    run: object
    cpu_s: float
    peak_rss_mb: float
    outcome: object
    traced: bool = False
    layers: Optional[dict] = None

    @property
    def setup_s(self) -> float:
        """Calibrated time of one set-up."""
        return self.setup.seconds / self.setups

    def manifest(self) -> dict:
        return {
            "traced": self.traced,
            "setup": dict(self.setup.to_dict(), count=self.setups),
            "run": self.run.to_dict(),
            "cpu_raw_s": self.cpu_s,
            "peak_rss_mb": self.peak_rss_mb,
            "attempted": self.outcome.attempted,
            "failed": self.outcome.failed,
            "problems": self.outcome.problems,
            "details": {
                k: v for k, v in self.outcome.details.items() if k != "spec"
            },
        }


def measure_rep(workload, seed: int, size: str, sampler, tracer=None, digest=False) -> Rep:
    """Set up and run once, between two calibration bursts.  Untraced,
    the sampler also times kernel passes inside both regions; traced,
    the per-layer wrappers are installed instead.  Nothing of the run
    outlives the call but its :class:`Rep`, so no repetition runs
    beside an earlier one's heap."""
    gc.collect()
    sampler.burst()
    if tracer is not None:
        tracer.install()
    else:
        sampler.active = True
    try:
        setups = 0
        setup_start = time.perf_counter()
        while not setups or time.perf_counter() - setup_start < MIN_SETUP_S:
            engine = workload.setup(seed, size, traced=tracer is not None)
            setups += 1
        setup_end = run_start = time.perf_counter()
        cpu0 = _cpu_s()
        result = engine.run()
        run_end = time.perf_counter()
        cpu_s = _cpu_s() - cpu0
    finally:
        sampler.active = False
        if tracer is not None:
            tracer.uninstall()
    peak = _peak_rss_mb()
    sampler.burst()
    run = sampler.region(run_start, run_end, margin=BURST_MARGIN_S)
    rep = Rep(
        setup=sampler.region(setup_start, setup_end, margin=BURST_MARGIN_S),
        setups=setups,
        run=run,
        cpu_s=cpu_s - run.inside_cpu_s,
        peak_rss_mb=peak,
        outcome=workload.outcome(engine, result, digest),
        traced=tracer is not None,
    )
    if tracer is not None:
        rep.layers = tracer.report(workload, engine, result)
    return rep


def end_to_end(workload, reps) -> dict:
    import numpy as np

    first = reps[0].outcome
    latencies = workload.latency_ms(reps)
    values = {
        "sim_rtf": statistics.median(r.outcome.sim_s / r.run.seconds for r in reps),
        "cpu_s": statistics.median(r.cpu_s / r.run.factor for r in reps),
        "setup_s": statistics.median(r.setup_s for r in reps),
        # The peak so far after the first repetition: later ones start
        # from a heap the earlier ones left fragmented.
        "peak_rss_mb": reps[0].peak_rss_mb,
        "latency_p50_ms": float(np.percentile(latencies, 50)),
        "latency_p99_ms": float(np.percentile(latencies, 99)),
        "delivery_ratio": first.delivered / max(first.issued, 1),
    }
    return {name: (values[name], unit) for name, unit in END_TO_END_UNITS.items()}


def run_workload(workload, seed: int, seconds: float, size: str, trace: bool, pinned: dict) -> dict:
    """Measure ``workload`` for about ``seconds``, judge every
    repetition, and return the printed result plus the manifest."""
    from calibration import Sampler

    expected = pinned["digests"].get(f"{workload.name}/{size}")
    if seed != pinned["seed"]:
        expected = None
    started = time.monotonic()
    reps = []
    with Sampler(DEADLINE_S) as sampler:
        while True:
            reps.append(
                measure_rep(workload, seed, size, sampler, digest=not reps and expected is not None)
            )
            if trace:
                from layers import Tracer

                reps.append(
                    measure_rep(workload, seed, size, sampler, tracer=Tracer(OUT_DIR))
                )
            if time.monotonic() - started >= seconds:
                break

    first = reps[0].outcome
    problems = [p for rep in reps for p in rep.outcome.problems]
    attempted = sum(rep.outcome.attempted for rep in reps)
    failed = sum(rep.outcome.failed for rep in reps)
    if any(rep.outcome.fingerprint != first.fingerprint for rep in reps):
        problems.append("repetitions of one seed disagree")
        failed = attempted
    if first.digest != expected:
        problems.append(f"digest {first.digest} does not match the pinned {expected}")
        failed = attempted

    untraced = [rep for rep in reps if not rep.traced]
    if trace:
        from layers import per_layer

        metrics, layer_problems = per_layer([r for r in reps if r.traced], untraced)
        problems.extend(layer_problems)
    else:
        metrics = end_to_end(workload, untraced)

    manifest = {
        "workload": workload.name,
        "seed": seed,
        "size": size,
        "trace": int(trace),
        "seconds": seconds,
        "revision": _revision(),
        "python": sys.version.split()[0],
        "spec": first.details.get("spec"),
        "digest": first.digest,
        "latency_samples": int(len(first.latencies)),
        "problems": problems,
        "repetitions": [rep.manifest() for rep in reps],
    }
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
        },
        "manifest": manifest,
    }


def stop_children() -> None:
    """Stop and reap every process the run started.

    Shard workers are joined by the program itself, but its shared-memory
    rings start the multiprocessing resource tracker, which would
    otherwise outlive this process by however long it takes to notice
    its parent is gone."""
    import multiprocessing
    from multiprocessing import resource_tracker

    for child in multiprocessing.active_children():
        child.terminate()
        child.join()
    resource_tracker._resource_tracker._stop()


def main(argv=None) -> int:
    try:
        return _main(argv)
    finally:
        stop_children()


def _main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size",
        choices=("full", "tiny"),
        default="full",
        help="tiny runs each workload in about a second (for the self-tests)",
    )
    args = parser.parse_args(argv)
    if not import_program():
        return 2
    from workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(
            f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
            file=sys.stderr,
        )
        return 2
    pinned = json.loads((HERE / "pinned.json").read_text())
    OUT_DIR.mkdir(exist_ok=True)

    try:
        report = run_workload(
            workload, args.seed, args.seconds, args.size, bool(args.trace), pinned
        )
    except Exception as exc:  # a run that raises fails every operation
        ops = workload.expected_ops(args.seed, args.size)
        report = {
            "correct": False,
            "attempted": ops,
            "failed": ops,
            "metrics": {},
            "manifest": {"workload": workload.name, "seed": args.seed, "error": repr(exc)},
        }
    manifest = report.pop("manifest")
    manifest["result"] = report
    name = f"{workload.name}-seed{args.seed}-trace{args.trace}-{args.size}.json"
    (OUT_DIR / name).write_text(json.dumps(manifest, indent=1, default=str))
    for metric, entry in report["metrics"].items():
        print(f"{metric:32s} {entry['value']:14.6g} {entry['unit']}")
    if "latency_samples" in manifest:
        print(f"latency samples: {manifest['latency_samples']}")
    for problem in manifest.get("problems", []) + [manifest.get("error")]:
        if problem:
            print(f"problem: {problem}")
    print(json.dumps(report))
    return 0 if report["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
