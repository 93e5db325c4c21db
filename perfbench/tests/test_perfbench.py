"""Self-tests of the benchmark, and probes of two known program defects.

Run from the root of a checkout::

    python3 -m pytest perfbench/tests -q

The schema test runs every workload at the tiny size, traced and
untraced, through the same command line the benchmark is driven by.
The probes are strict expected failures: each fails today because of a
defect in the program, and will report XPASS -- failing this suite --
once the defect is fixed, which is the cue to restore the handover the
workloads leave out (README.md, "Known defects").
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

assert run.import_program()

from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402

from repro.core.scenario import ScenarioBuilder, paper_corridor  # noqa: E402
from repro.fuzz.oracles import (  # noqa: E402
    scenario_signature,
    sharded_signature,
    signature_digest,
)

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

#: The end-to-end metrics the benchmark exists to report.
END_TO_END = (
    "sim_rtf",
    "cpu_s",
    "setup_s",
    "peak_rss_mb",
    "latency_p50_ms",
    "latency_p99_ms",
    "delivery_ratio",
)

#: One row per layer; with the residual they add up to the traced total.
LAYER_ROWS = (
    "net", "streaming", "dissemination", "microbatch", "detect", "wire",
    "collab", "parallel", "city", "faults", "dataset",
)


def _bench(workload: str, trace: int) -> tuple:
    proc = subprocess.run(
        [
            sys.executable, "perfbench/run.py",
            "--workload", workload,
            "--seed", str(DEFAULT_SEED),
            "--seconds", "0",
            "--trace", str(trace),
            "--size", "tiny",
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=170,
    )
    return proc, json.loads(proc.stdout.strip().splitlines()[-1])


def test_benchmark_json_names_every_workload_and_metric():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert [m["name"] for m in SPEC["end_to_end"]] == list(END_TO_END)
    assert SPEC["end_to_end"][END_TO_END.index("setup_s")]["bound"] == max(
        m["bound"] for m in SPEC["end_to_end"]
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_every_workload_prints_every_metric_with_its_unit(workload, trace):
    proc, result = _bench(workload, trace)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for metric in declared:
        printed = result["metrics"][metric["name"]]
        assert printed["unit"] == metric["unit"]
        assert isinstance(printed["value"], (int, float))
        if not trace:
            assert printed["value"] > 0, metric["name"]
    if trace:
        values = {name: entry["value"] for name, entry in result["metrics"].items()}
        rows = sum(values[f"{layer}.self_ms"] for layer in LAYER_ROWS)
        assert values["simkernel.residual_ms"] >= 0
        assert rows + values["simkernel.residual_ms"] == pytest.approx(
            values["trace.total_ms"], rel=1e-9
        )
        assert values["trace.overhead"] > 0


def test_corrupted_pinned_digest_fails_every_operation():
    workload = WORKLOADS["corridor-chaos"]
    pinned = {"seed": DEFAULT_SEED, "digests": {"corridor-chaos/tiny": "0" * 64}}
    report = run.run_workload(workload, DEFAULT_SEED, 0, "tiny", False, pinned)
    assert report["correct"] is False
    assert report["failed"] == report["attempted"] > 0
    assert any("pinned" in p for p in report["manifest"]["problems"])


def test_run_outside_a_checkout_prints_no_result(tmp_path):
    copy = tmp_path / "perfbench"
    copy.mkdir()
    for path in BENCH.glob("*.py"):
        (copy / path.name).write_text(path.read_text())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "city-day",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def _session_members(sid: int) -> list:
    """Pids of live processes in session ``sid``."""
    members = []
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            fields = stat.read_text().rsplit(")", 1)[1].split()
        except OSError:
            continue
        # After the command name: state, ppid, pgrp, session.
        if fields[0] != "Z" and int(fields[3]) == sid:
            members.append(int(stat.parent.name))
    return members


@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="needs /proc")
@pytest.mark.parametrize("workload", ["corridor-collab-sharded", "city-day"])
def test_no_process_outlives_the_run(workload):
    proc = subprocess.Popen(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(DEFAULT_SEED), "--seconds", "0", "--trace", "1",
         "--size", "tiny"],
        cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        start_new_session=True,
    )
    assert proc.wait(timeout=170) == 0
    assert _session_members(proc.pid) == []


# ----------------------------------------------------------------------
# Known-defect probes
# ----------------------------------------------------------------------
@pytest.mark.xfail(
    raises=ValueError,
    strict=True,
    reason="a handover re-homes telemetry still queued in the HTB shaper "
    "to the link RSU, whose road-only detector rejects motorway records",
)
@pytest.mark.parametrize(
    "vehicles, dataplane, seed",
    [
        (256, "batched", 7),  # the paper's scale, both data planes
        (256, "event", 7),
        (128, "event", 1),  # the paper_corridor() preset
        (64, "event", 9),
    ],
)
def test_handover_runs(vehicles, dataplane, seed):
    (
        ScenarioBuilder()
        .vehicles(vehicles)
        .handover(0.25)
        .serde("struct")
        .dataplane(dataplane)
        .duration(1.0)
        .seed(seed)
        .corridor()
        .run()
    )


def _collab_knee(builder):
    return builder.serde("struct").collab(
        mode="refresh",
        gate_threshold=1.0,
        max_silence_s=6.0,
        delta_encoding=True,
        priority=True,
    )


@pytest.mark.xfail(
    strict=True,
    reason="with the collab plane on and >= 64 vehicles/RSU the result "
    "depends on the shard count",
)
def test_sharded_collab_digest_matches_serial():
    builder = _collab_knee(
        paper_corridor().vehicles(64).duration(4.0).seed(DEFAULT_SEED)
    )
    serial = builder.corridor()
    serial_result = serial.run()
    signature = scenario_signature(serial, serial_result)
    del signature["events"]  # the sharded engine keeps events in-worker
    sharded = builder.shards(2).corridor()
    sharded_result = sharded.run()
    assert signature_digest(signature) == signature_digest(
        sharded_signature(sharded, sharded_result)
    )
