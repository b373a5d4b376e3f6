"""The benchmark's own tests: attribution, exactness and the contract.

Run from the root of a checkout:

    python3 -m pytest perfbench -q

They take a few minutes: the attribution test traces twenty-four
run-zoo sweeps, and the exactness test runs every workload twice.
"""

import gc
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = os.path.join(ROOT, "perfbench", "run.py")
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import run as bench  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

assert bench.import_repro(ROOT)


def _catalog():
    with open(bench.METRICS, encoding="utf-8") as handle:
        return json.load(handle)


def _benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


def _run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, RUN, *args], cwd=cwd,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=600, check=False)


class TestContract:
    def test_benchmark_json_matches_the_catalog(self):
        declared = _benchmark_json()
        catalog = _catalog()
        for section in ("end_to_end", "per_layer"):
            names = [m["name"] for m in declared[section]]
            assert names == list(catalog[section])
            for metric in declared[section]:
                own = catalog[section][metric["name"]]
                assert (metric["unit"], metric["better"]) == (
                    own["unit"], own["better"])
        assert [w["name"] for w in declared["workloads"]] == list(
            workloads.WORKLOADS)

    def test_tracer_reports_every_per_layer_metric(self):
        measured = set(tracing.layer_metrics(tracing.Tracer(), {}))
        measured |= {"absent", "telemetry.recorder.ns_per_step",
                     "trace.overhead_s"}
        assert measured - {"absent"} == set(_catalog()["per_layer"])

    def test_bare_directory_fails_without_a_result(self):
        bare = os.path.join(ROOT, ".bench_out", "bare")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(os.path.join(ROOT, "perfbench"),
                        os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        try:
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload",
                 "run-zoo", "--seed", "0", "--seconds", "1", "--trace", "0"],
                cwd=bare, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                text=True, timeout=180, check=False)
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        assert proc.returncode != 0
        assert '"correct"' not in proc.stdout


class TestExactness:
    @pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
    def test_same_seed_gives_the_same_exact_results(self, workload):
        digests = []
        for _ in range(2):
            proc = _run("--workload", workload, "--seed", "5",
                        "--seconds", "1", "--trace", "0")
            assert proc.returncode == 0, proc.stdout + proc.stderr
            result = json.loads(proc.stdout.splitlines()[-1])
            assert result["correct"] and result["failed"] == 0
            digests.append([line for line in proc.stdout.splitlines()
                            if line.startswith("exact-digest ")])
        assert digests[0] == digests[1] and digests[0]


def _attribution_round(workload, apps, runs, delay_ns):
    """Per-layer metrics of ``runs`` traced three ways: every run executes
    three times in a row, under a baseline tracer, under a tracer with a
    fixed busy-wait added to every ``partitioned`` step, and under a second
    baseline tracer, in shuffled order.  Interleaving run by run puts all
    three through the same machine speed."""
    from repro.hardware import PartitionedHardware

    original = PartitionedHardware.__dict__["step"]

    def delayed(self, *args):
        cost = original(self, *args)
        if type(self) is PartitionedHardware:
            deadline = time.perf_counter_ns() + delay_ns
            while time.perf_counter_ns() < deadline:
                pass
        return cost

    tracers = [tracing.Tracer() for _ in range(3)]
    orders = random.Random(0)
    for run in runs:
        # A cyclic collection inside one of the three runs would charge
        # its pause to whichever layer was allocating: collect between
        # triples instead.
        gc.collect()
        gc.disable()
        try:
            # Shuffle the order per run, so no tracer always runs just
            # after the collection or just after the delayed run.
            for index in orders.sample(range(3), 3):
                if index == 1:
                    PartitionedHardware.step = delayed
                tracers[index].install()
                try:
                    workload.run_one(apps, *run)
                finally:
                    tracers[index].uninstall()
                    PartitionedHardware.step = original
        finally:
            gc.enable()
    units = _catalog()["per_layer"]
    out = []
    for tracer in tracers:
        metrics = tracing.layer_metrics(tracer, {})
        absent = metrics.pop("absent")
        out.append({name: value for name, value in metrics.items()
                    if name not in absent
                    and units[name]["unit"].startswith("ns")})
    return out


#: Rounds, each one run-zoo sweep.  Shorter rounds are dominated by
#: millisecond stalls of the host.
ROUNDS = 7
#: The smallest spread a metric is given, as a share of its value: the
#: busy-wait itself nudges unrelated per-run means by a percent or two.
RESOLUTION = 0.05


def test_injected_partitioned_delay_is_attributed_to_partitioned_only():
    """A fixed delay of ~20% of a partitioned step's self time moves
    ``hardware.partitioned.ns_per_step`` by more than its spread, and no
    other layer metric by more than that metric's spread.

    Per round, a metric's shift is the delayed value minus the mean of the
    two baselines, and its gap is the distance between the baselines.  A
    metric moved when its median shift exceeds its spread: its largest
    gap, and at least ``RESOLUTION`` of its value.
    """
    workload = workloads.RunZoo(ROOT, seed=0)
    apps = workload.build_programs()
    target = "hardware.partitioned.ns_per_step"
    baseline = _attribution_round(workload, apps, workload.runs, 0)[0]
    delay = int(0.2 * baseline[target])
    shifts, gaps = {}, {}
    for _ in range(ROUNDS):
        before, delayed, after = _attribution_round(
            workload, apps, workload.runs, delay)
        for name in before:
            shifts.setdefault(name, []).append(
                delayed[name] - (before[name] + after[name]) / 2)
            gaps.setdefault(name, []).append(abs(before[name] - after[name]))
    moved, spread = {}, {}
    for name in shifts:
        moved[name] = statistics.median(shifts[name])
        spread[name] = max(max(gaps[name]), RESOLUTION * baseline[name])
    assert moved[target] > spread[target], (moved[target], spread[target])
    assert 0.5 * delay < moved[target] < 2 * delay, (moved[target], delay)
    wrongly_moved = {name: (moved[name], spread[name]) for name in moved
                     if name != target and abs(moved[name]) > spread[name]}
    assert not wrongly_moved, wrongly_moved
