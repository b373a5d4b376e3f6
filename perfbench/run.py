"""Run one benchmark workload against the ``repro`` package in ``src/``.

    python3 perfbench/run.py --workload run-zoo --seed 0 --seconds 30 \\
        --trace 0

Run from the root of a checkout.  ``--workload all`` runs every workload,
each in its own process.  With ``--trace 0`` the run measures the
end-to-end metrics with nothing patched; with ``--trace 1`` it alternates
untraced and traced job repeats, reports the per-layer metrics from the
traced ones and the tracing overhead, and writes every span to
``.bench_out/``.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
Exit status: 0 when every oracle and exactness check held, 1 when one
failed, 2 when the checkout holds no ``repro`` package.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
#: The benchmark's own record of every metric (see README.md).
METRICS = os.path.join(HERE, "metrics.json")
clock = time.perf_counter_ns
#: When the run began; ``--seconds`` counts from here, warm-up included.
STARTED = clock()
#: Fewest job repeats in a measured run (quartiles need a few).
MIN_REPEATS = 3
#: Fewest traced job repeats (the per-job counts are compared).
MIN_TRACED = 2


def import_repro(root: str) -> bool:
    """Import ``repro`` from ``root/src`` and nowhere else."""
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        return False
    sys.path.insert(0, src)
    import repro

    return os.path.realpath(repro.__file__).startswith(
        os.path.realpath(src) + os.sep)


def digest(exact: Dict[str, Any]) -> str:
    text = json.dumps(exact, sort_keys=True, default=repr)
    return hashlib.sha256(text.encode()).hexdigest()


class Run:
    """Oracle and exactness bookkeeping shared by both run modes."""

    def __init__(self, workload):
        self.workload = workload
        self.failures: List[str] = []
        self.attempted = 0
        self.failed = 0
        self.reference = ""

    def job(self, tracer=None):
        """One set-up plus work repeat, traced when ``tracer`` is given;
        returns (setup_ns, job_ns, outcome)."""
        if tracer is not None:
            tracer.install()
        try:
            start = clock()
            state = self.workload.setup()
            ready = clock()
            outcome = self.workload.work(state)
            done = clock()
        finally:
            if tracer is not None:
                tracer.uninstall()
        setup_ns = ready - start + outcome.setup_ns
        self.failures.extend(self.workload.check(outcome))
        self.attempted += outcome.attempted
        self.failed += outcome.failed
        fingerprint = digest(outcome.exact)
        if not self.reference:
            self.reference = fingerprint
        elif fingerprint != self.reference:
            self.failures.append("exact results differ between repeats")
        return setup_ns, done - start, outcome


def slow_quartile(values: List[float],
                  higher_is_faster: bool = False) -> float:
    """The slower quartile of a run's per-job figures: the 75th percentile
    of times, the 25th of rates.  The host alternates between a steady
    contended speed and short fast bursts whose share drifts from minute
    to minute; the median jumps between the two levels as that share
    changes, the slower quartile stays on the steady one (README "Noise")."""
    low, _, high = statistics.quantiles(values, n=4, method="inclusive")
    return low if higher_is_faster else high


def repeat(step, least: int, seconds: float) -> None:
    """Call ``step`` at least ``least`` times, then as long as one more
    call is expected to end within ``seconds`` of the run's start."""
    deadline = STARTED + seconds * 1e9
    walls: List[int] = []
    while len(walls) < least or clock() + statistics.median(walls) < deadline:
        start = clock()
        step()
        walls.append(clock() - start)


def measure(run: Run, seconds: float) -> Dict[str, Any]:
    """The untraced run: a warm-up repeat, then repeats until ``seconds``
    have passed since the run began."""
    run.job()
    setups, jobs, outcomes = [], [], []

    def step():
        setup_ns, job_ns, outcome = run.job()
        setups.append(setup_ns)
        jobs.append(job_ns)
        if outcomes:
            # Checked and digested already; holding every repeat's results
            # would make the peak RSS grow with the number of repeats.
            outcome.exact = outcome.detail = None
        outcomes.append(outcome)

    repeat(step, max(MIN_REPEATS, getattr(run.workload, "MIN_JOBS", 0)),
           seconds)
    rates = [o.units * 1e9 / o.work_ns for o in outcomes]
    metrics = {
        "setup_s": slow_quartile(setups) / 1e9,
        "job_s": slow_quartile(jobs) / 1e9,
        "work_per_s": slow_quartile(rates, higher_is_faster=True),
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return {"metrics": metrics, "repeats": len(jobs), "jobs": jobs,
            "workload": workload_metrics(run.workload.name, metrics,
                                         outcomes)}


def workload_metrics(name: str, metrics: Dict[str, float],
                     outcomes) -> Dict[str, float]:
    """The workload's own end-to-end metrics (README.md, metrics.json)."""
    exact = outcomes[0].exact
    out = {"setup_s": metrics["setup_s"],
           "peak_rss_mb": metrics["peak_rss_mb"]}
    if name == "run-zoo":
        out["steps_per_s"] = metrics["work_per_s"]
        out["sim_cycles"] = exact["sim_cycles"]
    elif name == "serve-mix":
        out["req_per_s"] = metrics["work_per_s"]
        for key in ("sim_latency_p50_cycles", "sim_latency_p99_cycles",
                    "leaked_bits"):
            out[key] = exact[key]
    elif name == "attack-quick":
        out["campaign_s"] = slow_quartile(
            [o.work_ns for o in outcomes]) / 1e9
    else:
        samples = sorted(s for o in outcomes for s in o.samples_ns)
        out["analyze_ms_p50"] = samples[len(samples) // 2] / 1e6
        out["analyze_ms_p99"] = samples[
            min(len(samples) - 1, int(len(samples) * 0.99))] / 1e6
        out["analyze_samples"] = len(samples)
        out["tune_s"] = slow_quartile(
            [o.part_ns["tune"] for o in outcomes]) / 1e9
    return out


def trace(run: Run, seconds: float, out_dir: str,
          seed: int) -> Dict[str, Any]:
    """The traced run: untraced and traced repeats, alternating."""
    from tracer import Tracer, layer_metrics

    workload = run.workload
    run.job()
    recorder_ns = None
    if hasattr(workload, "recorder_ns_per_step"):
        recorder_ns = workload.recorder_ns_per_step()
    tracer = Tracer()
    plain, traced, per_job = [], [], {}

    def step():
        plain.append(run.job()[1])
        before = tracer.snapshot()
        traced.append(run.job(tracer)[1])
        tracer.settle_sources()
        after = tracer.snapshot()
        counts = {key: value - before.get(key, 0)
                  for key, value in after.items()}
        if not per_job:
            per_job.update(counts)
        elif counts != per_job:
            run.failures.append("per-layer counts differ between traced "
                                "repeats")

    repeat(step, MIN_TRACED, seconds)
    metrics = layer_metrics(tracer, per_job)
    absent = metrics.pop("absent")
    if recorder_ns is None:
        metrics["telemetry.recorder.ns_per_step"] = 0
        absent["telemetry.recorder.ns_per_step"] = (
            "measured on run-zoo only")
    else:
        metrics["telemetry.recorder.ns_per_step"] = recorder_ns
    metrics["trace.overhead_s"] = (statistics.median(traced)
                                   - statistics.median(plain)) / 1e9
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"trace-{workload.name}-seed{seed}.json.gz")
    tracer.write(path)
    return {"metrics": metrics, "absent": absent, "repeats": len(traced),
            "spans": path}


def print_table(title: str, rows: List[tuple]) -> None:
    print(title)
    for name, value, unit, note in rows:
        print(f"  {name:<40} {value:>16.6g} {unit:<12} {note}")


def run_one(args, root: str) -> int:
    if not import_repro(root):
        print(f"perfbench: no importable repro package under "
              f"{os.path.join(root, 'src')}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    with open(METRICS, encoding="utf-8") as handle:
        catalog = json.load(handle)
    run = Run(WORKLOADS[args.workload](root, args.seed))
    header = (f"workload {args.workload} (work unit: {run.workload.unit})  "
              f"seed {args.seed}  seconds {args.seconds}  trace {args.trace}")
    if args.trace:
        result = trace(run, args.seconds, os.path.join(root, ".bench_out"),
                       args.seed)
        names = catalog["per_layer"]
        metrics = {name: result["metrics"][name] for name in names}
        print_table(f"{header}  traced repeats {result['repeats']}", [
            (name, value, names[name]["unit"],
             "absent: " + result["absent"][name]
             if name in result["absent"] else "")
            for name, value in metrics.items()])
        print(f"spans written to {os.path.relpath(result['spans'], root)}")
    else:
        result = measure(run, args.seconds)
        names = catalog["end_to_end"]
        metrics = {name: result["metrics"][name] for name in names}
        own = catalog["workload_metrics"]
        print_table(f"{header}  repeats {result['repeats']} (+1 warm-up)", [
            (name, value,
             own[name]["unit"] if name in own else names[name]["unit"],
             "exact" if own.get(name, {}).get("exact") else "")
            for name, value in result["workload"].items()])
        print("job_s per repeat: " + " ".join(
            f"{job / 1e9:.4f}" for job in result["jobs"]))
    print(f"exact-digest {run.reference}")
    for failure in run.failures:
        print(f"FAILED: {failure}")
    correct = not run.failures
    units = {**catalog["end_to_end"], **catalog["per_layer"]}
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": units[name]["unit"]}
                    for name, value in metrics.items()},
    }))
    return 0 if correct else 1


def run_all(args) -> int:
    """Every workload in its own process; one combined result line."""
    from workloads import WORKLOADS

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        status = max(status, proc.returncode)
        if proc.returncode == 2 or not lines:
            return 2
        last = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and last["correct"]
        combined["attempted"] += last["attempted"]
        combined["failed"] += last["failed"]
        for metric, value in last["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = value
    print(json.dumps(combined))
    return status


def main(argv=None) -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args, os.getcwd())


if __name__ == "__main__":
    sys.exit(main())
