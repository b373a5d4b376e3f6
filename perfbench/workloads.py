"""The benchmark's four workloads, driving ``repro`` as a library.

Each workload turns the benchmark seed into its inputs once, then repeats
one *job*: ``setup()`` builds what the job needs (timed as set-up), and
``work(state)`` makes the calls under test, timing only those calls.
``work`` returns an :class:`Outcome` holding the job's deterministic
results (``exact``), which must be identical on every repeat and on every
run with the same seed, and ``check`` compares an outcome with the
reference results (the oracle) outside any timed region.
"""

from __future__ import annotations

import glob
import json
import os
import random
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Tuple

clock = time.perf_counter_ns

#: The nine registry models, in registry order.
MODELS = ("null", "standard", "nofill", "partitioned", "bus", "writeback",
          "speculative", "frequency", "leakytlb")


@dataclass
class Outcome:
    """What one job repeat did."""

    #: Work units completed (steps, requests, probes or analyses).
    units: int
    #: Host ns spent inside the calls under test.
    work_ns: int
    #: Deterministic results; compared across repeats and runs.
    exact: Dict[str, Any]
    #: Host ns of set-up done inside ``work`` but outside the timed calls.
    setup_ns: int = 0
    #: Operations attempted and the ones that failed their oracle.
    attempted: int = 0
    failed: int = 0
    #: Host ns per individual operation, where the workload times them.
    samples_ns: List[int] = field(default_factory=list)
    #: Host ns of a named sub-job (tune), where the workload has one.
    part_ns: Dict[str, int] = field(default_factory=dict)
    #: Anything ``check`` needs that is not part of ``exact``.
    detail: Any = None


class RunZoo:
    """The case studies through ``semantics.full.execute`` on every model."""

    name = "run-zoo"
    unit = "interpreter steps"
    #: Runs per (program, model) pair, each with fresh secrets.
    RUNS = 4
    PASSWORD_LENGTH = 8
    SBOX_LENGTH = 16
    RSA_BITS = 16
    RSA_BLOCKS = 4

    def __init__(self, root: str, seed: int):
        from repro.apps import encrypt_blocks, generate_keypair

        rng = random.Random(seed)
        self.runs: List[Tuple[str, str, Dict[str, Any]]] = []
        # Models rotate innermost, so each model's runs spread over the
        # whole sweep instead of one slice of it.
        for _ in range(self.RUNS):
            for mitigated in (True, False):
                for model in MODELS:
                    stored = [rng.randrange(256)
                              for _ in range(self.PASSWORD_LENGTH)]
                    prefix = rng.randrange(self.PASSWORD_LENGTH + 1)
                    guess = stored[:prefix] + [
                        (b + 1 + rng.randrange(255)) % 256
                        for b in stored[prefix:]]
                    self.runs.append((f"password/{_word(mitigated)}", model,
                                      {"stored": stored, "guess": guess}))
                for model in MODELS:
                    self.runs.append((
                        f"sbox/{_word(mitigated)}", model,
                        {"key": [rng.randrange(256) for _ in range(16)],
                         "plaintext": [rng.randrange(256)
                                       for _ in range(self.SBOX_LENGTH)]}))
            for model in MODELS:
                key = generate_keypair(self.RSA_BITS,
                                       seed=rng.randrange(1 << 30))
                message = [rng.randrange(1, key.n)
                           for _ in range(self.RSA_BLOCKS)]
                self.runs.append(("rsa/language", model, {
                    "key": key, "message": message,
                    "ciphertext": encrypt_blocks(message, key)}))
        self.expected: List[Tuple] = []

    def build_programs(self) -> Dict[str, Any]:
        from repro.apps import PasswordChecker, RsaSystem, SboxCipher

        return {
            "password/mitigated": PasswordChecker(
                length=self.PASSWORD_LENGTH, mitigated=True),
            "password/unmitigated": PasswordChecker(
                length=self.PASSWORD_LENGTH, mitigated=False),
            "sbox/mitigated": SboxCipher(
                length=self.SBOX_LENGTH, plaintext_length=self.SBOX_LENGTH,
                mitigated=True),
            "sbox/unmitigated": SboxCipher(
                length=self.SBOX_LENGTH, plaintext_length=self.SBOX_LENGTH,
                mitigated=False),
            "rsa/language": RsaSystem(key_bits=self.RSA_BITS,
                                      blocks=self.RSA_BLOCKS),
        }

    @staticmethod
    def memory(app, program: str, inputs: Dict[str, Any]):
        if program.startswith("password"):
            return app.memory(inputs["stored"], inputs["guess"])
        if program.startswith("sbox"):
            return app.memory(inputs["key"], inputs["plaintext"])
        return app.memory(inputs["key"], inputs["ciphertext"])

    def setup(self):
        return self.build_programs()

    def run_one(self, apps, program: str, model: str,
                inputs: Dict[str, Any], recorder=None):
        """One run; its hardware, memory and mitigation state are built
        just before the timed ``execute`` call.  Returns ``(setup_ns,
        work_ns, result)``."""
        from repro.hardware import make_hardware
        from repro.semantics.full import execute
        from repro.semantics.mitigation import MitigationState

        app = apps[program]
        start = clock()
        memory = self.memory(app, program, inputs)
        hardware = make_hardware(model, app.lattice)
        mitigation = MitigationState()
        ready = clock()
        result = execute(app.program, memory, hardware,
                         mitigation=mitigation,
                         mitigate_pc=app.typing.mitigate_pc
                         if app.typing else {},
                         recorder=recorder)
        return ready - start, clock() - ready, result

    def work(self, apps, models=MODELS, recorder_factory=None) -> Outcome:
        """Run the sweep.  Set-up inside a run is charged to set-up;
        building every run's hardware up front instead would hold 180
        hardware models in memory at once."""
        setup_ns = work_ns = 0
        steps = cycles = 0
        results = []
        for program, model, inputs in self.runs:
            if model not in models:
                continue
            setup, elapsed, result = self.run_one(
                apps, program, model, inputs,
                recorder_factory() if recorder_factory else None)
            setup_ns += setup
            work_ns += elapsed
            steps += result.steps
            cycles += result.time
            results.append((result.time, result.steps,
                            result.memory.snapshot()))
        return Outcome(units=steps, work_ns=work_ns, setup_ns=setup_ns,
                       exact={"sim_cycles": cycles, "steps": steps,
                              "runs": results},
                       attempted=len(results), detail=results)

    def recorder_ns_per_step(self, rounds: int = 5) -> float:
        """Host ns one step pays for an attached ``RecordingTraceRecorder``:
        the null and partitioned runs with one, minus the same runs
        without, over interleaved rounds."""
        from repro.telemetry.recorder import RecordingTraceRecorder

        apps = self.build_programs()
        models = ("null", "partitioned")
        plain, recorded = [], []
        for _ in range(rounds):
            for factory, sink in ((None, plain),
                                  (RecordingTraceRecorder, recorded)):
                outcome = self.work(apps, models, factory)
                sink.append(outcome.work_ns / outcome.units)
        return statistics.median(recorded) - statistics.median(plain)

    def reference(self) -> List[Tuple]:
        """Final memories from the untimed core semantics, each checked
        against the app's Python reference."""
        from repro.apps import decrypt, reference_encrypt
        from repro.semantics.core import run_core

        apps = self.build_programs()
        expected = []
        for program, _, inputs in self.runs:
            app = apps[program]
            memory = run_core(app.program,
                              self.memory(app, program, inputs))
            if program.startswith("password"):
                match = int(inputs["stored"] == inputs["guess"])
                ok = memory.read("match") == match
            elif program.startswith("sbox"):
                ok = [memory.read_elem("ctext", i)
                      for i in range(self.SBOX_LENGTH)] == reference_encrypt(
                    inputs["key"], inputs["plaintext"], self.SBOX_LENGTH)
            else:
                ok = [memory.read_elem("plain", i)
                      for i in range(self.RSA_BLOCKS)] == [
                    decrypt(c, inputs["key"]) for c in inputs["ciphertext"]]
            expected.append(memory.snapshot() if ok else None)
        return expected

    def check(self, outcome: Outcome) -> List[str]:
        if not self.expected:
            self.expected = self.reference()
        failures = []
        for (program, model, _), want, got in zip(
                self.runs, self.expected, outcome.detail):
            if want is None:
                failures.append(f"{program}: core semantics disagrees with "
                                f"the Python reference")
            elif got[2] != want:
                failures.append(f"{program} on {model}: final memory differs "
                                f"from the core semantics")
        outcome.failed = len(failures)
        return failures


class ServeMix:
    """``Gateway(spec).serve()`` plus ``audit_service()`` on a 4-tenant mix."""

    name = "serve-mix"
    unit = "completed requests"
    REQUESTS = 600
    #: Mean open-loop arrival gap in cycles: a standing queue, no rejects.
    MEAN_GAP = 1200
    QUEUE_DEPTH = 32

    def __init__(self, root: str, seed: int):
        with open(os.path.join(root, "examples", "service", "basic.json"),
                  encoding="utf-8") as handle:
            raw = json.load(handle)
        raw.update(seed=seed, requests=self.REQUESTS,
                   queue_depth=self.QUEUE_DEPTH,
                   arrival={"kind": "open", "mean_gap": self.MEAN_GAP})
        self.raw = raw

    def setup(self):
        from repro.service import Gateway, WorkloadSpec

        return Gateway(WorkloadSpec.from_dict(self.raw))

    def work(self, gateway) -> Outcome:
        from repro.service import audit_service
        from repro.service.audit import quantile

        start = clock()
        result = gateway.serve()
        audit = audit_service(result)
        work_ns = clock() - start
        statuses = [r.status for r in result.responses]
        latencies = [r.latency for r in result.responses if r.status == "ok"]
        exact = {
            "sim_latency_p50_cycles": quantile(latencies, 0.50),
            "sim_latency_p99_cycles": quantile(latencies, 0.99),
            "leaked_bits": audit.max_observed_bits(),
            "completed": statuses.count("ok"),
            "rejected": statuses.count("rejected"),
            "timed_out": statuses.count("timeout"),
            "retries": result.retries,
            "makespan": result.makespan,
            "releases": result.release_times(),
        }
        return Outcome(units=statuses.count("ok"), work_ns=work_ns,
                       exact=exact, attempted=len(statuses),
                       failed=len(statuses) - statuses.count("ok"),
                       detail=audit)

    def check(self, outcome: Outcome) -> List[str]:
        audit = outcome.detail
        failures = [f"tenant {name} exceeds its Theorem 2 bound"
                    for name, tenant in sorted(audit.tenants.items())
                    if not tenant.within_bound]
        if not audit.ok:
            failures.append("service audit failed")
        if outcome.failed:
            failures.append(f"{outcome.failed} requests rejected or timed "
                            f"out")
        return failures


class AttackQuick:
    """``run_campaign(quick=True)``: 4 attacks x fifo/rr/quantized."""

    name = "attack-quick"
    unit = "probe requests"

    def __init__(self, root: str, seed: int):
        self.src = os.path.join(root, "src")
        self.seed = seed

    def setup(self):
        # The campaign builds its gateways itself; what a caller pays
        # before it is a cold interpreter importing the campaign module.
        subprocess.run(
            [sys.executable, "-I", "-c",
             "import sys; sys.path.insert(0, sys.argv[1]); "
             "import repro.adversary.campaign", self.src],
            check=True)
        return None

    def work(self, _state) -> Outcome:
        from repro.adversary.campaign import run_campaign

        start = clock()
        document = run_campaign(quick=True, seed=self.seed)
        work_ns = clock() - start
        probes = sum(cell["probes"] for cell in document["cells"])
        return Outcome(units=probes, work_ns=work_ns,
                       exact={"document": document},
                       attempted=len(document["cells"]), detail=document)

    def check(self, outcome: Outcome) -> List[str]:
        document = outcome.detail
        full = {"password-crack": 12.0, "tag-forge": 20.0}
        failures = []
        for cell in document["cells"]:
            where = f"{cell['attack']} under {cell['policy']}"
            if not cell["ok"]:
                failures.append(f"{where}: cell verdict is not ok")
            elif cell["policy"] == "quantized":
                if cell["bits_extracted"] != 0:
                    failures.append(f"{where} extracted "
                                    f"{cell['bits_extracted']} bits")
            elif cell["attack"] in full and (
                    cell["bits_extracted"] != full[cell["attack"]]
                    or cell["accuracy"] != 1.0):
                failures.append(f"{where} recovered "
                                f"{cell['bits_extracted']} bits at accuracy "
                                f"{cell['accuracy']}")
        outcome.failed = len(failures)
        if not document["ok"]:
            failures.append("campaign verdict is not ok")
        return failures


class AnalyzeCorpus:
    """Every ``examples/**/*.tl`` through the analysis, plus two tunes."""

    name = "analyze-corpus"
    unit = "analyze_source calls"
    #: Fewest jobs in a measured run: 24 x 42 calls keeps at least ten
    #: samples beyond the p99 of the analyze_source times.
    MIN_JOBS = 24
    TUNE = {"examples/tune/password.tl": 6047, "examples/tune/sbox.tl": 5219}

    def __init__(self, root: str, seed: int):
        self.root = root
        paths = sorted(
            os.path.relpath(path, root)
            for path in glob.glob(os.path.join(root, "examples", "**",
                                               "*.tl"), recursive=True))
        random.Random(seed).shuffle(paths)
        self.paths = paths

    def setup(self):
        from repro.hardware.costmodel import contract_for

        sources = []
        for path in self.paths:
            with open(os.path.join(self.root, path), encoding="utf-8") as f:
                sources.append((path, f.read()))
        return sources, {model: contract_for(model) for model in MODELS}

    def work(self, state) -> Outcome:
        from repro.analysis import (LintOptions, Severity, analyze_source,
                                    compute_cost, synthesize)

        sources, contracts = state
        samples = []
        work_ns = 0
        codes = {}
        costs = {}
        for path, source in sources:
            start = clock()
            result = analyze_source(source, path=path)
            elapsed = clock() - start
            samples.append(elapsed)
            codes[path] = sorted({d.code for d in result.diagnostics})
            well_typed = result.program is not None and not any(
                d.severity is Severity.ERROR for d in result.diagnostics)
            start = clock()
            if well_typed:
                costs[path] = {
                    model: _bounds(compute_cost(result.program,
                                                contract=contract).program)
                    for model, contract in contracts.items()}
            work_ns += elapsed + clock() - start
        tunes = {}
        tune_ns = 0
        options = LintOptions(lints=False, audit=False)
        for path in self.TUNE:
            result = analyze_source(dict(sources)[path], path=path,
                                    options=options)
            start = clock()
            tuned = synthesize(result.program, result.gamma, 0.0)
            tune_ns += clock() - start
            best = tuned.best
            tunes[path] = {
                "feasible": tuned.feasible,
                "objective": best.objective if best else None,
                "capacity": sorted(best.capacity.items()) if best else [],
                "explored": tuned.explored, "pruned": tuned.pruned,
            }
        return Outcome(units=len(samples), work_ns=work_ns,
                       exact={"codes": codes, "costs": costs,
                              "tunes": tunes},
                       attempted=len(samples) + len(tunes),
                       samples_ns=samples, part_ns={"tune": tune_ns})

    def check(self, outcome: Outcome) -> List[str]:
        failures = []
        for path, codes in sorted(outcome.exact["codes"].items()):
            base = os.path.basename(path)
            if base.startswith("tl") and base[:5].upper() not in codes:
                failures.append(f"{path} does not report {base[:5].upper()}")
            if base.startswith("near_tl") and base[5:10].upper() in codes:
                failures.append(f"{path} reports {base[5:10].upper()}")
        for path, want in self.TUNE.items():
            tune = outcome.exact["tunes"][path]
            models = [model for model, bits in tune["capacity"]
                      if bits == 0]
            if not tune["feasible"] or tune["objective"] != want \
                    or sorted(models) != sorted(MODELS):
                failures.append(f"tune {path}: feasible={tune['feasible']} "
                                f"objective={tune['objective']} (want "
                                f"{want} at 0 bits on all 9 models)")
        outcome.failed = len(failures)
        return failures


def _bounds(interval) -> Tuple[int, Any]:
    return interval.lo, interval.hi


def _word(mitigated: bool) -> str:
    return "mitigated" if mitigated else "unmitigated"


WORKLOADS = {cls.name: cls
             for cls in (RunZoo, ServeMix, AttackQuick, AnalyzeCorpus)}
