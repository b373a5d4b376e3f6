"""Byte-equality goldens for concrete runs under the full semantics.

``tests/golden/execution_results.json`` fingerprints one
:class:`~repro.semantics.full.ExecutionResult` per (program, model) pair:
every ``examples/**/*.tl`` that parses, infers and type-checks, plus the
five case-study programs of the benchmark's run-zoo, each on all nine
registry hardware models.  A fingerprint holds the final time, the step
count, every assignment event, the mitigate vector, the final memory and
a sha256 of ``environment.full_state()``; a run that raises records the
error instead.  Any change to the interpreter or a hardware model that
moves one cycle, one event or one cache line shows up here.

Regenerate (only when a change is *meant* to move these runs, and say so
in the change description)::

    PYTHONPATH=src python tests/test_execution_golden.py
"""

import glob
import hashlib
import json
import os
import random

REPO_ROOT = os.path.normpath(os.path.join(os.path.dirname(__file__), ".."))
GOLDEN = os.path.join(os.path.dirname(__file__), "golden",
                      "execution_results.json")
#: Array length in example memories; the corpus indexes arrays with
#: small constants and loop counters.
ARRAY_LENGTH = 16
#: Step cap per example run; a run that hits it records the TimeoutError.
MAX_STEPS = 4000


def _compact(doc) -> str:
    return json.dumps(doc, ensure_ascii=False, separators=(",", ":")) + "\n"


def _examples():
    return sorted(
        os.path.relpath(path, REPO_ROOT).replace(os.sep, "/")
        for path in glob.glob(os.path.join(REPO_ROOT, "examples", "**",
                                           "*.tl"), recursive=True)
    )


def _stable_ids(program) -> dict:
    """Auto mitigate ids embed a process-wide node counter; rebase them on
    the program's first node so the document does not depend on what the
    process built before."""
    from repro.lang import ast

    base = min(cmd.node_id for cmd in program.walk() if cmd.labeled())
    return {
        cmd.mit_id: f"m{cmd.node_id - base}"
        for cmd in program.walk()
        if isinstance(cmd, ast.Mitigate) and cmd.mit_id == f"m{cmd.node_id}"
    }


def fingerprint(run, ids) -> dict:
    """Run ``run()`` and reduce its result (or its error) to plain data."""
    from repro.semantics import EvaluationError, SemanticsError

    try:
        result = run()
    except (EvaluationError, SemanticsError, TimeoutError, KeyError) as err:
        return {"error": f"{type(err).__name__}: {err}"}
    state = repr(result.environment.full_state()).encode("utf-8")
    return {
        "time": result.time,
        "steps": result.steps,
        "events": [[e.name, e.index, e.value, e.time]
                   for e in result.events],
        "mitigations": [
            [ids.get(r.mit_id, r.mit_id), r.level.name, r.start_time,
             r.end_time, r.pc_label.name if r.pc_label else None]
            for r in result.mitigations
        ],
        "memory": [[name, list(values)]
                   for name, values in result.memory.snapshot()],
        "environment_sha256": hashlib.sha256(state).hexdigest(),
    }


def _example_memory(program, seed: str) -> dict:
    """Small nonzero values, so loops and branches actually run."""
    from repro.analysis.cost import default_memory

    rng = random.Random(seed)
    memory = {}
    for name, value in sorted(default_memory(program).items()):
        if isinstance(value, list):
            memory[name] = [rng.randrange(ARRAY_LENGTH)
                            for _ in range(ARRAY_LENGTH)]
        else:
            memory[name] = rng.randrange(1, 6)
    return memory


def example_runs(models):
    from repro import api
    from repro.analysis.engine import parse_directives, _parse_gamma_spec
    from repro.lang.parser import DEFAULT_LATTICE
    from repro.lattice import chain
    from repro.typesystem.errors import TypingError

    doc = {}
    for rel in _examples():
        with open(os.path.join(REPO_ROOT, rel), encoding="utf-8") as handle:
            source = handle.read()
        directives = parse_directives(source)
        levels = directives.get("levels")
        lattice = (chain(tuple(n.strip() for n in levels.split(",")))
                   if levels else DEFAULT_LATTICE)
        try:
            gamma = (_parse_gamma_spec(directives["gamma"], lattice)
                     if "gamma" in directives else {})
            compiled = api.compile_program(source, gamma=gamma,
                                           lattice=lattice)
        except (SyntaxError, TypingError, KeyError, ValueError):
            # Lex/parse errors, ill-typed programs, unbound names and bad
            # directives: only programs that type-check run.
            continue
        ids = _stable_ids(compiled.program)
        memory = _example_memory(compiled.program, rel)
        doc[rel] = {
            model: fingerprint(
                lambda: compiled.run(dict(memory), hardware=model,
                                     max_steps=MAX_STEPS), ids)
            for model in models
        }
    return doc


def app_runs(models):
    """The run-zoo case studies, one fixed input each."""
    from repro.apps import (PasswordChecker, RsaSystem, SboxCipher,
                            encrypt_blocks, generate_keypair)
    from repro.hardware import make_hardware
    from repro.semantics.full import execute
    from repro.semantics.mitigation import MitigationState

    rng = random.Random(2012)
    stored = [rng.randrange(256) for _ in range(8)]
    guess = stored[:5] + [(b + 1) % 256 for b in stored[5:]]
    key = [rng.randrange(256) for _ in range(16)]
    plaintext = [rng.randrange(256) for _ in range(16)]
    keypair = generate_keypair(16, seed=7)
    ciphertext = encrypt_blocks([rng.randrange(1, keypair.n)
                                 for _ in range(4)], keypair)
    cases = []
    for mitigated in (True, False):
        word = "mitigated" if mitigated else "unmitigated"
        cases.append((f"password/{word}",
                      PasswordChecker(length=8, mitigated=mitigated),
                      (stored, guess)))
        cases.append((f"sbox/{word}",
                      SboxCipher(length=16, plaintext_length=16,
                                 mitigated=mitigated),
                      (key, plaintext)))
    cases.append(("rsa/language", RsaSystem(key_bits=16, blocks=4),
                  (keypair, ciphertext)))

    doc = {}
    for name, app, inputs in sorted(cases, key=lambda case: case[0]):
        ids = _stable_ids(app.program)
        pc = app.typing.mitigate_pc if app.typing else {}

        def run(app=app, inputs=inputs, model=None, pc=pc):
            return execute(app.program, app.memory(*inputs),
                           make_hardware(model, app.lattice),
                           mitigation=MitigationState(), mitigate_pc=pc)

        doc[name] = {
            model: fingerprint(lambda: run(model=model), ids)
            for model in models
        }
    return doc


def execution_document() -> str:
    from repro.hardware.registry import REGISTRY

    models = REGISTRY.names()
    return _compact({"examples": example_runs(models),
                     "apps": app_runs(models)})


def _read(path: str) -> str:
    with open(path, encoding="utf-8") as handle:
        return handle.read()


def test_execution_results_match_golden():
    assert execution_document() == _read(GOLDEN)


if __name__ == "__main__":
    with open(GOLDEN, "w", encoding="utf-8") as handle:
        handle.write(execution_document())
    print(f"wrote {os.path.relpath(GOLDEN, REPO_ROOT)}")
