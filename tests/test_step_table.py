"""The compiled step table: reuse across runs, staleness, and error timing.

``semantics.full`` compiles a program once per memory shape and reuses
the table on later runs.  Programs are edited in place (label inference
writes labels, policy synthesis rewrites mitigate budgets), so a reused
table must never run an old version of the tree, and compiling ahead of
time must not move any error earlier than the step that causes it.
"""

import pytest

from repro.hardware import NullHardware, PartitionedHardware, tiny_machine
from repro.lang import DEFAULT_LATTICE, ast, parse
from repro.machine import Memory
from repro.machine.layout import Layout
from repro.semantics import EvaluationError, Interpreter, SemanticsError
from repro.semantics.full import execute
from repro.typesystem import SecurityEnvironment, infer_labels

LAT = DEFAULT_LATTICE
L, H = LAT["L"], LAT["H"]

SOURCE = """
mitigate(8, H) {{
    while h > 0 do {{ h := h - 1 [H,H] }} [H,H]
}} [L,L];
x := y + 1 [{label},{label}]
"""


def observed(result):
    """What a run shows, without the parse-dependent mitigate ids."""
    return (
        result.time,
        result.steps,
        result.events,
        [(r.level, r.start_time, r.end_time) for r in result.mitigations],
        result.memory.snapshot(),
        result.environment.full_state(),
    )


def run(program, **values):
    memory = Memory({"h": 3, "x": 0, "y": 4, **values})
    return execute(program, memory, PartitionedHardware(LAT, tiny_machine()))


class TestReuse:
    def test_layout_built_once_per_program_and_shape(self, monkeypatch):
        program = parse(SOURCE.format(label="L"))
        built = []
        original = Layout.build.__func__

        def counting(cls, *args):
            built.append(args)
            return original(cls, *args)

        monkeypatch.setattr(Layout, "build", classmethod(counting))
        first = run(program)
        again = run(program)
        assert len(built) == 1
        assert observed(first) == observed(again)
        run(program, extra=0)  # a new memory shape lays out anew
        assert len(built) == 2

    def test_mutated_budget_and_labels_match_a_fresh_parse(self):
        program = parse(SOURCE.format(label="L"))
        before = run(program)
        mitigate = next(c for c in program.walk()
                        if isinstance(c, ast.Mitigate))
        assign = next(c for c in program.walk()
                      if isinstance(c, ast.Assign) and c.target == "x")
        mitigate.budget = ast.IntLit(400)
        assign.read_label = assign.write_label = H
        after = run(program)
        fresh = run(parse(SOURCE.replace("mitigate(8", "mitigate(400")
                          .format(label="H")))
        assert observed(after) == observed(fresh)
        assert observed(after) != observed(before)

    def test_labels_inferred_in_place_are_picked_up(self):
        program = parse("x := y + 1")
        memory = Memory({"x": 0, "y": 1})
        with pytest.raises(SemanticsError, match="no timing labels"):
            execute(program, memory.copy(), NullHardware(LAT))
        infer_labels(program, SecurityEnvironment(LAT, {"x": L, "y": L}))
        result = execute(program, memory.copy(), NullHardware(LAT))
        assert result.memory.read("x") == 2

    def test_replaced_loop_body_is_recompiled(self):
        program = parse("while i < 3 do { i := i + 1 [L,L] } [L,L]")
        assert run(program, i=0).memory.read("i") == 3
        loop = next(c for c in program.walk() if isinstance(c, ast.While))
        loop.body = parse("i := i + 2 [L,L]")
        assert run(program, i=0).memory.read("i") == 4


class TestErrorTiming:
    def test_unlabeled_command_in_untaken_branch_runs(self):
        program = parse("if c then { skip } else { y := 1 [L,L] } [L,L]")
        result = execute(program, Memory({"c": 0, "y": 0}), NullHardware(LAT))
        assert result.memory.read("y") == 1

    def test_unlabeled_command_raises_at_its_step(self):
        program = parse("y := 5 [L,L]; "
                        "if c then { skip } else { y := 1 [L,L] } [L,L]")
        interp = Interpreter(program, Memory({"c": 1, "y": 0}),
                             NullHardware(LAT))
        with pytest.raises(SemanticsError, match="no timing labels"):
            interp.run()
        # The assignment and the guard ran; the unlabeled skip did not.
        assert interp.steps == 2
        assert [e.name for e in interp.events] == ["y"]

    def test_out_of_bounds_store_raises_before_the_label_error(self):
        program = parse("a[5] := 1")
        with pytest.raises(EvaluationError, match="out of bounds"):
            execute(program, Memory({"a": [0]}), NullHardware(LAT))

    def test_out_of_bounds_read_raises_before_the_label_error(self):
        program = parse("x := a[i]")
        with pytest.raises(EvaluationError, match="array read a\\[7\\]"):
            execute(program, Memory({"a": [0], "i": 7, "x": 0}),
                    NullHardware(LAT))
