"""The full (timed) semantics: configurations ``(c, m, E, G)``.

This interpreter executes programs over a concrete
:class:`~repro.hardware.interface.MachineEnvironment`, producing final
memory, final environment, elapsed global time, the observable assignment
events, and the mitigate vector.  It is one particular "full semantics" in
the paper's sense -- the paper deliberately axiomatizes the class of
acceptable full semantics (Properties 1-7) rather than fixing one; the
checkers in :mod:`repro.semantics.faithfulness` and
:mod:`repro.hardware.contract` validate that this interpreter over each
secure hardware model inhabits that class.

How a step is charged
---------------------

Every labeled command executes in one evaluation step (matching Fig. 2's
granularity).  The step's :class:`~repro.machine.layout.AccessTrace` --
the command's instruction address plus the data addresses of exactly the
``vars1`` reads and the written location -- goes to the hardware through
:meth:`MachineEnvironment.step` together with the command's read/write
labels.  The hardware returns the step's cost and updates itself.  That
call is the only way a step reaches the hardware.

Everything about a step that does not depend on values is worked out once
per program and memory shape, into a flat *step table* with one record per
labeled command: its labels, its instruction address, its expressions
compiled by :func:`~repro.semantics.core.compile_expr` (shared with the
core semantics), and its trace.  When a command reads no array element,
its trace is fixed, so the record holds it prebuilt (a branch holds one
per outcome).  Sequential composition becomes each record's successor
index: ``c1; c2`` is ``c1`` whose last step continues at ``c2``, and a
loop body continues at its guard.  The run is then a loop over records.
A ``mitigate`` pushes a frame on a stack, and the record that closes the
block (Fig. 6's ``update`` and padding ``sleep``, fused into one step)
pops it.  Step tables are cached per program object and reused across
runs for as long as no node of the program changes (label inference and
policy synthesis edit trees in place).

Two constructs bypass the hardware:

* ``sleep e`` takes exactly ``max(e, 0)`` cycles (Property 4 demands
  equality, so no fetch or data cost may be added);
* mitigation bookkeeping (the Fig. 6 auxiliary commands, labeled [bot, top]
  in the paper) is charged as pure padding: the exit step costs exactly the
  padding needed to stretch the block to its prediction.

Sequential composition adds no cost of its own (Property 3).

Errors surface at the step that causes them, in the order a step does its
work: evaluating the expressions (out-of-bounds indices, undeclared
names), then the labels (a command without them raises
:class:`SemanticsError` only when it runs), then the addresses.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

from ..lang import ast
from ..lattice import Label
from ..machine.layout import AccessTrace, DataAccess, Layout
from ..machine.memory import Memory, undeclared_scalar
from ..hardware.interface import MachineEnvironment, StepKind
from ..telemetry.profiling import Profiler, hardware_subsystem
from ..telemetry.recorder import NULL_RECORDER, TraceRecorder
from .core import EvaluationError, compile_expr, reads_elements
from .events import Event, MitigationRecord
from .mitigation import MitigationState


class SemanticsError(RuntimeError):
    """Raised when a program cannot be executed under the full semantics
    (e.g. a command is missing its timing labels)."""


@dataclass
class _MitFrame:
    """Runtime record of an in-progress mitigate command."""

    mit_id: str
    level: Label
    estimate: int
    start_time: int
    pc_label: Optional[Label]


# Step-table opcodes.  ``if`` and ``while`` are both a branch: a guard step
# that continues at ``taken`` or ``skipped``.
_ASSIGN, _STORE, _BRANCH, _SKIP, _MITIGATE, _EXIT, _SLEEP, _BAD = range(8)

#: Successor index meaning "the program has finished".
_DONE = -1


class _Step:
    """One record of the step table: a labeled command, compiled."""

    __slots__ = ("op", "kind", "read_label", "write_label", "instruction",
                 "value", "index", "name", "element", "writes",
                 "trace", "untaken_trace", "fault", "next", "taken",
                 "skipped", "level")

    def __init__(self, op: int, kind: Optional[StepKind] = None):
        self.op = op
        self.kind = kind
        self.read_label = self.write_label = None
        self.instruction = 0
        #: The command's expression (assigned value, guard, budget, sleep
        #: duration) and, for array stores, its index expression.
        self.value = self.index = None
        #: Assigned name (array name for stores); mitigate id for mitigates.
        self.name: Optional[str] = None
        #: Array stores: index -> written address.
        self.element: Optional[Callable[[int], int]] = None
        self.writes: Tuple[int, ...] = ()
        #: Prebuilt traces (taken/untaken for branches); None when the
        #: trace depends on values or the step faults.
        self.trace: Optional[AccessTrace] = None
        self.untaken_trace: Optional[AccessTrace] = None
        #: The error the step raises once its expressions are evaluated.
        self.fault: Optional[Exception] = None
        #: Successor indices: ``next`` after the step, ``taken``/``skipped``
        #: after a branch guard, ``taken`` into a mitigate body.
        self.next = self.taken = self.skipped = _DONE
        #: Mitigation level of a mitigate.
        self.level: Optional[Label] = None

    def fail(self) -> None:
        """Raise the step's fault."""
        raise _fresh(self.fault)

    def dynamic_trace(self, out: list, taken: Optional[bool] = None,
                      writes: Optional[Tuple[int, ...]] = None) -> AccessTrace:
        """The trace of a step whose reads were collected in ``out``."""
        if self.fault is not None:
            self.fail()
        return AccessTrace(self.instruction, tuple(out),
                           self.writes if writes is None else writes, taken)


class _StepProgram:
    """A labeled program compiled to a step table for one memory shape
    and layout.  See the module docstring."""

    def __init__(self, program: ast.Command, memory: Memory,
                 layout: Optional[Layout]):
        self.layout = (layout if layout is not None
                       else Layout.build(program, memory))
        compiler = _Compiler(memory, self.layout)
        self.entry = compiler.emit(program, _DONE)
        self.steps: List[_Step] = compiler.steps
        # Every node's attributes, live and as compiled: a table is reused
        # only while the two still agree.
        self._live = [vars(node) for node in _nodes(program)]
        self._seen = [dict(attrs) for attrs in self._live]

    def unchanged(self) -> bool:
        """Is every node of the program as it was when compiled?"""
        return all(map(dict.__eq__, self._live, self._seen))


class _Compiler:
    """Builds a step table, one record per labeled command."""

    def __init__(self, memory: Memory, layout: Layout):
        self.memory = memory
        self.layout = layout
        self.steps: List[_Step] = []

    def emit(self, cmd: Optional[ast.Command], successor: int) -> int:
        """Compile ``cmd`` to continue at ``successor``; returns its entry."""
        parts = []
        pending = [cmd]
        while pending:
            part = pending.pop()
            if isinstance(part, ast.Seq):
                pending += (part.second, part.first)
            elif part is not None:
                parts.append(part)
        for part in reversed(parts):
            successor = self._emit_one(part, successor)
        return successor

    def _emit_one(self, cmd: ast.Command, successor: int) -> int:
        if isinstance(cmd, ast.Assign):
            step = self._labeled(cmd, _ASSIGN, StepKind.ASSIGN, cmd.expr,
                                 target=cmd.target)
        elif isinstance(cmd, ast.ArrayAssign):
            step = self._labeled(cmd, _STORE, StepKind.ASSIGN, cmd.expr,
                                 index=cmd.index, target=cmd.array)
        elif isinstance(cmd, (ast.If, ast.While)):
            step = self._labeled(cmd, _BRANCH, StepKind.BRANCH, cmd.cond)
        elif isinstance(cmd, ast.Skip):
            step = self._labeled(cmd, _SKIP, StepKind.SKIP)
        elif isinstance(cmd, ast.Mitigate):
            step = self._labeled(cmd, _MITIGATE, StepKind.MITIGATE,
                                 cmd.budget)
            step.name, step.level = cmd.mit_id, cmd.level
        elif isinstance(cmd, ast.Sleep):
            step = _Step(_SLEEP)
            step.value, _ = compile_expr(cmd.duration, self.memory)
            if cmd.read_label is None or cmd.write_label is None:
                step.fault = _unlabeled(cmd)
        else:
            step = _Step(_BAD)
            step.fault = TypeError(f"not a command: {cmd!r}")
        pc = len(self.steps)
        self.steps.append(step)
        step.next = successor
        if isinstance(cmd, ast.If):
            step.taken = self.emit(cmd.then_branch, successor)
            step.skipped = self.emit(cmd.else_branch, successor)
        elif isinstance(cmd, ast.While):
            step.taken = self.emit(cmd.body, pc)
            step.skipped = successor
        elif isinstance(cmd, ast.Mitigate):
            close = _Step(_EXIT)
            close.next = successor
            self.steps.append(close)
            step.taken = self.emit(cmd.body, len(self.steps) - 1)
        return pc

    def _labeled(self, cmd: ast.LabeledCommand, op: int, kind: StepKind,
                 expr: Optional[ast.Expr] = None,
                 index: Optional[ast.Expr] = None,
                 target: Optional[str] = None) -> _Step:
        """A step that goes to the hardware.  Faults are collected in the
        order the step would meet them: labels, then instruction, read and
        write addresses."""
        step = _Step(op, kind)
        step.read_label, step.write_label = cmd.read_label, cmd.write_label
        faults: List[Exception] = []
        if cmd.read_label is None or cmd.write_label is None:
            faults.append(_unlabeled(cmd))
        layout = self.layout
        try:
            step.instruction = layout.instruction_address(cmd.node_id)
        except KeyError as err:
            faults.append(_fresh(err))

        def scalar_site(name: str) -> Optional[int]:
            try:
                return layout.data_address(DataAccess(name))
            except KeyError as err:
                faults.append(_fresh(err))
                return None

        def element_site(name: str) -> Callable[[int], Optional[int]]:
            try:
                return layout.element_address(name)
            except KeyError as err:
                faults.append(_fresh(err))
                return lambda i: None

        # An array store's write address depends on its index, so its
        # trace is always built per step; so is any step reading an element.
        traced = op == _STORE or any(
            reads_elements(e) for e in (index, expr) if e is not None)
        reads: Optional[tuple] = None if traced else ()
        if index is not None:
            step.index, _ = compile_expr(index, self.memory, scalar_site,
                                         element_site, traced=True)
        if expr is not None:
            step.value, expr_reads = compile_expr(
                expr, self.memory, scalar_site, element_site, traced=traced)
            if not traced:
                reads = expr_reads
        if target is not None:
            step.name = target
            if op == _STORE:
                step.element = element_site(target)
            else:
                step.writes = (scalar_site(target),)
                if not self.memory.is_scalar(target):
                    # The store itself would fail; fail before charging.
                    faults.append(undeclared_scalar(target))
        if faults:
            step.fault = faults[0]
        elif reads is not None:
            taken = True if op == _BRANCH else None
            step.trace = AccessTrace(step.instruction, reads, step.writes,
                                     taken)
            if op == _BRANCH:
                step.untaken_trace = AccessTrace(step.instruction, reads,
                                                 (), False)
        return step


def _fresh(err: Exception) -> Exception:
    """A copy of ``err`` with no traceback or context.  Cached tables keep
    only these: a traceback holds frames, and through them whole runs and
    programs."""
    return type(err)(*err.args)


def _unlabeled(cmd: ast.LabeledCommand) -> SemanticsError:
    return SemanticsError(
        f"command {type(cmd).__name__} (node {cmd.node_id}) has no "
        "timing labels; annotate it or run label inference first"
    )


def _nodes(program: ast.Command):
    """Every command and expression node, each once."""
    seen = set()
    pending: List[Any] = [program]
    while pending:
        node = pending.pop()
        if id(node) in seen or not hasattr(node, "__dict__"):
            continue
        seen.add(id(node))
        yield node
        for value in vars(node).values():
            if isinstance(value, (ast.Command, ast.Expr)):
                pending.append(value)


#: Step tables per program object, then per (memory shape, layout).
_TABLES: "weakref.WeakKeyDictionary[ast.Command, Dict]" = (
    weakref.WeakKeyDictionary())
#: Tables kept per program (one per memory shape or explicit layout).
_TABLES_PER_PROGRAM = 8


def _step_program(program: ast.Command, memory: Memory,
                  layout: Optional[Layout]) -> _StepProgram:
    """The cached step table for this run, compiled if absent or stale."""
    # A table built for an explicit layout keeps that layout alive, so its
    # id cannot be reused by another layout while the entry exists.
    key = (memory.shape(), None if layout is None else id(layout))
    tables = _TABLES.get(program)
    if tables is None:
        tables = _TABLES[program] = {}
    table = tables.get(key)
    if table is None or not table.unchanged():
        table = _StepProgram(program, memory, layout)
        tables.pop(key, None)
        if len(tables) >= _TABLES_PER_PROGRAM:
            del tables[next(iter(tables))]
        tables[key] = table
    return table


@dataclass
class ExecutionResult:
    """Everything one run produces."""

    memory: Memory
    environment: MachineEnvironment
    time: int
    events: Tuple[Event, ...]
    mitigations: Tuple[MitigationRecord, ...]
    steps: int

    def final_time(self) -> int:
        """The final global clock ``G`` (alias of ``time``)."""
        return self.time


@dataclass
class Interpreter:
    """Executes one program under the full semantics.

    Parameters
    ----------
    program:
        A fully label-annotated command (run label inference first if the
        source used ``_`` placeholders).
    memory, environment:
        The initial ``m`` and ``E``; both are mutated in place.
    layout:
        Address layout; built automatically from the program and memory
        when omitted.
    mitigation:
        Predictor state (scheme + penalty policy); fresh fast-doubling/local
        state when omitted.
    mitigate_pc:
        Optional map from mitigate id to its static ``pc`` label, as
        computed by the type checker; attached to mitigation records so the
        Sec. 6.3 projections can run.
    """

    program: ast.Command
    memory: Memory
    environment: MachineEnvironment
    layout: Optional[Layout] = None
    mitigation: Optional[MitigationState] = None
    mitigate_pc: Mapping[str, Label] = field(default_factory=dict)
    max_steps: int = 10_000_000
    recorder: Optional[TraceRecorder] = None
    profiler: Optional[Profiler] = None

    def __post_init__(self) -> None:
        self._table = _step_program(self.program, self.memory, self.layout)
        self.layout = self._table.layout
        if self.mitigation is None:
            self.mitigation = MitigationState()
        if self.recorder is None:
            self.recorder = NULL_RECORDER
        if self.recorder.active:
            # Thread the recorder through every layer that advances or
            # explains the clock: hardware (hit/miss classification) and
            # the mitigation runtime (Miss[l] transitions).
            self.environment.attach_recorder(self.recorder)
            self.mitigation.recorder = self.recorder
        if self.profiler is not None and not self.profiler.active:
            self.profiler = None
        if self.profiler is not None:
            self._hw_subsystem = hardware_subsystem(self.environment)
        self.time = 0
        self.steps = 0
        self.events: List[Event] = []
        self.records: List[MitigationRecord] = []

    # -- per-run bindings ------------------------------------------------------

    def _bindings(self) -> Tuple[Callable[..., int], Callable[..., int],
                                 Optional[Callable[[int, int], None]]]:
        """``(charge, settle, slept)`` for this run: the environment's
        ``step``, the runtime's ``settle``, and what observes a ``sleep``
        (None when nothing does).  A profiler wraps the first two to time
        themselves, so the step loop carries no profiling code at all."""
        step = self.environment.step
        settle = self.mitigation.settle
        recorder = self.recorder if self.recorder.active else None
        profiler = self.profiler
        if profiler is None:
            return step, settle, (recorder.on_sleep if recorder is not None
                                   else None)
        clock = profiler.clock
        subsystem = self._hw_subsystem

        def timed_step(kind, trace, read_label, write_label) -> int:
            started = clock()
            cost = step(kind, trace, read_label, write_label)
            profiler.add_wall(subsystem, clock() - started)
            profiler.add_cycles(subsystem, cost, calls=1)
            return cost

        def timed_settle(estimate, level, elapsed) -> int:
            started = clock()
            total = settle(estimate, level, elapsed)
            profiler.add_wall("mitigation.schedule", clock() - started,
                              calls=1)
            profiler.add_cycles("mitigation.padding", total - elapsed,
                                calls=1)
            return total

        def slept(duration: int, time: int) -> None:
            profiler.add_cycles("interpreter.sleep", duration, calls=1)
            if recorder is not None:
                recorder.on_sleep(duration, time)

        return timed_step, timed_settle, slept

    # -- stepping ----------------------------------------------------------------

    def _execute(self) -> None:
        """Run the step table to completion."""
        table = self._table.steps
        scalars, arrays = self.memory.stores()
        array_length = self.memory.array_length
        charge, settle, slept = self._bindings()
        mitigation = self.mitigation
        mitigate_pc = self.mitigate_pc
        recorder = self.recorder
        recording = recorder.active
        events = self.events
        frames: List[_MitFrame] = []
        max_steps = self.max_steps
        time = self.time
        steps = self.steps
        pc = self._table.entry
        try:
            while pc != _DONE:
                if steps >= max_steps:
                    raise TimeoutError(
                        f"program did not terminate within {max_steps} "
                        "steps"
                    )
                step = table[pc]
                op = step.op
                if op == _ASSIGN:
                    trace = step.trace
                    if trace is None:
                        out: list = []
                        value = step.value(scalars, arrays, out)
                        trace = step.dynamic_trace(out)
                    else:
                        value = step.value(scalars, arrays, None)
                    cost = charge(step.kind, trace, step.read_label,
                                  step.write_label)
                    time += cost
                    if recording:
                        recorder.on_step(step.kind, cost, time)
                    scalars[step.name] = int(value)
                    events.append(Event(step.name, value, time))
                    pc = step.next
                elif op == _BRANCH:
                    trace = step.trace
                    if trace is None:
                        out = []
                        guard = step.value(scalars, arrays, out)
                        trace = step.dynamic_trace(out, guard != 0)
                    else:
                        guard = step.value(scalars, arrays, None)
                        if guard == 0:
                            trace = step.untaken_trace
                    cost = charge(step.kind, trace, step.read_label,
                                  step.write_label)
                    time += cost
                    if recording:
                        recorder.on_step(step.kind, cost, time)
                    pc = step.taken if guard != 0 else step.skipped
                elif op == _STORE:
                    out = []
                    index = step.index(scalars, arrays, out)
                    value = step.value(scalars, arrays, out)
                    name = step.name
                    if not 0 <= index < array_length(name):
                        raise EvaluationError(
                            f"array write {name}[{index}] out of bounds "
                            f"(length {array_length(name)})"
                        )
                    trace = step.dynamic_trace(
                        out, writes=(step.element(index),))
                    cost = charge(step.kind, trace, step.read_label,
                                  step.write_label)
                    time += cost
                    if recording:
                        recorder.on_step(step.kind, cost, time)
                    arrays[name][index] = int(value)
                    events.append(Event(name, value, time, index=index))
                    pc = step.next
                elif op == _SKIP:
                    trace = step.trace
                    if trace is None:
                        trace = step.dynamic_trace([])
                    cost = charge(step.kind, trace, step.read_label,
                                  step.write_label)
                    time += cost
                    if recording:
                        recorder.on_step(step.kind, cost, time)
                    pc = step.next
                elif op == _MITIGATE:
                    trace = step.trace
                    if trace is None:
                        out = []
                        estimate = step.value(scalars, arrays, out)
                        trace = step.dynamic_trace(out)
                    else:
                        estimate = step.value(scalars, arrays, None)
                    cost = charge(step.kind, trace, step.read_label,
                                  step.write_label)
                    time += cost
                    if recording:
                        recorder.on_step(step.kind, cost, time)
                        # Span boundary: the epoch opens once the head is
                        # charged, carrying the runtime's current
                        # prediction for it.
                        recorder.on_mitigate_enter(
                            step.name, step.level, estimate,
                            mitigation.predict(estimate, step.level), time,
                        )
                    frames.append(_MitFrame(
                        mit_id=step.name,
                        level=step.level,
                        estimate=estimate,
                        start_time=time,
                        pc_label=mitigate_pc.get(step.name),
                    ))
                    pc = step.taken
                elif op == _EXIT:
                    frame = frames.pop()
                    elapsed = time - frame.start_time
                    total = settle(frame.estimate, frame.level, elapsed)
                    # Pad the block to exactly its (possibly just-inflated)
                    # prediction.
                    time = frame.start_time + total
                    self.records.append(MitigationRecord(
                        mit_id=frame.mit_id,
                        level=frame.level,
                        start_time=frame.start_time,
                        end_time=time,
                        pc_label=frame.pc_label,
                    ))
                    if recording:
                        recorder.on_mitigation(
                            mit_id=frame.mit_id,
                            level=frame.level,
                            estimate=frame.estimate,
                            elapsed=elapsed,
                            padded=total,
                            misses=mitigation.misses(frame.level),
                            pc_label=frame.pc_label,
                            end_time=time,
                        )
                    pc = step.next
                elif op == _SLEEP:
                    # Property 4: exactly max(n, 0) cycles, nothing else.
                    duration = max(step.value(scalars, arrays, []), 0)
                    if step.fault is not None:
                        step.fail()
                    time += duration
                    if slept is not None:
                        slept(duration, time)
                    pc = step.next
                else:
                    step.fail()
                steps += 1
        finally:
            self.time = time
            self.steps = steps

    # -- driving --------------------------------------------------------------------

    def run(self) -> ExecutionResult:
        """Run to completion (or raise ``TimeoutError`` after ``max_steps``)."""
        if self.recorder.active:
            # Span boundary: the run timeline opens at global clock 0.
            self.recorder.on_run_start({
                "hardware": type(self.environment).__name__,
                "mitigation": self.mitigation.describe(),
            })
        profiler = self.profiler
        if profiler is not None:
            nested_before = (
                profiler.wall_ns.get(self._hw_subsystem, 0)
                + profiler.wall_ns.get("mitigation.schedule", 0)
            )
            run_started = profiler.clock()
        self._execute()
        if profiler is not None:
            # Dispatch = the run loop's own wall-time, i.e. everything
            # that is not the nested hardware/mitigation sections.  It
            # gets zero cycles: dispatch never advances the clock, so
            # the cycle counters still partition the final time.
            run_wall = profiler.clock() - run_started
            nested = (
                profiler.wall_ns.get(self._hw_subsystem, 0)
                + profiler.wall_ns.get("mitigation.schedule", 0)
                - nested_before
            )
            profiler.add_wall("interpreter.dispatch",
                              max(run_wall - nested, 0), calls=self.steps)
        # Mitigate vectors are ordered by completion time; records are
        # appended at completion so they already are, but make it explicit.
        self.records.sort(key=lambda r: r.end_time)
        result = ExecutionResult(
            memory=self.memory,
            environment=self.environment,
            time=self.time,
            events=tuple(self.events),
            mitigations=tuple(self.records),
            steps=self.steps,
        )
        if self.recorder.active:
            self.recorder.on_finish(result)
        return result


def execute(
    program: ast.Command,
    memory: Memory,
    environment: MachineEnvironment,
    layout: Optional[Layout] = None,
    mitigation: Optional[MitigationState] = None,
    mitigate_pc: Mapping[str, Label] = None,
    max_steps: int = 10_000_000,
    recorder: Optional[TraceRecorder] = None,
    profiler: Optional[Profiler] = None,
) -> ExecutionResult:
    """Run ``program`` from ``(memory, environment, G=0)`` to completion.

    ``memory`` and ``environment`` are mutated; pass copies to keep the
    originals.  ``recorder`` observes the run (see
    :mod:`repro.telemetry`); the default null recorder records nothing and
    costs nothing.  ``profiler`` attributes cycles and wall-time to
    subsystems (see :mod:`repro.telemetry.profiling`); inactive or absent
    profilers cost one pointer check per step.  See :class:`Interpreter`
    for the other parameters.
    """
    interp = Interpreter(
        program=program,
        memory=memory,
        environment=environment,
        layout=layout,
        mitigation=mitigation,
        mitigate_pc=dict(mitigate_pc or {}),
        max_steps=max_steps,
        recorder=recorder,
        profiler=profiler,
    )
    return interp.run()
