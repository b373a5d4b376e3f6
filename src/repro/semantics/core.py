"""Core semantics (Fig. 2): untimed small-step execution.

The core semantics ignores timing entirely: ``mitigate (e, l) c`` evaluates
to ``c`` and ``sleep`` behaves like ``skip``.  Its purpose in the paper is to
pin down *what the program computes*, against which the full semantics must
be adequate (Property 1).  Both semantics evaluate expressions with this
module's :func:`compile_expr`, so they agree on every value by
construction -- and the tests check adequacy anyway by running both and
comparing.

Expression evaluation is total and deterministic:

* division and modulus by zero yield 0 (raising would itself be a channel);
* division truncates toward zero, and ``%`` satisfies
  ``a == (a/b)*b + a%b`` (C semantics, matching the case studies);
* shifts by negative amounts yield the left operand unchanged;
* comparisons and boolean operators yield 0/1, with any nonzero operand
  counting as true (the paper's ``n <> 0`` convention).

Array index errors (the one partiality the array extension introduces) raise
:class:`EvaluationError`.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional, Tuple

from ..lang import ast
from ..machine.layout import DataAccess
from ..machine.memory import Memory, undeclared_array, undeclared_scalar


class EvaluationError(RuntimeError):
    """Raised on an out-of-bounds array access."""


#: Syntactic marker for a finished computation.  Distinct from ``skip``,
#: which is a real command that consumes time (Sec. 3.1); ``STOP`` is pure
#: syntax and takes no time at all.
STOP = None
Continuation = Optional[ast.Command]


def _truncdiv(a: int, b: int) -> int:
    if b == 0:
        return 0
    q = abs(a) // abs(b)
    return q if (a >= 0) == (b >= 0) else -q


def _truncmod(a: int, b: int) -> int:
    if b == 0:
        return 0
    return a - _truncdiv(a, b) * b


def _shl(a: int, b: int) -> int:
    return a << b if b >= 0 else a


def _shr(a: int, b: int) -> int:
    return a >> b if b >= 0 else a


#: Binary operators whose result is already an int.
_ARITHMETIC: Dict[str, Callable[[int, int], int]] = {
    "+": operator.add, "-": operator.sub, "*": operator.mul,
    "/": _truncdiv, "%": _truncmod,
    "&": operator.and_, "|": operator.or_, "^": operator.xor,
    "<<": _shl, ">>": _shr,
}
#: Binary operators whose truth value becomes 0/1.
_TRUTH: Dict[str, Callable[[int, int], bool]] = {
    "==": operator.eq, "!=": operator.ne,
    "<": operator.lt, "<=": operator.le,
    ">": operator.gt, ">=": operator.ge,
    "&&": lambda a, b: a != 0 and b != 0,
    "||": lambda a, b: a != 0 or b != 0,
}


def _unknown_operator(op: str) -> Callable[[int, int], bool]:
    def apply(a: int, b: int) -> bool:
        raise ValueError(f"unknown operator {op!r}")
    return apply


def _apply(op: str, a: int, b: int) -> int:
    """One binary operator on two values (constant folding uses it too)."""
    fn = _ARITHMETIC.get(op)
    if fn is not None:
        return fn(a, b)
    return 1 if (_TRUTH.get(op) or _unknown_operator(op))(a, b) else 0


#: ``evaluate(scalars, arrays, out) -> value`` over :meth:`Memory.stores`.
Evaluator = Callable[[Dict[str, int], Dict[str, list], Optional[list]], int]


def _element_access(name: str) -> Callable[[int], DataAccess]:
    return lambda index: DataAccess(name, index)


def compile_expr(
    expr: ast.Expr,
    memory: Memory,
    scalar_site: Callable[[str], Any] = DataAccess,
    element_site: Callable[[str], Callable[[int], Any]] = _element_access,
    traced: Optional[bool] = None,
) -> Tuple[Evaluator, Optional[Tuple[Any, ...]]]:
    """Compile ``expr`` for every memory shaped like ``memory``.

    Returns ``(evaluate, reads)``.  ``evaluate(scalars, arrays, out)``
    takes the dictionaries of :meth:`Memory.stores` and returns the value;
    evaluation does no dispatch on node types.  The accesses it performs
    are reported as *sites*: ``scalar_site(name)`` for a scalar read and
    ``element_site(name)(index)`` for an array-element read (by default
    :class:`DataAccess` records; the full semantics passes addresses).
    When ``expr`` reads no array element, its accesses do not depend on
    values: ``reads`` is their tuple and ``out`` is ignored.  Otherwise
    (or when ``traced`` is true) ``reads`` is None and ``evaluate``
    appends every site to the list ``out``.  Either way the sites are in
    evaluation order, one per scalar read and per array-element read.

    Site functions are called at compile time, in evaluation order.  Reads
    of undeclared names and out-of-bounds indices raise when evaluated,
    in evaluation order, exactly as the checked :class:`Memory` accessors
    would.
    """
    dynamic = reads_elements(expr) if traced is None else traced
    reads: list = []

    def build(e: ast.Expr) -> Evaluator:
        if isinstance(e, ast.IntLit):
            value = e.value
            return lambda s, a, out: value
        if isinstance(e, ast.Var):
            name = e.name
            if not memory.is_scalar(name):
                def undeclared_var(s, a, out):
                    raise undeclared_scalar(name)
                return undeclared_var
            site = scalar_site(name)
            if not dynamic:
                reads.append(site)
                return lambda s, a, out: s[name]

            def traced_var(s, a, out):
                out.append(site)
                return s[name]
            return traced_var
        if isinstance(e, ast.ArrayRead):
            index = build(e.index)
            name = e.array
            if not memory.is_array(name):
                def undeclared_read(s, a, out):
                    index(s, a, out)
                    raise undeclared_array(name)
                return undeclared_read
            element = element_site(name)

            def array_read(s, a, out):
                i = index(s, a, out)
                values = a[name]
                if not 0 <= i < len(values):
                    raise EvaluationError(
                        f"array read {name}[{i}] out of bounds "
                        f"(length {len(values)})"
                    )
                out.append(element(i))
                return values[i]
            return array_read
        if isinstance(e, ast.UnOp):
            operand = build(e.operand)
            if e.op == "-":
                return lambda s, a, out: -operand(s, a, out)
            return lambda s, a, out: 1 if operand(s, a, out) == 0 else 0
        if isinstance(e, ast.BinOp):
            left = build(e.left)
            right = build(e.right)
            fn = _ARITHMETIC.get(e.op)
            if fn is not None:
                return lambda s, a, out: fn(left(s, a, out),
                                            right(s, a, out))
            test = _TRUTH.get(e.op) or _unknown_operator(e.op)
            return lambda s, a, out: (
                1 if test(left(s, a, out), right(s, a, out)) else 0)
        message = f"not an expression: {e!r}"

        def bad(s, a, out):
            raise TypeError(message)
        return bad

    evaluate = build(expr)
    return evaluate, (None if dynamic else tuple(reads))


def reads_elements(expr: ast.Expr) -> bool:
    """Does ``expr`` read an array element?  Then which locations it
    reads depends on values."""
    stack = [expr]
    while stack:
        node = stack.pop()
        if isinstance(node, ast.ArrayRead):
            return True
        if isinstance(node, ast.Expr):
            stack.extend(node.children())
    return False


def eval_expr(expr: ast.Expr, memory: Memory) -> int:
    """Big-step expression evaluation ``(e, m) => v``."""
    value, _ = eval_expr_traced(expr, memory)
    return value


def eval_expr_traced(
    expr: ast.Expr, memory: Memory
) -> Tuple[int, Tuple[DataAccess, ...]]:
    """Evaluate ``expr``, also returning the data accesses it performs.

    The access list is what the full semantics hands to the hardware model;
    it contains one entry per scalar read and per array-element read, in
    evaluation order.  Short-circuiting would make the *set* of accesses
    value-dependent, so ``&&``/``||`` evaluate both operands -- the paper's
    single-step timing model charges a whole expression at once.  This is
    :func:`compile_expr` run once; the full semantics keeps the compiled
    form instead.
    """
    evaluate, reads = compile_expr(expr, memory)
    scalars, arrays = memory.stores()
    if reads is not None:
        return evaluate(scalars, arrays, None), reads
    out: list = []
    value = evaluate(scalars, arrays, out)
    return value, tuple(out)


@dataclass(frozen=True)
class CoreStep:
    """One core-semantics transition: the executed labeled command (if the
    step came from one -- sequencing steps are driven by their first
    component) and the resulting continuation."""

    executed: Optional[ast.LabeledCommand]
    continuation: Continuation
    assigned: Optional[Tuple[str, int]] = None


def core_step(cmd: ast.Command, memory: Memory) -> CoreStep:
    """One transition of Fig. 2.  Mutates ``memory`` for assignments.

    Returns the new continuation (``STOP`` when the command finished) and
    identifies which labeled command fired, which the full semantics uses to
    attach labels, addresses, and costs.
    """
    if isinstance(cmd, ast.Skip):
        return CoreStep(cmd, STOP)
    if isinstance(cmd, ast.Sleep):
        # Untimed: behaves like skip (the duration still gets evaluated by
        # the full semantics for its accesses and for Property 4).
        return CoreStep(cmd, STOP)
    if isinstance(cmd, ast.Assign):
        value = eval_expr(cmd.expr, memory)
        memory.write(cmd.target, value)
        return CoreStep(cmd, STOP, assigned=(cmd.target, value))
    if isinstance(cmd, ast.ArrayAssign):
        index = eval_expr(cmd.index, memory)
        value = eval_expr(cmd.expr, memory)
        if not 0 <= index < memory.array_length(cmd.array):
            raise EvaluationError(
                f"array write {cmd.array}[{index}] out of bounds "
                f"(length {memory.array_length(cmd.array)})"
            )
        memory.write_elem(cmd.array, index, value)
        return CoreStep(cmd, STOP, assigned=(cmd.array, value))
    if isinstance(cmd, ast.If):
        branch = (
            cmd.then_branch
            if eval_expr(cmd.cond, memory) != 0
            else cmd.else_branch
        )
        return CoreStep(cmd, branch)
    if isinstance(cmd, ast.While):
        if eval_expr(cmd.cond, memory) != 0:
            return CoreStep(cmd, ast.Seq(first=cmd.body, second=cmd))
        return CoreStep(cmd, STOP)
    if isinstance(cmd, ast.Mitigate):
        # Core semantics: identity -- mitigate (e, l) c steps to c.
        return CoreStep(cmd, cmd.body)
    if isinstance(cmd, ast.Seq):
        inner = core_step(cmd.first, memory)
        if inner.continuation is STOP:
            return CoreStep(inner.executed, cmd.second, inner.assigned)
        return CoreStep(
            inner.executed,
            ast.Seq(first=inner.continuation, second=cmd.second),
            inner.assigned,
        )
    raise TypeError(f"not a command: {cmd!r}")


def run_core(
    program: ast.Command, memory: Memory, max_steps: int = 1_000_000
) -> Memory:
    """Run a program to completion under the core semantics.

    Mutates and returns ``memory``.  Raises :class:`TimeoutError` after
    ``max_steps`` transitions (the language has nonterminating programs).
    """
    current: Continuation = program
    for _ in range(max_steps):
        if current is STOP:
            return memory
        current = core_step(current, memory).continuation
    if current is STOP:
        return memory
    raise TimeoutError(f"program did not terminate within {max_steps} steps")
