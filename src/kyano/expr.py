"""Parsing and exact differentiation of coordinate expressions.

Grammar (EBNF, whitespace ignored between tokens):

    expr    = term , { ("+" | "-") , term } ;
    term    = unary , { ("*" | "/") , unary } ;
    unary   = "-" , unary | power ;
    power   = atom , [ "^" , unary ] ;
    atom    = number | variable | name , "(" , expr , ")" | "(" , expr , ")" ;

``^`` is right-associative and binds tighter than unary minus, so ``-x1^2``
is ``-(x1^2)`` and ``2^-1`` is accepted.  Parentheses, unary minuses, function
calls and exponents nest at most ``MAX_NESTING`` deep; a deeper one is a syntax
error at its offset.  Function names are exactly
``sin cos tan sqrt exp ln abs``.  Numbers are decimal, in ASCII digits only,
with an optional fractional part and exponent; there is no hex form and no
implicit multiplication.  Variables are a letter prefix followed by a 1-based index
(``x1 .. x<dim>``); phase-space expressions additionally admit a second
prefix (``p1 .. p<dim>``).

Exponents that are literal integers (including ``^-2`` and ``^2.0``) are
evaluated by repeated multiplication, which keeps them differentiable at
non-positive bases; any other exponent goes through ``exp(k*ln(b))`` and
requires a positive base.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import math
import operator
import re
from dataclasses import dataclass, field
from typing import Callable, Sequence, Union

import numpy as np

from . import dual
from .dual import Jet
from .errors import DomainError, ExprSyntaxError, KyanoError, SingularEvaluation, clipped

FUNCTIONS: dict[str, Callable[[float], float]] = {
    "sin": dual.sin,
    "cos": dual.cos,
    "tan": dual.tan,
    "sqrt": dual.sqrt,
    "exp": dual.exp,
    "ln": dual.log,
    "abs": dual.absolute,
}


@dataclass(frozen=True)
class Num:
    value: float
    offset: int
    sign: float = field(init=False, repr=False)  # compared, so -0.0 compiles apart from 0.0

    def __post_init__(self):
        object.__setattr__(self, "sign", math.copysign(1.0, self.value))


@dataclass(frozen=True)
class Var:
    slot: int
    name: str
    offset: int


@dataclass(frozen=True)
class Neg:
    arg: "Node"
    offset: int


@dataclass(frozen=True)
class BinOp:
    op: str
    left: "Node"
    right: "Node"
    offset: int


@dataclass(frozen=True)
class Call:
    func: str
    arg: "Node"
    offset: int


Node = Union[Num, Var, Neg, BinOp, Call]


@dataclass(frozen=True)
class Expression:
    """Parsed expression over ``nvars`` coordinate slots.

    Slots are ordered prefix-major: with prefixes ``("x", "p")`` and chart
    dimension ``n``, slot ``k-1`` is ``xk`` and slot ``n+k-1`` is ``pk``.
    """

    root: Node
    nvars: int
    dim: int
    prefixes: tuple[str, ...]
    # compiled kernels by jet order, see _kernel()
    _kernels: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __str__(self) -> str:
        return unparse(self)


_TOKEN_OPS = set("+-*/^()")
MAX_NESTING = 100  # the parser and the emitter recurse once or more per level
_NUMBER = re.compile(r"(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)(?:[eE][+-]?[0-9]+)?")  # ASCII digits only


def _tokenize(source: str) -> list[tuple[str, str, int]]:
    tokens: list[tuple[str, str, int]] = []
    i = 0
    n = len(source)
    while i < n:
        c = source[i]
        if c.isspace():
            i += 1
            continue
        if c in _TOKEN_OPS:
            tokens.append(("op", c, i))
            i += 1
            continue
        number = _NUMBER.match(source, i)
        if number:
            tokens.append(("num", number[0], i))
            i = number.end()
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (source[j].isalpha() or source[j] == "_"):
                j += 1
            while j < n and source[j].isdigit():
                j += 1
            tokens.append(("name", source[i:j], i))
            i = j
            continue
        raise ExprSyntaxError(f"unexpected character {c!r}", i)
    tokens.append(("end", "", n))
    return tokens


class _Parser:
    def __init__(self, source: str, dim: int, prefixes: Sequence[str]):
        self.source = source
        self.dim = dim
        self.prefixes = tuple(prefixes)
        self.tokens = _tokenize(source)
        self.pos = 0
        self.depth = 0  # the parentheses, unary minuses, calls and exponents open here

    @contextlib.contextmanager
    def nested(self, off: int):
        """Parse one level deeper, at most ``MAX_NESTING``."""
        if self.depth == MAX_NESTING:
            raise ExprSyntaxError(f"nesting deeper than {MAX_NESTING} levels", off)
        self.depth += 1
        yield
        self.depth -= 1

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.pos]

    def advance(self) -> tuple[str, str, int]:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, op: str) -> None:
        kind, text, off = self.peek()
        if kind != "op" or text != op:
            raise ExprSyntaxError(f"expected {op!r}", off)
        self.advance()

    def parse(self) -> Node:
        node = self.expr()
        kind, text, off = self.peek()
        if kind != "end":
            raise ExprSyntaxError(f"unexpected trailing input {text!r}", off)
        return node

    def expr(self) -> Node:
        node = self.term()
        while True:
            kind, text, off = self.peek()
            if kind == "op" and text in "+-":
                self.advance()
                node = BinOp(text, node, self.term(), off)
            else:
                return node

    def term(self) -> Node:
        node = self.unary()
        while True:
            kind, text, off = self.peek()
            if kind == "op" and text in "*/":
                self.advance()
                node = BinOp(text, node, self.unary(), off)
            else:
                return node

    def unary(self) -> Node:
        kind, text, off = self.peek()
        if kind == "op" and text == "-":
            self.advance()
            with self.nested(off):
                return Neg(self.unary(), off)
        return self.power()

    def power(self) -> Node:
        base = self.atom()
        kind, text, off = self.peek()
        if kind == "op" and text == "^":
            self.advance()
            # the exponent re-enters at unary level: right-associative and
            # "^" grabs the atom before any unary minus does
            with self.nested(off):
                return BinOp("^", base, self.unary(), off)
        return base

    def atom(self) -> Node:
        kind, text, off = self.advance()
        if kind == "num":
            return Num(float(text), off)
        if kind == "op" and text == "(":
            with self.nested(off):
                node = self.expr()
            self.expect_op(")")
            return node
        if kind == "name":
            return self.name_atom(text, off)
        raise ExprSyntaxError(f"expected a number, variable, or '(' but found {text!r}"
                              if text else "unexpected end of input", off)

    def name_atom(self, text: str, off: int) -> Node:
        head = text.rstrip("0123456789")
        digits = text[len(head):]
        if digits and head in self.prefixes:
            index = int(digits) if len(digits.lstrip("0")) < 10 else 0  # int() refuses 4301 digits
            if not 1 <= index <= self.dim:
                raise ExprSyntaxError(f"coordinate index out of range: {clipped(text)} with "
                                      f"chart dimension {self.dim}", off)
            slot = self.prefixes.index(head) * self.dim + (index - 1)
            return Var(slot, text, off)
        kind, nxt, _ = self.peek()
        if kind == "op" and nxt == "(":
            if text not in FUNCTIONS:
                raise ExprSyntaxError(f"unknown function {text!r}", off)
            self.advance()
            with self.nested(off):
                arg = self.expr()
            self.expect_op(")")
            return Call(text, arg, off)
        raise ExprSyntaxError(f"unknown name {text!r}", off)


def parse_expression(source: str, dim: int, prefixes: Sequence[str] = ("x",)) -> Expression:
    """Parse ``source`` over a chart of ``dim`` coordinates per prefix.

    Equal arguments return the same :class:`Expression`, so its compiled
    kernels are built once per process however often it is parsed."""
    return _parse(source, dim, tuple(prefixes))


@functools.lru_cache(maxsize=1024)
def _parse(source: str, dim: int, prefixes: tuple[str, ...]) -> Expression:
    if dim < 1:
        raise ValueError("chart dimension must be at least 1")
    root = _Parser(source, dim, prefixes).parse()
    return Expression(root, dim * len(prefixes), dim, prefixes)


def _literal_int(node: Node) -> "int | None":
    if isinstance(node, Num) and float(node.value).is_integer():
        return int(node.value)
    if isinstance(node, Neg):
        inner = _literal_int(node.arg)
        if inner is not None:
            return -inner
    return None


def eval_value(expr: Expression, point: Sequence[float]) -> float:
    """Value only, no derivative bookkeeping."""
    return _jet(expr, point, 0)


def eval1(expr: Expression, point: Sequence[float]) -> Jet:
    """Value and gradient with respect to all slots."""
    return _jet(expr, point, 1)


def eval2(expr: Expression, point: Sequence[float]) -> Jet:
    """Value, gradient, and Hessian with respect to all slots."""
    return _jet(expr, point, 2)


def _jet(expr: Expression, point: Sequence[float], order: int) -> "Jet | float":
    pt = [float(v) for v in point]
    if len(pt) != expr.nvars:
        raise ValueError(f"expected {expr.nvars} values, got {len(pt)}")
    out = _kernel(expr, order)(pt)
    if not order:
        return float(out)
    n = expr.nvars
    hess = np.array(out[n + 1:]).reshape(n, n) if order == 2 else None
    return Jet(out[0], np.array(out[1:n + 1]), hess)


# ---------------------------------------------------------------------------
# compilation: one straight-line Python function per expression and jet
# order, one statement per operation, on floats.  Its only branch is a check,
# ``if cond: raise``, whose message names the operation and every enclosing
# one, innermost first, as the reference walk does; there is no exception
# handler.  At order 0 a literal integer power is the chain of products
# ``dual.integer_power`` makes, a function is ``math``'s behind the domain
# check ``dual`` makes, and a division by a local is checked for zero.
# Orders 1 and 2 are forward-mode jets unrolled into float locals: each step
# is an exact chain rule over value, gradient and Hessian entries, in a fixed
# operation order (products with the zeros of seeds and of constants
# included), so results are reproducible to the bit.  Operations on constants
# are done at compile time by ``dual``'s functions, one that raises becomes a
# ``raise`` of its message, the exact identity ``x * 1.0`` is dropped and a
# repeated operation is done once.  An operand is a float constant or a
# local's name; a jet is a (value, gradient, hessian) tuple of operands,
# hessian None at order 1.

_MATH = {"sin": math.sin, "cos": math.cos, "tan": math.tan, "sqrt": math.sqrt,
         "exp": math.exp, "ln": math.log, "abs": abs}


def _guard_power(base: float, k: float, message: str) -> float:
    """``dual.power`` in a guard, where its error puts the point outside: DomainError."""
    try:
        return dual.power(base, k)
    except SingularEvaluation:
        raise DomainError(message) from None


_GLOBALS = {"SingularEvaluation": SingularEvaluation, "DomainError": DomainError,
            "pow_": dual.power, "gpow_": _guard_power, **{f"m_{k}": f for k, f in _MATH.items()}}
_BINARY = {"+": operator.add, "-": operator.sub}
_COLUMN_ROWS = 32  # fewer rows run faster through the per-point kernel


def _per_point(*args):
    raise ArithmeticError("evaluated per point")


# The same source over (N,) columns of finite floats: numpy arithmetic is
# IEEE-exact like float arithmetic and flags where floats raise or overflow,
# except inf or NaN over 0, so a non-finite constant (``float('inf')`` in the
# source), like a non-literal power, runs per point.  Functions map ``math``'s
# over the elements, and a check raises if any row fails it.
_COLUMNS = {**_GLOBALS, "float": _per_point, "pow_": _per_point, "gpow_": _per_point,
            "np": np,
            **{f"m_{k}": lambda col, f=f: np.fromiter(map(f, np.atleast_1d(col).tolist()), float)
               for k, f in _MATH.items()}}


class Fused(tuple):
    """Expressions over the same slots, whose kernel at each jet order runs them in
    turn and a shared operation once; like an expression's, built once, on first use."""

    _kernels = functools.cached_property(lambda self: {})


def _kernel(expr, order: int, columns: bool = False) -> Callable:
    """The compiled function of ``expr``, an expression or a Fused, at jet order
    ``order``, built once: order 0 maps ``nvars`` floats to a scalar, orders 1 and 2
    to (value, *gradient, *row-major Hessian), a Fused to a tuple of each expression's
    outputs unless just one; with ``columns``, ``nvars`` columns of floats to a tuple of them."""
    key = (order, columns)
    fn = expr._kernels.get(key)
    if fn is None:
        exprs = expr if isinstance(expr, Fused) else (expr,)
        fn = expr._kernels[key] = _compile(exprs[0].nvars, tuple(
            (e.root, order) for e in exprs), columns) if exprs else lambda s: ()
    return fn


@functools.lru_cache(maxsize=256)
def _compile(nvars: int, parts: tuple, columns: bool = False) -> Callable:
    """``kernel(s)`` of ``nvars`` slots returning the outputs of each ``(root, order)`` of
    ``parts`` in turn, a tuple unless just one per point; a shared operation runs once."""
    em, outs = _Emitter(nvars, columns), []
    for root, em.order in parts:
        out = em.emit(root)
        if em.order:
            value, grad, hess = out if isinstance(out, tuple) else em.lift(out)
        outs += [value, *grad, *itertools.chain(*hess or ())] if em.order else [out]
    return _function(nvars, em.lines, [em.src(x) for x in outs], columns)


def _function(nvars: int, lines: list, outs: list, columns: bool = False,
              namespace: "dict | None" = None, bare: bool = True) -> Callable:
    """``kernel(s)`` of ``nvars`` slots: the statements ``lines``, then the output sources
    ``outs``, a tuple unless ``bare`` and just one per point, over ``namespace``, by default
    the float or column globals."""
    if columns:  # a column is freed after its last read
        last = {t: i for i, line in enumerate(lines) for t in re.findall(r"\bt\d+\b", line)}
        for i, t in sorted(((i, t) for t, i in last.items() if t not in outs), reverse=True):
            lines.insert(i + 1, f"    del {t}")
    ret = ", ".join(outs) + ("," if columns or len(outs) > 1 or not bare else "")
    args = "".join(f"s{i}, " for i in range(nvars))
    return _exec(["def kernel(s):", f"    {args}= s", *lines, f"    return {ret}"],
                 namespace or (_COLUMNS if columns else _GLOBALS))


def _exec(lines: list, namespace: dict) -> Callable:
    """The function that the source ``lines`` define, over a copy of ``namespace``."""
    exec(compile("\n".join(lines), "<kyano kernel>", "exec"), namespace := dict(namespace))
    return namespace[lines[0][4:lines[0].index("(")]]


def eval_columns(exprs: "Expression | tuple", columns, order: int = 0) -> np.ndarray:
    """``exprs``, an expression or a tuple of them run by one kernel, at N points, one
    ``(N,)`` column per slot, bytewise per point (see :func:`_run`): the stacked (width, N)
    outputs of each expression's value or jet at ``order``, for one expression at order 0 its
    (N,) values."""
    exprs = Fused(exprs) if type(exprs) is tuple else exprs
    rows = _run(functools.partial(_kernel, exprs, order), np.asarray(columns, dtype=float).T)
    return rows if order or isinstance(exprs, Fused) else rows[0]


def _run(kernel: Callable, X: np.ndarray) -> np.ndarray:
    """The (width, N) outputs at the N rows of ``X`` of ``kernel(True)``, a kernel over
    columns, from ``_COLUMN_ROWS`` rows on where X is finite; else, and where the columns raise
    or overflow, of ``kernel(False)`` at each row's floats, so the first failing row raises."""
    if not 0 < len(X) < _COLUMN_ROWS and np.isfinite(X).all():
        try:
            with np.errstate(divide="raise", over="raise", invalid="raise"):
                outs = kernel(True)(X.T)
            return np.array([np.broadcast_to(out, len(X)) for out in outs])
        except (ArithmeticError, ValueError, KyanoError):
            pass
    point = kernel(False)
    rows = np.array([point(x) for x in X.tolist()], float)
    return rows.reshape(len(X), rows.size // max(len(X), 1)).T


class _Emitter:
    """Statements of one kernel, emitted in evaluation order; jets over its first ``n`` slots.
    The kernel is straight-line, with no handler: each ``if cond: raise``, and each ``raise``
    of a constant operation that fails, names the locations stacked by ``at`` as it is emitted,
    or, while ``outside`` holds a message, is that DomainError: a guard that fails to evaluate.
    A ``sparse`` float kernel's jets skip x * 0.0 and x + 0.0 for a local x, kept in ``pruned``."""

    def __init__(self, n: int, columns: bool = False, sparse: bool = False):
        self.n, self.order, self.columns, self.sparse = n, 0, columns, sparse
        self.pruned: dict = {}  # the factors of products a sparse jet skipped, in order
        self.lines: list[str] = []
        self.memo, self.checked = {}, set()  # the locals of operations, the conditions checked
        self.where = ""  # the locations of the operations being emitted, innermost first
        self.outside = None  # the DomainError message of the guard being emitted

    @staticmethod
    def src(x) -> str:
        if isinstance(x, str):
            return x
        return f"({x!r})" if math.isfinite(x) else f"float('{x}')"

    def op(self, fmt: str, fn: Callable, *args, commutative: bool = False):
        """``fmt`` on ``args``: ``fold(fn, *args)`` when all are constants, else a local."""
        if not any(isinstance(a, str) for a in args):
            return self.fold(fn, *args)
        key = [a if isinstance(a, str) else repr(a) for a in args]
        key = (fmt, *(sorted(key) if commutative else key))
        if key not in self.memo:
            self.memo[key] = f"t{len(self.memo)}"
            self.lines.append(f"    {self.memo[key]} = " + fmt.format(*map(self.src, args)))
        return self.memo[key]

    def fold(self, fn: Callable, *args) -> float:
        """``fn(*args)`` on constants; where it raises, a ``raise`` of its error, and NaN as
        the operand of the statements after it, which never run."""
        try:
            return fn(*args)
        except (ArithmeticError, ValueError, SingularEvaluation) as e:
            self.lines.append(f"    {self.raising(e)}")
            return math.nan

    def raising(self, e: Exception) -> str:
        """``raise e`` as the reference walk reports it: a singular evaluation or a division
        by zero at the stacked locations, or in a guard as its DomainError, any other error as
        it is."""
        if isinstance(e, ZeroDivisionError):
            e = SingularEvaluation("division by zero")
        if self.outside is not None and isinstance(e, SingularEvaluation):
            return f"raise DomainError({self.outside!r})"
        where = self.where if isinstance(e, SingularEvaluation) else ""
        return f"raise {type(e).__name__}({str(e) + where!r})"

    def check(self, cond: str, x, message: str) -> None:
        """``if cond: raise`` ``message``, once: a local is assigned once; a repeat never fires.
        On a constant ``x`` the condition is decided here: where it holds, a ``raise``, else none."""
        cond = cond.format(self.src(x))
        if not isinstance(x, str):
            if eval(cond, {"abs": abs, "float": float}):  # a condition of this emitter's own forms
                self.lines.append(f"    {self.raising(SingularEvaluation(message))}")
        elif cond not in self.checked:
            self.checked.add(cond)
            self.lines.append(f"    if {f'np.any({cond})' if self.columns else cond}: "
                              + self.raising(SingularEvaluation(message)))

    @contextlib.contextmanager
    def at(self, where: str):
        """Statements emitted inside are the operation's at ``where``, within those stacked."""
        outer, self.where = self.where, where + self.where
        yield
        self.where = outer

    def emit(self, node: Node):
        """Operand of ``node``, or its jet when it reads a slot at order 1 or 2."""
        if isinstance(node, Num):
            return node.value
        if isinstance(node, Var):
            name = f"s{node.slot}"
            return name if not self.order else (
                name, [float(k == node.slot) for k in range(self.n)], self.lift(0.0)[2])
        if isinstance(node, Neg):
            arg = self.emit(node.arg)
            return self.jmap(self.neg, arg) if isinstance(arg, tuple) else self.neg(arg)
        if isinstance(node, Call):
            arg = self.emit(node.arg)
            with self.at(f" in {node.func}(...) at offset {node.offset}"):
                if isinstance(arg, tuple):
                    return self.chain(arg, *self.rule(node.func, arg[0]))
                if not isinstance(arg, str):
                    return self.fold(FUNCTIONS[node.func], arg)
                self.domain(node.func, arg)
                return self.call(node.func, arg)
        where = f" in '{node.op}' at offset {node.offset}"
        left = self.emit(node.left)
        if node.op == "^":  # the exponent is emitted within the power's location
            k = _literal_int(node.right)
            with self.at(where):
                return self.power(left, self.emit(node.right) if k is None else k, k is not None)
        right = self.emit(node.right)
        with self.at(where):
            return self.binary(node.op, left, right)

    def binary(self, op: str, a, b):
        """``a op b`` for + - * / on operands and jets: a jet divisor by its reciprocal."""
        if not isinstance(a, tuple) and not isinstance(b, tuple):
            if op in "*/":
                return self.mul(a, b) if op == "*" else self.div(a, b)
            return self.op("{} %s {}" % op, _BINARY[op], a, b)
        if op == "/":
            if isinstance(b, tuple):  # a * (1/b), a float times the jet 1/b
                r = self.recip(b)
                return self.jmul(a, r) if isinstance(a, tuple) else self.jscale(r, a)
            return self.jscale(a, self.div(1.0, b))
        if op == "-":  # a + (-b)
            op, b = "+", self.jmap(self.neg, b) if isinstance(b, tuple) else self.neg(b)
        if not isinstance(a, tuple):  # float + jet, float * jet: the jet's rule
            a, b = b, a
        if not isinstance(b, tuple):
            return self.jscale(a, b) if op == "*" else (self.add(a[0], b), a[1], a[2])
        return self.jmul(a, b) if op == "*" else self.jmap(self.add, a, b)

    def power(self, base, k, literal: bool):
        """``dual.integer_power`` for a literal ``k``, else ``dual.power``."""
        scalar = not isinstance(base, tuple)
        if scalar and not isinstance(k, tuple):
            if not literal:  # dual.power raises at the stacked locations, or as the guard
                fmt = "pow_({}, {}, %r)" % self.where if self.outside is None else (
                    "gpow_({}, {}, %r)" % self.outside)
                return self.op(fmt, dual.power, base, k)
            if not isinstance(base, str):
                return self.fold(dual.integer_power, base, k)
        elif not literal and not (isinstance(k, float) and k.is_integer()):
            # exp(k * ln(base)); a constant k that raised, NaN, lands here
            self.check("{} <= 0.0", base if scalar else base[0],
                       "non-integer power of a non-positive base")
            if scalar:
                return self.exp_of(self.jscale(k, self.call("ln", base)))
            log = self.chain(base, *self.rule("ln", base[0]))
            return self.exp_of(self.jmul(log, k) if isinstance(k, tuple) else self.jscale(log, k))
        k, mul = int(k), self.mul if scalar else self.jmul
        if k < 0:
            self.check("{} == 0.0", base if scalar else base[0], "zero raised to a negative power")
            # 1.0 / base: the factor 1.0 is exact
            base, k = self.div(1.0, base) if scalar else self.recip(base), -k
        result = 1.0 if scalar else self.lift(1.0)
        while k > 0:
            if k & 1:
                result = mul(result, base)
            k >>= 1
            if k:
                base = mul(base, base)
        return result

    def exp_of(self, a):
        return self.chain(a, *self.rule("exp", a[0]))

    # -- float operations and the jet rules over them

    neg = functools.partialmethod(op, "-{}", operator.neg)

    def div(self, a, b):
        """``a / b``: by a constant zero a ``raise``; at order 0 by a local behind a zero check,
        where a column kernel has numpy's flag and a sparse one outside a guard Python's error
        instead, each falling back to the exact kernel; at orders 1 and 2 each local divisor is
        checked first."""
        if b == 0.0:  # whatever a is
            return self.fold(operator.truediv, 0.0, b)
        if isinstance(b, str) and not (self.order or self.columns
                                       or self.sparse and self.outside is None):
            self.check("{} == 0.0", b, "division by zero")
        return self.op("{} / {}", operator.truediv, a, b)

    def skips(self, a, b) -> bool:
        """Whether a sparse jet skips ``a`` op ``b``, a local and a zero."""
        return self.sparse and self.order > 0 and 0.0 in (a, b) and str in map(type, (a, b))

    def add(self, a, b):
        if self.skips(a, b):
            return b if a == 0.0 else a
        return self.op("{} + {}", operator.add, a, b, commutative=True)

    def mul(self, a, b):
        if a == 1.0 or b == 1.0:
            return b if a == 1.0 else a
        if self.skips(a, b):
            self.pruned[b if a == 0.0 else a] = None
            return 0.0
        return self.op("{} * {}", operator.mul, a, b, commutative=True)

    def call(self, name: str, a):
        return self.op(f"m_{name}({{}})", _MATH[name], a)

    def lift(self, c):
        n = self.n
        return c, [0.0] * n, [[0.0] * n for _ in range(n)] if self.order == 2 else None

    def jmap(self, fn: Callable, *jets):
        """``fn`` over the value, gradient and Hessian entries of ``jets``."""
        hess = None if jets[0][2] is None else [
            [fn(*xs) for xs in zip(*rows)] for rows in zip(*(j[2] for j in jets))
        ]
        return fn(*(j[0] for j in jets)), [fn(*xs) for xs in zip(*(j[1] for j in jets))], hess

    def jscale(self, a, c):
        return self.jmap(lambda x: self.mul(x, c), a)

    def jmul(self, a, b):
        (av, ag, ah), (bv, bg, bh), n = a, b, range(self.n)
        hess = None if ah is None else [[self.add(self.add(self.add(
            self.mul(av, bh[i][j]), self.mul(bv, ah[i][j])), self.mul(ag[i], bg[j])),
            self.mul(ag[j], bg[i])) for j in n] for i in n]
        grad = [self.add(self.mul(av, y), self.mul(bv, x)) for x, y in zip(ag, bg)]
        return self.mul(av, bv), grad, hess

    def chain(self, a, f, df, d2f):
        _, ag, ah = a
        hess = None if ah is None else [[self.add(self.mul(df, ah[i][j]), self.mul(
            d2f, self.mul(ag[i], ag[j]))) for j in range(self.n)] for i in range(self.n)]
        return f, [self.mul(df, x) for x in ag], hess

    def recip(self, a):
        self.check("{} == 0.0", a[0], "division by zero")
        inv = self.div(1.0, a[0])
        d2f = self.mul(self.mul(self.mul(2.0, inv), inv), inv) if self.order == 2 else 0.0
        return self.chain(a, inv, self.mul(self.neg(inv), inv), d2f)

    def domain(self, func: str, v) -> None:
        """The check ``dual`` makes of the argument ``v`` of ``func``."""
        if func in ("sqrt", "ln"):
            self.check("{} <= 0.0", v, f"{func} of a non-positive argument")
        elif func == "abs":
            self.check("{} == 0.0", v, "abs at zero has no derivative")

    def rule(self, func: str, v):
        """(f, f', f'') of ``func`` at ``v`` behind ``dual``'s check (f'' at order 2 only)."""
        call, mul, neg = self.call, self.mul, self.neg
        self.domain(func, v)
        if func == "sin":
            s = call("sin", v)
            return s, call("cos", v), neg(s) if self.order == 2 else 0.0
        if func == "cos":
            c = call("cos", v)
            return c, neg(call("sin", v)), neg(c) if self.order == 2 else 0.0
        if func == "tan":
            t = call("tan", v)
            sec2 = self.add(1.0, mul(t, t))
            return t, sec2, mul(mul(2.0, t), sec2) if self.order == 2 else 0.0
        if func == "sqrt":
            r = call("sqrt", v)
            if self.order == 1:
                return r, self.div(0.5, r), 0.0
            rv = mul(r, v)
            self.check("{} == 0.0", rv, "sqrt argument too small for a second derivative")
            return r, self.div(0.5, r), self.div(-0.25, rv)
        if func == "exp":
            e = call("exp", v)
            return e, e, e
        if func == "ln":
            inv = self.div(1.0, v)
            return call("ln", v), inv, mul(neg(inv), inv) if self.order == 2 else 0.0
        fmt = "np.where({} > 0, 1.0, -1.0)" if self.columns else "1.0 if {} > 0 else -1.0"
        sign = self.op(fmt, lambda x: 1.0 if x > 0 else -1.0, v)
        return call("abs", v), sign, 0.0


def unparse(expr: "Expression | Node") -> str:
    """Source form that reparses to an equivalent expression, fully parenthesized, so
    that the printer does not depend on precedence."""
    node = expr.root if isinstance(expr, Expression) else expr
    if isinstance(node, Num):
        return repr(node.value)
    if isinstance(node, Var):
        return node.name
    if isinstance(node, Neg):
        return f"(-{unparse(node.arg)})"
    if isinstance(node, Call):
        return f"{node.func}({unparse(node.arg)})"
    return f"({unparse(node.left)} {node.op} {unparse(node.right)})"
