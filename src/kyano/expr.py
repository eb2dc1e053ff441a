"""Parsing and exact differentiation of coordinate expressions.

Grammar (EBNF, whitespace ignored between tokens):

    expr    = term , { ("+" | "-") , term } ;
    term    = unary , { ("*" | "/") , unary } ;
    unary   = "-" , unary | power ;
    power   = atom , [ "^" , unary ] ;
    atom    = number | variable | name , "(" , expr , ")" | "(" , expr , ")" ;

``^`` is right-associative and binds tighter than unary minus, so ``-x1^2``
is ``-(x1^2)`` and ``2^-1`` is accepted.  Function names are exactly
``sin cos tan sqrt exp ln abs``.  Numbers are decimal with an optional
fractional part and exponent; there is no hex form and no implicit
multiplication.  Variables are a letter prefix followed by a 1-based index
(``x1 .. x<dim>``); phase-space expressions additionally admit a second
prefix (``p1 .. p<dim>``).

Exponents that are literal integers (including ``^-2`` and ``^2.0``) are
evaluated by repeated multiplication, which keeps them differentiable at
non-positive bases; any other exponent goes through ``exp(k*ln(b))`` and
requires a positive base.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence, Union

from . import dual
from .dual import Jet, Scalar
from .errors import ExprSyntaxError, SingularEvaluation

FUNCTIONS: dict[str, Callable[[Scalar], Scalar]] = {
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

    def __str__(self) -> str:
        return unparse(self)


_TOKEN_OPS = set("+-*/^()")


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
        if c.isdigit() or (c == "." and i + 1 < n and source[i + 1].isdigit()):
            j = i
            while j < n and source[j].isdigit():
                j += 1
            if j < n and source[j] == ".":
                j += 1
                while j < n and source[j].isdigit():
                    j += 1
            if j < n and source[j] in "eE":
                k = j + 1
                if k < n and source[k] in "+-":
                    k += 1
                if k < n and source[k].isdigit():
                    j = k
                    while j < n and source[j].isdigit():
                        j += 1
            tokens.append(("num", source[i:j], i))
            i = j
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
            return Neg(self.unary(), off)
        return self.power()

    def power(self) -> Node:
        base = self.atom()
        kind, text, off = self.peek()
        if kind == "op" and text == "^":
            self.advance()
            # the exponent re-enters at unary level: right-associative and
            # "^" grabs the atom before any unary minus does
            return BinOp("^", base, self.unary(), off)
        return base

    def atom(self) -> Node:
        kind, text, off = self.advance()
        if kind == "num":
            return Num(float(text), off)
        if kind == "op" and text == "(":
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
            index = int(digits)
            if not 1 <= index <= self.dim:
                raise ExprSyntaxError(
                    f"coordinate index out of range: {text!r} with chart dimension {self.dim}",
                    off,
                )
            slot = self.prefixes.index(head) * self.dim + (index - 1)
            return Var(slot, text, off)
        kind, nxt, _ = self.peek()
        if kind == "op" and nxt == "(":
            if text not in FUNCTIONS:
                raise ExprSyntaxError(f"unknown function {text!r}", off)
            self.advance()
            arg = self.expr()
            self.expect_op(")")
            return Call(text, arg, off)
        raise ExprSyntaxError(f"unknown name {text!r}", off)


def parse_expression(source: str, dim: int, prefixes: Sequence[str] = ("x",)) -> Expression:
    """Parse ``source`` over a chart of ``dim`` coordinates per prefix."""
    if dim < 1:
        raise ValueError("chart dimension must be at least 1")
    root = _Parser(source, dim, prefixes).parse()
    return Expression(root, dim * len(prefixes), dim, tuple(prefixes))


def _literal_int(node: Node) -> "int | None":
    if isinstance(node, Num) and float(node.value).is_integer():
        return int(node.value)
    if isinstance(node, Neg):
        inner = _literal_int(node.arg)
        if inner is not None:
            return -inner
    return None


def evaluate(expr: Expression, scalars: Sequence[Scalar]) -> Scalar:
    """Evaluate over pre-lifted scalars (floats or jets), one per slot."""
    if len(scalars) != expr.nvars:
        raise ValueError(f"expected {expr.nvars} values, got {len(scalars)}")
    return _eval(expr.root, scalars)


def _eval(node: Node, scalars: Sequence[Scalar]) -> Scalar:
    if isinstance(node, Num):
        return node.value
    if isinstance(node, Var):
        return scalars[node.slot]
    if isinstance(node, Neg):
        return -_eval(node.arg, scalars)
    if isinstance(node, Call):
        arg = _eval(node.arg, scalars)
        try:
            return FUNCTIONS[node.func](arg)
        except SingularEvaluation as e:
            raise SingularEvaluation(
                f"{e} in {node.func}(...) at offset {node.offset}"
            ) from None
    # BinOp
    left = _eval(node.left, scalars)
    if node.op == "^":
        k = _literal_int(node.right)
        try:
            if k is not None:
                return dual.integer_power(left, k)
            return dual.power(left, _eval(node.right, scalars))
        except SingularEvaluation as e:
            raise SingularEvaluation(f"{e} in '^' at offset {node.offset}") from None
    right = _eval(node.right, scalars)
    if node.op == "+":
        return left + right
    if node.op == "-":
        return left - right
    if node.op == "*":
        return left * right
    # division
    try:
        return left / right
    except ZeroDivisionError:
        raise SingularEvaluation(
            f"division by zero in '/' at offset {node.offset}"
        ) from None
    except SingularEvaluation as e:
        raise SingularEvaluation(f"{e} in '/' at offset {node.offset}") from None


def eval_value(expr: Expression, point: Sequence[float]) -> float:
    """Value only, no derivative bookkeeping."""
    return dual.value_of(evaluate(expr, [float(v) for v in point]))


def eval1(expr: Expression, point: Sequence[float]) -> Jet:
    """Value and gradient with respect to all slots."""
    return Jet.lift(evaluate(expr, Jet.seeds(point, 1)), expr.nvars, 1)


def eval2(expr: Expression, point: Sequence[float]) -> Jet:
    """Value, gradient, and Hessian with respect to all slots."""
    return Jet.lift(evaluate(expr, Jet.seeds(point, 2)), expr.nvars, 2)


def unparse(expr: "Expression | Node") -> str:
    """Source form that reparses to an equivalent expression.

    Output is fully parenthesized, which keeps the printer independent of
    precedence subtleties.
    """
    node = expr.root if isinstance(expr, Expression) else expr
    return _unparse(node)


def _unparse(node: Node) -> str:
    if isinstance(node, Num):
        return repr(node.value)
    if isinstance(node, Var):
        return node.name
    if isinstance(node, Neg):
        return f"(-{_unparse(node.arg)})"
    if isinstance(node, Call):
        return f"{node.func}({_unparse(node.arg)})"
    return f"({_unparse(node.left)} {node.op} {_unparse(node.right)})"
