"""A small expression language for length-based center functions.

Grammar (whitespace-insensitive; precedence pow > unary > mul/div > add/sub):

    expr    = term { ("+" | "-") term } ;
    term    = unary { ("*" | "/") unary } ;
    unary   = { ("+" | "-") } power ;
    power   = atom [ "^" unary ] ;
    atom    = NUMBER | dist | "perim" | call | "(" expr ")" ;
    dist    = "d" "(" index "," index ")" ;
    call    = ("sqrt" | "abs") "(" expr ")"
            | ("min" | "max") "(" expr { "," expr } ")" ;
    index   = ("n" | INT) { ("+" | "-") INT } ;
    NUMBER  = INT [ "." INT ] ;

`d(i,j)` reads the distance between vertices i and j; indices may be
literals or n-relative forms like `n-1` and are reduced mod n to 1..n at
evaluation time. `d(i,i)` is rejected while parsing when the two index
expressions are structurally identical, and at evaluation when they
collide after reduction. `perim` sums the n side lengths. Nesting or a
tree deeper than MAX_DEPTH levels is a syntax error.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain
from operator import getitem
from typing import Callable, ClassVar, Optional, Union

from .errors import AxiomViolation, EvalError, ExprIndexError, ExprSyntaxError
from .framework import CHECK_TOL, SLOPE_TOL, LengthCenterFunction, axiom_trials
from .geometry import DistanceMatrix, Polygon, chords
from .sampling import random_polygon

# Deepest nesting (parentheses, calls, powers, signs) and tallest tree (node
# `height`; each + - * / of a chain adds a level) the parser accepts; parsing,
# evaluation and printing recurse once per level.
MAX_DEPTH = 100


# ------------------------------------------------------------------- syntax


@dataclass(frozen=True)
class Index:
    """A vertex index: a literal, or an offset from n."""

    base: str  # "literal" | "n"
    offset: int

    def resolve(self, n: int) -> int:
        """0-based index, reduced mod n."""
        value = self.offset if self.base == "literal" else n + self.offset
        return (value - 1) % n

    def render(self) -> str:
        if self.base == "literal":
            return str(self.offset)
        if self.offset == 0:
            return "n"
        return f"n{self.offset:+d}"


@dataclass(frozen=True)
class Const:
    value: float
    height: ClassVar[int] = 1


@dataclass(frozen=True)
class Dist:
    i: Index
    j: Index
    pos: int = field(default=0, compare=False)
    height: ClassVar[int] = 1


@dataclass(frozen=True)
class Unary:
    op: str  # "neg" | "sqrt" | "abs"
    arg: "Expr"

    @cached_property
    def height(self) -> int:
        return self.arg.height + 1


@dataclass(frozen=True)
class Binary:
    op: str  # "+" | "-" | "*" | "/" | "^"
    left: "Expr"
    right: "Expr"

    @cached_property
    def height(self) -> int:
        return max(self.left.height, self.right.height) + 1


@dataclass(frozen=True)
class Aggregate:
    op: str  # "perim" | "min" | "max"
    args: tuple["Expr", ...]

    @cached_property
    def height(self) -> int:
        return max((a.height for a in self.args), default=0) + 1


Expr = Union[Const, Dist, Unary, Binary, Aggregate]


@dataclass(frozen=True)
class ParsedCenter:
    expr: Expr
    source: str
    # n -> the tree compiled for n-gons (`_compile`), one per n evaluated
    _programs: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    # n -> the tree compiled to read chord lists, and the offsets it reads
    _chord_programs: dict = field(default_factory=dict, init=False, repr=False, compare=False)


# ---------------------------------------------------------------- tokenizer


_OPS = set("+-*/^(),")


@dataclass(frozen=True)
class _Token:
    kind: str  # "number" | "name" | "op" | "end"
    text: str
    pos: int


def _tokenize(source: str) -> list[_Token]:
    tokens: list[_Token] = []
    i = 0
    while i < len(source):
        ch = source[i]
        if ch in " \t\r\n":
            i += 1
            continue
        if ch in _OPS:
            tokens.append(_Token("op", ch, i))
            i += 1
            continue
        if ch.isdigit():
            start = i
            while i < len(source) and source[i].isdigit():
                i += 1
            if i < len(source) and source[i] == ".":
                i += 1
                if i >= len(source) or not source[i].isdigit():
                    raise ExprSyntaxError("digits must follow a decimal point", i)
                while i < len(source) and source[i].isdigit():
                    i += 1
            tokens.append(_Token("number", source[start:i], start))
            continue
        if ch.isalpha() or ch == "_":
            start = i
            while i < len(source) and (source[i].isalnum() or source[i] == "_"):
                i += 1
            tokens.append(_Token("name", source[start:i], start))
            continue
        raise ExprSyntaxError(f"unexpected character {ch!r}", i)
    tokens.append(_Token("end", "", len(source)))
    return tokens


# ------------------------------------------------------------------- parser


class _Parser:
    def __init__(self, source: str) -> None:
        self.source = source
        self.tokens = _tokenize(source)
        self.at = 0
        self.depth = 0

    def peek(self) -> _Token:
        return self.tokens[self.at]

    def take(self) -> _Token:
        tok = self.tokens[self.at]
        self.at += 1
        return tok

    def expect(self, text: str) -> _Token:
        tok = self.take()
        if tok.kind == "end" or tok.text != text:
            raise ExprSyntaxError(f"expected {text!r}", tok.pos)
        return tok

    # expr = term { ("+"|"-") term }
    def expr(self) -> Expr:
        node = self.term()
        while self.peek().kind == "op" and self.peek().text in "+-":
            tok = self.take()
            node = Binary(tok.text, node, self.term())
            self.check_depth(node.height, tok.pos)
        return node

    # term = unary { ("*"|"/") unary }
    def term(self) -> Expr:
        node = self.unary()
        while self.peek().kind == "op" and self.peek().text in "*/":
            tok = self.take()
            node = Binary(tok.text, node, self.unary())
            self.check_depth(node.height, tok.pos)
        return node

    def check_depth(self, levels: int, pos: int) -> None:
        if levels > MAX_DEPTH:
            raise ExprSyntaxError(f"expression nests deeper than {MAX_DEPTH} levels", pos)

    def descend(self) -> None:
        """Parse the next operand one level deeper (parenthesis, call, power, sign)."""
        self.depth += 1
        self.check_depth(self.depth, self.peek().pos)

    # unary = { ("+"|"-") } power
    def unary(self) -> Expr:
        depth = self.depth
        self.descend()
        signs = []
        while self.peek().kind == "op" and self.peek().text in "+-":
            signs.append(self.take().text)
            self.descend()
        node = self.power()
        self.depth = depth
        for s in reversed(signs):
            if s == "-":
                node = Unary("neg", node)
        # every node built below a chain operand is in this one's tree
        self.check_depth(node.height, self.peek().pos)
        return node

    # power = atom [ "^" unary ]
    def power(self) -> Expr:
        node = self.atom()
        if self.peek().kind == "op" and self.peek().text == "^":
            self.take()
            node = Binary("^", node, self.unary())
        return node

    def atom(self) -> Expr:
        tok = self.take()
        if tok.kind == "number":
            return Const(float(tok.text))
        if tok.kind == "op" and tok.text == "(":
            node = self.expr()
            self.expect(")")
            return node
        if tok.kind == "name":
            if tok.text == "d":
                return self.dist(tok.pos)
            if tok.text == "perim":
                return Aggregate("perim", ())
            if tok.text in ("sqrt", "abs"):
                self.expect("(")
                node = self.expr()
                self.expect(")")
                return Unary(tok.text, node)
            if tok.text in ("min", "max"):
                self.expect("(")
                args = [self.expr()]
                while self.peek().kind == "op" and self.peek().text == ",":
                    self.take()
                    args.append(self.expr())
                self.expect(")")
                return Aggregate(tok.text, tuple(args))
            raise ExprSyntaxError(f"unknown name {tok.text!r}", tok.pos)
        raise ExprSyntaxError(
            "expected a number, d(i,j), perim, a call, or '('", tok.pos
        )

    def dist(self, pos: int) -> Expr:
        self.expect("(")
        i = self.index()
        self.expect(",")
        j = self.index()
        self.expect(")")
        if i == j:
            raise ExprIndexError("d(i,i) is not a distance", pos)
        return Dist(i, j, pos)

    # index = ("n" | INT) { ("+"|"-") INT }
    def index(self) -> Index:
        tok = self.take()
        if tok.kind == "name" and tok.text == "n":
            base, offset = "n", 0
        elif tok.kind == "number" and "." not in tok.text:
            base, offset = "literal", int(tok.text)
        else:
            raise ExprSyntaxError("index must be an integer or n±integer", tok.pos)
        while self.peek().kind == "op" and self.peek().text in "+-":
            sign = 1 if self.take().text == "+" else -1
            num = self.take()
            if num.kind != "number" or "." in num.text:
                raise ExprSyntaxError("index offset must be an integer", num.pos)
            offset += sign * int(num.text)
        if base == "literal" and offset < 1:
            raise ExprIndexError(f"literal index {offset} is below 1", tok.pos)
        return Index(base, offset)


def parse(source: str) -> ParsedCenter:
    parser = _Parser(source)
    node = parser.expr()
    end = parser.take()
    if end.kind != "end":
        raise ExprSyntaxError(f"unexpected trailing {end.text!r}", end.pos)
    return ParsedCenter(node, source)


# ------------------------------------------------------------------ printer


_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "neg": 3, "^": 4}


def _positional(v: float) -> str:
    """The shortest repr digits of a finite v >= 0 in positional notation,
    which the grammar's NUMBER reads back to v; no ".0" on whole numbers."""
    text = repr(v)
    if "e" not in text:
        return text[:-2] if text.endswith(".0") else text
    # repr writes one digit before the point, and an exponent below -4
    # or above 15, so the point lies left of the digits or past the last
    mantissa, exponent = text.split("e")
    digits = mantissa.replace(".", "")
    point = 1 + int(exponent)
    if point <= 0:
        return "0." + "0" * -point + digits
    return digits + "0" * (point - len(digits))


def _render(e: Expr) -> tuple[str, int]:
    if isinstance(e, Const):
        return _positional(e.value), 5
    if isinstance(e, Dist):
        return f"d({e.i.render()},{e.j.render()})", 5
    if isinstance(e, Aggregate):
        if e.op == "perim":
            return "perim", 5
        inner = ",".join(_render(a)[0] for a in e.args)
        return f"{e.op}({inner})", 5
    if isinstance(e, Unary):
        if e.op in ("sqrt", "abs"):
            return f"{e.op}({_render(e.arg)[0]})", 5
        text, prec = _render(e.arg)
        # "--x" reads as -(-x) and nests one level per sign, as the tree does
        if prec < 3:
            text = f"({text})"
        return f"-{text}", 3
    if isinstance(e, Binary):
        my = _PREC[e.op]
        lt, lp = _render(e.left)
        rt, rp = _render(e.right)
        if e.op == "^":
            if lp <= my:
                lt = f"({lt})"
            # right side binds naturally (right-associative)
            if rp < 3:
                rt = f"({rt})"
        else:
            if lp < my:
                lt = f"({lt})"
            if rp <= my:
                rt = f"({rt})"
        return f"{lt}{e.op}{rt}", my
    raise TypeError(f"not an expression node: {e!r}")


def to_source(e: Expr) -> str:
    """Canonical text that parses back to a structurally equal tree."""
    return _render(e)[0]


# ---------------------------------------------------------------- evaluation


# A compiled expression reads entry (i, j) of a matrix as rows[i][j + k],
# from the (rows, k) pair of `DistanceMatrix.rows_and_offset` or `_chord_map`.
_Program = Callable[[Sequence[Sequence[float]], int], float]


def _compile(node: Expr, n: int, offsets: Optional[set[int]] = None) -> _Program:
    """node for n-gons as nested closures, each index pair resolved once;
    with a set of offsets, reading chord lists and adding each offset read.

    Operands run left to right and give the values and errors a walk of the
    tree gives; a pair that collides at n, or a node that is not an
    expression, becomes a closure that raises when it runs."""
    if isinstance(node, Const):
        value = node.value
        return lambda rows, k: value
    if isinstance(node, Dist):
        i = node.i.resolve(n)
        j = node.j.resolve(n)
        if i == j:
            return _raiser(
                ExprIndexError,
                f"d({node.i.render()},{node.j.render()}) collides at n={n}",
                node.pos,
            )
        if offsets is not None:
            # entry i + k of the doubled chord list s = j - i mod n
            i, j = (j - i) % n, i
            offsets.add(i)
        return lambda rows, k: rows[i][j + k]
    if isinstance(node, Unary):
        arg = _compile(node.arg, n, offsets)
        if node.op == "neg":
            return lambda rows, k: -arg(rows, k)
        if node.op == "abs":
            return lambda rows, k: abs(arg(rows, k))

        def sqrt(rows, k):
            v = arg(rows, k)
            if v < 0.0:
                raise EvalError(f"sqrt of negative value {v!r}")
            return math.sqrt(v)

        return sqrt
    if isinstance(node, Binary):
        left = _compile(node.left, n, offsets)
        right = _compile(node.right, n, offsets)
        if node.op == "+":
            return lambda rows, k: left(rows, k) + right(rows, k)
        if node.op == "-":
            return lambda rows, k: left(rows, k) - right(rows, k)
        if node.op == "*":
            return lambda rows, k: left(rows, k) * right(rows, k)
        if node.op == "/":

            def divide(rows, k):
                a = left(rows, k)
                b = right(rows, k)
                if b == 0.0:
                    raise EvalError("division by zero")
                return a / b

            return divide

        def power(rows, k):
            a = left(rows, k)
            b = right(rows, k)
            if a == 0.0 and b < 0.0:
                raise EvalError("zero base with negative exponent")
            if a < 0.0 and b != int(b):
                raise EvalError("fractional power of a negative base")
            try:
                return a**b
            except OverflowError as exc:
                raise EvalError(f"power overflow: {a!r}^{b!r}") from exc

        return power
    if isinstance(node, Aggregate):
        if node.op == "perim":
            # side i is entry (i, i + 1 mod n), summed in index order; each row
            # is read by index, so a measured view measures n entries
            if offsets is not None:
                offsets.add(1)
                return lambda rows, k: sum(rows[1][k:k + n])
            return lambda rows, k: sum(map(getitem, map(rows.__getitem__, range(n)),
                                           chain(range(k + 1, k + n), (k,))))
        args = [_compile(a, n, offsets) for a in node.args]
        pick = min if node.op == "min" else max
        return lambda rows, k: pick([f(rows, k) for f in args])
    return _raiser(TypeError, f"not an expression node: {node!r}")


def _raiser(error: type[Exception], *args: object) -> _Program:
    """A program that raises a fresh error(*args) whenever it runs."""

    def raise_(rows, k):
        raise error(*args)

    return raise_


def _finite(value: float) -> float:
    if not math.isfinite(value):
        raise EvalError(f"non-finite value {value!r}")
    return value


def evaluate(pc: ParsedCenter, D: DistanceMatrix) -> float:
    """Evaluate on a distance matrix. Division by zero, square roots of
    negatives, and fractional powers of negatives raise EvalError; index
    pairs that collide after mod-n reduction raise ExprIndexError.

    pc compiles once per n and keeps the result. Entries are read in place,
    views included."""
    program = pc._programs.get(D.n)
    if program is None:
        program = pc._programs[D.n] = _compile(pc.expr, D.n)
    return _finite(program(*D.rows_and_offset()))


def _chord_map(pc: ParsedCenter, p: Polygon) -> list[float]:
    """`evaluate(pc, R)` for R in `distance_matrix(p).rotations()`, bit for
    bit and error for error, from one `chords(p, s)` per offset s read, as
    hypot ignores sign; p's extent is the caller's to check."""
    compiled = pc._chord_programs.get(p.n)
    if compiled is None:
        offsets: set[int] = set()
        compiled = pc._chord_programs[p.n] = (_compile(pc.expr, p.n, offsets), offsets)
    program, offsets = compiled
    table = {s: chords(p, s) * 2 for s in offsets}
    return [_finite(program(table, k)) for k in range(p.n)]


# ----------------------------------------------------------------- admission


def center_function(pc: ParsedCenter) -> LengthCenterFunction:
    """The length center function that evaluates pc, and maps a polygon from
    its chords (`_chord_map`); checks no axiom."""
    return LengthCenterFunction(pc.source, lambda D: evaluate(pc, D),
                                all_shifts=lambda p: _chord_map(pc, p))


def admit(
    pc: ParsedCenter, n: int, seed: int = 0, trials: int = 64
) -> LengthCenterFunction:
    """Accept pc as a center function on n-gons, or raise AxiomViolation.

    Runs the trials of `verify_axioms` on random n-gons and raises at the
    first failing trial, naming the property and carrying a witness. On
    top of them, the slopes of all trials must agree with one
    natural-number homogeneity degree.
    """
    fg = center_function(pc)
    slopes: list[float] = []
    for trial in axiom_trials(fg, lambda rng: random_polygon(rng, n), trials, seed):
        D = trial.input
        if trial.relabel_gap() > CHECK_TOL:
            raise AxiomViolation(
                "relabel-invariance",
                f"{pc.source!r} distinguishes a matrix from its reversal "
                f"({trial.base!r} vs {trial.reversed!r})",
                witness={"matrix": D, "value": trial.base,
                         "reversed_value": trial.reversed},
            )
        if trial.motion_gap() > CHECK_TOL:
            raise AxiomViolation(
                "motion-invariance",
                f"{pc.source!r} changes under a rigid motion "
                f"({trial.base!r} vs {trial.moved!r})",
                witness={"matrix": D, "value": trial.base, "moved_value": trial.moved},
            )
        fit = trial.slope_fit()
        if fit is None:
            continue
        slope, dev = fit
        if dev > SLOPE_TOL:
            # a sign change across scales fits with infinite deviation
            why = (
                "changes sign under rescaling" if math.isinf(dev)
                else f"does not scale as a single power (fit deviation {dev:.3e})"
            )
            witness = {"matrix": D, "values": trial.scaled}
            raise AxiomViolation("homogeneity", f"{pc.source!r} {why}", witness=witness)
        slopes.append(slope)
    if slopes:
        mean = sum(slopes) / len(slopes)
        degree = round(mean)
        off = max(abs(s - degree) for s in slopes)
        if off > SLOPE_TOL or degree < 0:
            raise AxiomViolation(
                "homogeneity",
                f"{pc.source!r} has degree {mean:.6f}, not a natural number",
                witness={"slopes": tuple(slopes)},
            )
    return fg
