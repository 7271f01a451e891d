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
import threading
from collections.abc import Sequence
from itertools import chain
from operator import getitem
from typing import Callable, Optional, Union

from .errors import AxiomViolation, EvalError, ExprIndexError, ExprSyntaxError
from .framework import CHECK_TOL, SLOPE_TOL, LengthCenterFunction, axiom_trials
from .geometry import DistanceMatrix, Frozen, Polygon, _set, chords
from .sampling import random_polygon

# Deepest nesting (parentheses, calls, powers, signs) and tallest tree (node
# `height`; each + - * / of a chain adds a level) the parser accepts; parsing,
# evaluation and printing recurse once per level.
MAX_DEPTH = 100
# Longest index integer, a literal or an offset, the parser accepts: far past
# any vertex count, and short enough that a sum of them converts to and from
# a string under every interpreter limit on integer digits (640 at the least).
MAX_INDEX_DIGITS = 300


# ------------------------------------------------------------------- syntax


class Index(Frozen):
    """A vertex index: a literal, or an offset from n."""

    __slots__ = ("base", "offset")  # base: "literal" | "n"

    def __init__(self, base: str, offset: int) -> None:
        _set(self, "base", base)
        _set(self, "offset", offset)

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


class Const(Frozen):
    __slots__ = ("value",)
    height = 1

    def __init__(self, value: float) -> None:
        _set(self, "value", value)


class Dist(Frozen):
    __slots__ = ("i", "j", "pos")
    _uncompared = ("pos",)
    height = 1

    def __init__(self, i: Index, j: Index, pos: int = 0) -> None:
        _set(self, "i", i)
        _set(self, "j", j)
        _set(self, "pos", pos)


class Unary(Frozen):
    __slots__ = ("op", "arg", "height")  # op: "neg" | "sqrt" | "abs"
    _fields = ("op", "arg")

    def __init__(self, op: str, arg: "Expr") -> None:
        _set(self, "op", op)
        _set(self, "arg", arg)
        _set(self, "height", getattr(arg, "height", 0) + 1)


class Binary(Frozen):
    __slots__ = ("op", "left", "right", "height")  # op: "+" | "-" | "*" | "/" | "^"
    _fields = ("op", "left", "right")

    def __init__(self, op: str, left: "Expr", right: "Expr") -> None:
        _set(self, "op", op)
        _set(self, "left", left)
        _set(self, "right", right)
        _set(self, "height", max(getattr(left, "height", 0), getattr(right, "height", 0)) + 1)


class Aggregate(Frozen):
    __slots__ = ("op", "args", "height")  # op: "perim" | "min" | "max"
    _fields = ("op", "args")

    def __init__(self, op: str, args: tuple["Expr", ...]) -> None:
        _set(self, "op", op)
        _set(self, "args", args)
        _set(self, "height", max([getattr(a, "height", 0) for a in args], default=0) + 1)


Expr = Union[Const, Dist, Unary, Binary, Aggregate]


class ParsedCenter(Frozen):
    __slots__ = ("expr", "source", "_programs", "_chord_programs", "_facts")
    _fields = ("expr", "source")

    def __init__(self, expr: Expr, source: str) -> None:
        _set(self, "expr", expr)
        _set(self, "source", source)
        _set(self, "_programs", {})  # n -> the tree compiled for n-gons (`_compile`)
        _set(self, "_chord_programs", {})  # n -> the tree compiled to read chords, its offsets
        _set(self, "_facts", {})  # n -> the tree's static facts at n (`static_facts`)


# ---------------------------------------------------------------- tokenizer


_OPS = set("+-*/^(),")


class _Token(Frozen):
    __slots__ = ("kind", "text", "pos")  # kind: "number" | "name" | "op" | "end"

    def __init__(self, kind: str, text: str, pos: int) -> None:
        _set(self, "kind", kind)
        _set(self, "text", text)
        _set(self, "pos", pos)


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
            value = float(tok.text)
            if value == math.inf:
                raise ExprSyntaxError("number out of float range", tok.pos)
            return Const(value)
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
            base, offset = "literal", _index_integer(tok)
        else:
            raise ExprSyntaxError("index must be an integer or n±integer", tok.pos)
        while self.peek().kind == "op" and self.peek().text in "+-":
            sign = 1 if self.take().text == "+" else -1
            num = self.take()
            if num.kind != "number" or "." in num.text:
                raise ExprSyntaxError("index offset must be an integer", num.pos)
            offset += sign * _index_integer(num)
        if base == "literal" and offset < 1:
            raise ExprIndexError(f"literal index {offset} is below 1", tok.pos)
        return Index(base, offset)


def _index_integer(tok: _Token) -> int:
    if len(tok.text) > MAX_INDEX_DIGITS:
        raise ExprSyntaxError(f"index integer longer than {MAX_INDEX_DIGITS} digits", tok.pos)
    return int(tok.text)


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
_Trace = threading.local  # .values: the list a traced program appends to, one per thread


def _compile(node: Expr, n: int, offsets: Optional[set[int]] = None) -> _Program:
    """node for n-gons as nested closures, each index pair resolved once;
    with a set of offsets, reading chord lists and adding each offset read.

    Operands run left to right and give the values and errors a walk of the
    tree gives; a pair that collides at n, or a node that is not an
    expression, becomes a closure that raises when it runs."""
    return _program(node, n, offsets, None)


def _program(node: Expr, n: int, offsets: Optional[set[int]], trace: Optional[_Trace]) -> _Program:
    """`_compile`, also appending values to `trace.values` (a 0 from * or / may underflow: nan)."""
    program = _closure(node, n, offsets, trace)
    if trace is None:
        return program
    suspect = isinstance(node, Binary) and node.op in ("*", "/")

    def traced(rows, k):
        value = program(rows, k)
        trace.values.append(value if value or not suspect else math.nan)
        return value

    return traced


def _closure(node: Expr, n: int, offsets: Optional[set[int]], trace: Optional[_Trace]) -> _Program:
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
        arg = _program(node.arg, n, offsets, trace)
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
        left = _program(node.left, n, offsets, trace)
        right = _program(node.right, n, offsets, trace)
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
            if trace is not None:  # each side is an intermediate value too
                sides = [_program(Dist(Index("literal", i), Index("literal", i % n + 1)), n,
                                  None, trace) for i in range(1, n + 1)]
                return lambda rows, k: sum([side(rows, k) for side in sides])
            return lambda rows, k: sum(map(getitem, map(rows.__getitem__, range(n)),
                                           chain(range(k + 1, k + n), (k,))))
        args = [_program(a, n, offsets, trace) for a in node.args]
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
    through `D.rows_and_offset()`, so D builds no `d`."""
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


def _walk(e: Expr, n: int) -> tuple[Optional[tuple[int, int, int]], tuple, tuple]:
    """e's degree with its nodes' least and greatest (or None); e at n-gons as keys, as given
    and after the reversal fixing vertex 1 (d(i,j) is d(j,i), + and * operands sorted)."""
    if isinstance(e, Const):
        return (0, 0, 0), ("c", repr(e.value)), ("c", repr(e.value))  # -0.0 is not 0.0
    if isinstance(e, Dist):
        ends = [e.i.resolve(n), e.j.resolve(n)]
        return (1, 1, 1), ("d", *sorted(ends)), ("d", *sorted([-i % n for i in ends]))
    # perim reverses its sum's order; a non-expression node raises when evaluated
    if getattr(e, "op", "perim") == "perim":
        return (1, 1, 1), ("perim",), ("perim reversed",)
    children = (e.arg,) if isinstance(e, Unary) else (
        (e.left, e.right) if isinstance(e, Binary) else e.args)
    spans, keys, flipped = zip(*[_walk(c, n) for c in children])
    if e.op in ("+", "*"):  # exactly commutative in IEEE arithmetic; nothing is reassociated
        keys, flipped = sorted(keys), sorted(flipped)
    ks = [span[0] for span in spans if span]
    if e.op == "^" or len(ks) < len(spans) or (e.op == "sqrt" and ks[0] % 2):
        k = None
    elif e.op in ("*", "/", "sqrt"):
        k = ks[0] + ks[1] if e.op == "*" else ks[0] - ks[1] if e.op == "/" else ks[0] // 2
    else:
        k = ks[0] if len(set(ks)) == 1 else None
    span = k if k is None else (k, min(k, *[s[1] for s in spans]), max(k, *[s[2] for s in spans]))
    return span, (e.op, *keys), (e.op, *flipped)


def static_facts(pc: ParsedCenter, n: int) -> tuple:
    """(symmetric, degrees, sample) of pc on n-gons, once per n (`_walk`): `sample(D)` is
    `evaluate(pc, D)`, the least nonzero and the sum of the intermediate magnitudes."""
    if n not in pc._facts:
        span, key, flipped = _walk(pc.expr, n)
        trace = _Trace()
        program = _program(pc.expr, n, None, trace if span else None)

        def sample(D: DistanceMatrix) -> tuple[float, float, float]:
            trace.values = values = []
            value = _finite(program(*D.rows_and_offset()))
            magnitudes = [abs(v) for v in values if v] or [1.0]  # zeros stay zero at any scale
            return value, min(magnitudes), sum(magnitudes)

        pc._facts[n] = (key == flipped, span, sample)
    return pc._facts[n]


# ----------------------------------------------------------------- admission


def center_function(pc: ParsedCenter) -> LengthCenterFunction:
    """The length center function that evaluates pc, and maps a polygon from
    its chords (`_chord_map`); checks no axiom."""
    return LengthCenterFunction(pc.source, lambda D: evaluate(pc, D),
                                all_shifts=lambda p: _chord_map(pc, p),
                                static_facts=lambda n: static_facts(pc, n))


def admit(
    pc: ParsedCenter, n: int, seed: int = 0, trials: int = 64
) -> LengthCenterFunction:
    """Accept pc as a center function on n-gons, or raise AxiomViolation.

    Runs the trials of `verify_axioms` on random n-gons, which evaluate
    only what pc's tree does not imply (`static_facts`), and raises at the
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
