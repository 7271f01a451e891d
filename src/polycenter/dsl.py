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
import random
from functools import lru_cache
from itertools import islice
from typing import Callable, Iterator, Optional, Union

from .errors import EvalError, ExprIndexError, ExprSyntaxError
from .framework import LengthCenterFunction, _admitted, _trial_inputs, _trials
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

    __slots__ = ("base", "offset")  # base: "literal" | "n"; offset: int

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
    __slots__ = ("value",)  # float
    height = 1


class Dist(Frozen):
    __slots__ = ("i", "j", "pos")  # Index, Index, int: where it starts in the source
    _uncompared = ("pos",)
    _defaults = {"pos": 0}
    height = 1


class Unary(Frozen):
    __slots__ = ("op", "arg", "height")  # op: "neg" | "sqrt" | "abs"; arg: Expr
    _fields = ("op", "arg")

    def __post_init__(self) -> None:
        _set(self, "height", getattr(self.arg, "height", 0) + 1)


class Binary(Frozen):
    __slots__ = ("op", "left", "right", "height")  # op: "+" | "-" | "*" | "/" | "^"; Expr, Expr
    _fields = ("op", "left", "right")

    def __post_init__(self) -> None:
        _set(self, "height",
             max(getattr(self.left, "height", 0), getattr(self.right, "height", 0)) + 1)


class Aggregate(Frozen):
    __slots__ = ("op", "args", "height")  # op: "perim" | "min" | "max"; args: tuple[Expr, ...]
    _fields = ("op", "args")

    def __post_init__(self) -> None:
        _set(self, "height", max([getattr(a, "height", 0) for a in self.args], default=0) + 1)


Expr = Union[Const, Dist, Unary, Binary, Aggregate]


class ParsedCenter(Frozen):
    __slots__ = ("expr", "source", "_programs")  # Expr, str
    _fields = ("expr", "source")

    def __post_init__(self) -> None:
        # (n, mode) -> the tree compiled for n-gons (`_compile`): "matrix", "chord" with
        # its offsets, or "traced", the static facts with their coordinate programs
        _set(self, "_programs", {})


# ---------------------------------------------------------------- tokenizer


_OPS = set("+-*/^(),")


class _Token(Frozen):
    __slots__ = ("kind", "text", "pos")  # kind: "number" | "name" | "op" | "end"; str, int


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
        if ch.isdecimal():
            start = i
            while i < len(source) and source[i].isdecimal():
                i += 1
            if i < len(source) and source[i] == ".":
                i += 1
                if i >= len(source) or not source[i].isdecimal():
                    raise ExprSyntaxError("digits must follow a decimal point", i)
                while i < len(source) and source[i].isdecimal():
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


def _div(a: float, b: float) -> float:
    if b == 0.0:
        raise EvalError("division by zero")
    return a / b


def _sqrt(v: float) -> float:
    if v < 0.0:
        raise EvalError(f"sqrt of negative value {v!r}")
    return math.sqrt(v)


def _pow(a: float, b: float) -> float:
    if a == 0.0 and b < 0.0:
        raise EvalError("zero base with negative exponent")
    if a < 0.0 and b != int(b):
        raise EvalError("fractional power of a negative base")
    try:
        return a**b
    except OverflowError as exc:
        raise EvalError(f"power overflow: {a!r}^{b!r}") from exc


def _raise(error: type[Exception], *args: object) -> float:
    raise error(*args)


# The code of each operation on its operands' locals; as in a walk of the
# tree, any other unary op is sqrt and any other binary op is ^
_UNARY = {"neg": "-{}", "abs": "abs({})"}
_BINARY = {"+": "{} + {}", "-": "{} - {}", "*": "{} * {}", "/": "_div({}, {})"}
_MEASURE = "t * hypot(xs[{0}] - xs[{1}], ys[{0}] - ys[{1}])"  # entry (i, j) from coordinates


def _compile(node: Expr, n: int, offsets: Optional[set[int]] = None, *,
             coordinates: bool = False, traced: bool = False) -> Callable:
    """node for n-gons as one straight-line function, one local per node in
    post-order, each index pair resolved once. As f(rows, k) it reads entry
    (i, j) as rows[i + k][j + k] (`DistanceMatrix.rows_and_offset`); with a
    set of offsets, as entry i + k of chord list s = j - i mod n, adding
    each s read (`_chord_map`). With `coordinates`, as f(xs, ys, t) it
    measures entry (i, j) as t * hypot(xs[i] - xs[j], ys[i] - ys[j]), the
    bits that `distance_matrix` of the points holds there times t (hypot
    ignores sign). `perim` reads its sides, each a node, in index order
    into one list, with no addition, and on a rotation sums that list from
    side k on. Traced, it returns the value and every node's value (a 0
    from * or / may underflow: nan).
    Operands run left to right and give the values and errors a walk of the
    tree gives; a pair that collides at n, or a node that is not an
    expression, raises when reached. Constants and error arguments are
    bound in the function's globals, so its source holds only generated
    names, ints and operators."""
    scope: dict[str, object] = {"_div": _div, "_sqrt": _sqrt, "_pow": _pow,
                                "_raise": _raise, "nan": math.nan, "hypot": math.hypot}
    lines: list[str] = []
    values: list[str] = []

    def bind(value: object) -> str:
        name = f"c{len(scope)}"
        scope[name] = value
        return name

    def emit(e: Expr) -> str:
        if isinstance(e, Const):
            code = bind(e.value)
        elif isinstance(e, Dist):
            i, j = e.i.resolve(n), e.j.resolve(n)
            if i == j:
                message = f"d({e.i.render()},{e.j.render()}) collides at n={n}"
                code = f"_raise(*{bind((ExprIndexError, message, e.pos))})"
            elif coordinates:
                code = _MEASURE.format(i, j)
            elif offsets is None:
                code = f"rows[{i} + k][{j} + k]"
            else:
                offsets.add((j - i) % n)
                code = f"rows[{(j - i) % n}][{i} + k]"
        elif isinstance(e, Unary):
            code = _UNARY.get(e.op, "_sqrt({})").format(emit(e.arg))
        elif isinstance(e, Binary):
            code = _BINARY.get(e.op, "_pow({}, {})").format(emit(e.left), emit(e.right))
        elif isinstance(e, Aggregate) and e.op == "perim" and offsets is not None:
            offsets.add(1)
            code = f"sum(rows[1][k:k + {n}])"
        elif isinstance(e, Aggregate) and e.op == "perim":
            # side i is entry (i, i + 1 mod n), each a node, read in index
            # order; on a rotation they are summed from side k on (k < 0 wraps)
            sides, read = f"v{len(lines)}", _MEASURE if coordinates else "rows[{0}][{1}]"
            reads = ", ".join([read.format(i, (i + 1) % n) for i in range(n)])
            lines.append(f"    {sides} = [{reads}]\n")
            if not coordinates:
                lines.append(f"    {sides} = {sides}[k:] + {sides}[:k]\n")
            values.append(f"*{sides}")
            code = f"sum({sides})"
        elif isinstance(e, Aggregate):
            code = f"{'min' if e.op == 'min' else 'max'}([{', '.join(map(emit, e.args))}])"
        else:
            code = f"_raise(*{bind((TypeError, f'not an expression node: {e!r}'))})"
        local = f"v{len(lines)}"
        lines.append(f"    {local} = {code}\n")
        values.append(f"({local} or nan)" if isinstance(e, Binary) and e.op in ("*", "/")
                      else local)
        return local

    result = emit(node)
    if traced:
        result += f", ({', '.join(values)},)"
    params = "xs, ys, t" if coordinates else "rows, k"
    exec(compile(f"def f({params}):\n{''.join(lines)}    return {result}\n", "<expression>",
                 "exec"), scope)
    return scope["f"]


def _finite(value: float) -> float:
    if not math.isfinite(value):
        raise EvalError(f"non-finite value {value!r}")
    return value


def evaluate(pc: ParsedCenter, D: DistanceMatrix) -> float:
    """Evaluate on a distance matrix. Division by zero, square roots of
    negatives, and fractional powers of negatives raise EvalError; index
    pairs that collide after mod-n reduction raise ExprIndexError.

    pc compiles to a function once per n (`_compile`) and keeps it. Entries
    are read in place, through `D.rows_and_offset()`, so D builds no `d`."""
    program = pc._programs.get((D.n, "matrix"))
    if program is None:
        program = pc._programs[D.n, "matrix"] = _compile(pc.expr, D.n)
    return _finite(program(*D.rows_and_offset()))


def _chord_map(pc: ParsedCenter, p: Polygon) -> list[float]:
    """`evaluate(pc, R)` for R in `distance_matrix(p).rotations()`, bit for
    bit and error for error, from one `chords(p, s)` per offset s read, as
    hypot ignores sign; p's extent is the caller's to check."""
    compiled = pc._programs.get((p.n, "chord"))
    if compiled is None:
        offsets: set[int] = set()
        compiled = pc._programs[p.n, "chord"] = (_compile(pc.expr, p.n, offsets), offsets)
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
    """(symmetric, degrees, sample, measure) of pc on n-gons, once per n (`_walk`).
    `measure(c)` is `evaluate(pc, D)` for c = (xs, ys, t) and D the distance matrix
    of the points (xs[i], ys[i]) times t, and `sample(c)` that value, the least
    nonzero and the sum of the intermediate magnitudes: two coordinate programs
    (`_compile`), which read only the distances pc reads."""
    facts = pc._programs.get((n, "traced"))
    if facts is None:
        span, key, flipped = _walk(pc.expr, n)
        traced = _compile(pc.expr, n, coordinates=True, traced=True)
        program = _compile(pc.expr, n, coordinates=True)

        def sample(c: tuple) -> tuple[float, float, float]:
            value, values = traced(*c)
            magnitudes = [abs(v) for v in values if v] or [1.0]  # zeros stay zero at any scale
            return _finite(value), min(magnitudes), sum(magnitudes)

        def measure(c: tuple) -> float:
            return _finite(program(*c))

        facts = pc._programs[n, "traced"] = (key == flipped, span, sample, measure)
    return facts


# ----------------------------------------------------------------- admission


def center_function(pc: ParsedCenter) -> LengthCenterFunction:
    """The length center function that evaluates pc, and maps a polygon from
    its chords (`_chord_map`); checks no axiom."""
    return LengthCenterFunction(pc.source, lambda D: evaluate(pc, D),
                                all_shifts=lambda p: _chord_map(pc, p),
                                static_facts=lambda n: static_facts(pc, n))


_BANKED = 64  # admit's default trials, the number `_sample_set` keeps


def _polygon_inputs(n: int, rng: random.Random) -> Iterator[tuple]:
    """The trial inputs of the random n-gons rng draws."""
    return _trial_inputs(lambda r: random_polygon(r, n), rng, False)


@lru_cache(maxsize=1)
def _sample_set(n: int, seed: int) -> tuple[tuple[tuple, ...], tuple]:
    """The trial inputs of the first `_BANKED` random n-gons from
    Random(seed), and that Random's state after them. Only the last (n,
    seed) is kept, and it is never changed, so threads share it as it is."""
    rng = random.Random(seed)
    return tuple(islice(_polygon_inputs(n, rng), _BANKED)), rng.getstate()


def _shared_inputs(n: int, seed: int) -> Iterator[tuple]:
    """The trial inputs of random n-gons from Random(seed): the first
    `_BANKED` from `_sample_set`, the rest drawn afresh after them."""
    drawn, state = _sample_set(n, seed)
    yield from drawn
    rng = random.Random()
    rng.setstate(state)
    yield from _polygon_inputs(n, rng)


def admit(
    pc: ParsedCenter, n: int, seed: int = 0, trials: int = 64
) -> LengthCenterFunction:
    """Accept pc as a center function on n-gons, or raise AxiomViolation.

    Runs the trials of `verify_axioms` on random n-gons, which evaluate
    only what pc's tree does not imply, by its coordinate programs
    (`static_facts`). `framework._admitted` decides them, with the verdicts
    and tolerances of `verify_axioms`: it raises at the first failing
    trial, naming the property and carrying a witness, whose matrix is
    measured only then, and asks the slopes of all trials to agree with one
    natural-number homogeneity degree. A trial whose rescalings are its
    nonzero sample value times exact powers of two has the degree pc's tree
    proves as its slope, with no log-log fit. Its values are fitted only to
    word a violation of the degree rule, whose mean and slopes are then
    those `verify_axioms` fits.

    The n-gons depend on (n, seed) alone, so a process draws the inputs of
    the first `_BANKED` trials whole, the first time it admits at (n, seed),
    and every expression admitted there reads them again (`_sample_set`).
    They are never changed, so threads share them with no lock. The process
    keeps them for the last (n, seed) only: checked coordinate triples, no
    matrix, about 145 kB at n = 8 (tracemalloc). A cold admission that
    rejects at its first trial still draws all `_BANKED` trials, once.
    """
    fg = center_function(pc)
    return _admitted(fg, _trials(fg, _shared_inputs(n, seed), trials))
