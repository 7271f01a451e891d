"""The tree-walking expression evaluator, kept as the reference that the
compiled `polycenter.dsl.evaluate` must equal bit for bit, errors included.

It walks the tree on every call, resolving each index pair and reading each
entry through `D.d`, exactly as `dsl.evaluate` did before expressions were
compiled once per n.
"""

from __future__ import annotations

import math
from typing import Union

from polycenter.dsl import Aggregate, Binary, Const, Dist, Expr, ParsedCenter, Unary
from polycenter.errors import EvalError, ExprIndexError
from polycenter.geometry import DistanceMatrix


def reference_evaluate(expr_or_center: Union[Expr, ParsedCenter], D: DistanceMatrix) -> float:
    """Evaluate on a distance matrix. Division by zero, square roots of
    negatives, and fractional powers of negatives raise EvalError; index
    pairs that collide after mod-n reduction raise ExprIndexError."""
    e = expr_or_center.expr if isinstance(expr_or_center, ParsedCenter) else expr_or_center
    n = D.n

    def ev(node: Expr) -> float:
        if isinstance(node, Const):
            return node.value
        if isinstance(node, Dist):
            i = node.i.resolve(n)
            j = node.j.resolve(n)
            if i == j:
                raise ExprIndexError(
                    f"d({node.i.render()},{node.j.render()}) collides at n={n}",
                    node.pos,
                )
            return D.d[i][j]
        if isinstance(node, Unary):
            v = ev(node.arg)
            if node.op == "neg":
                return -v
            if node.op == "abs":
                return abs(v)
            if v < 0.0:
                raise EvalError(f"sqrt of negative value {v!r}")
            return math.sqrt(v)
        if isinstance(node, Binary):
            a = ev(node.left)
            b = ev(node.right)
            if node.op == "+":
                return a + b
            if node.op == "-":
                return a - b
            if node.op == "*":
                return a * b
            if node.op == "/":
                if b == 0.0:
                    raise EvalError("division by zero")
                return a / b
            # pow
            if a == 0.0 and b < 0.0:
                raise EvalError("zero base with negative exponent")
            if a < 0.0 and b != int(b):
                raise EvalError("fractional power of a negative base")
            try:
                return a**b
            except OverflowError as exc:
                raise EvalError(f"power overflow: {a!r}^{b!r}") from exc
        if isinstance(node, Aggregate):
            if node.op == "perim":
                return sum(D.d[i][(i + 1) % n] for i in range(n))
            vals = [ev(a) for a in node.args]
            return min(vals) if node.op == "min" else max(vals)
        raise TypeError(f"not an expression node: {node!r}")

    value = ev(e)
    if not math.isfinite(value):
        raise EvalError(f"non-finite value {value!r}")
    return value
