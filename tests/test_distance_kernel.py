"""`distance_matrix` is the one place pairwise distances are measured.

Each function that now reads it is compared with its former per-pair
implementation, kept here as the reference; the diameter's is
`reference_solvers.diameter`.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_solvers as ref
from polycenter.errors import DomainViolation, NonFinite
from polycenter.geometry import DistanceMatrix, Point2, Polygon, distance_matrix, is_nondegenerate
from polycenter.sampling import random_polygon


def reference_distance_matrix(p):
    n = p.n
    rows = [[0.0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            dij = p.vertices[i].distance_to(p.vertices[j])
            rows[i][j] = dij
            rows[j][i] = dij
    return DistanceMatrix.from_rows(rows)


def reference_is_nondegenerate(p):
    vs = p.vertices
    return all(
        vs[i].distance_to(vs[j]) != 0.0 for i in range(p.n) for j in range(i + 1, p.n)
    )


def reference_random_polygon(rng, n, min_separation=5e-2):
    while True:
        pts = [Point2(rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0)) for _ in range(n)]
        if all(
            pts[i].distance_to(pts[j]) >= min_separation
            for i in range(n)
            for j in range(i + 1, n)
        ):
            return Polygon(tuple(pts))


# Below 1e150 no distance can overflow; overflow has its own tests.
COORDS = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0]),
    st.floats(min_value=-1e150, max_value=1e150, allow_nan=False),
)


def flip_zero(c, flip):
    return -c if flip and c == 0.0 else c


@st.composite
def polygons(draw):
    """3 to 40 vertices picked from a smaller pool, so many repeat, some
    with the sign of a zero coordinate flipped."""
    pool = draw(st.lists(st.tuples(COORDS, COORDS), min_size=1, max_size=40))
    n = draw(st.integers(3, 40))
    picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=n, max_size=n))
    flips = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    return Polygon.from_pairs(
        [(flip_zero(pool[k][0], f), flip_zero(pool[k][1], f)) for k, f in zip(picks, flips)]
    )


@settings(max_examples=200, deadline=None)
@given(polygons())
def test_kernel_matches_the_per_pair_references(p):
    D = distance_matrix(p)
    # repr tells -0.0 from 0.0 and round-trips every float: bit for bit
    assert repr(D.d) == repr(reference_distance_matrix(p).d)
    assert DistanceMatrix.from_rows(D.d).d == D.d
    assert is_nondegenerate(p) == reference_is_nondegenerate(p)
    assert repr(p.diameter()) == repr(ref.diameter(p))


def test_signed_zeros_are_one_point():
    p = Polygon.from_pairs([(0.0, 1.0), (-0.0, 1.0), (2.0, 3.0)])
    assert not is_nondegenerate(p) and not reference_is_nondegenerate(p)


def test_measuring_does_not_revalidate(monkeypatch):
    validations = []
    original = DistanceMatrix.__post_init__

    def counted(self):
        validations.append(self)
        original(self)

    monkeypatch.setattr(DistanceMatrix, "__post_init__", counted)
    distance_matrix(Polygon.from_pairs([(0, 0), (3, 0), (0, 4)]))
    assert validations == []
    DistanceMatrix.from_rows([[0, 3, 4], [3, 0, 5], [4, 5, 0]])
    assert len(validations) == 1


def test_overflow_is_a_nonfinite_domain_violation():
    assert issubclass(NonFinite, DomainViolation) and issubclass(NonFinite, ValueError)
    far = Polygon.from_pairs([(-1e308, 0.0), (1e308, 0.0), (0.0, 1.0)])
    with pytest.raises(NonFinite, match="polygon extent must be finite"):
        distance_matrix(far)
    with pytest.raises(NonFinite):
        far.diameter()
    # the extent check is conservative: this box's diagonal overflows
    # although its largest pairwise distance, 1.3e308, does not
    s = 1.3e308
    box = Polygon.from_pairs([(0.0, s / 2), (s / 2, 0.0), (s, s / 2), (s / 2, s)])
    assert reference_distance_matrix(box).max_entry() == s
    with pytest.raises(NonFinite):
        distance_matrix(box)


def test_random_polygon_makes_the_same_draws():
    for seed in range(20):
        for n in (3, 8, 32):
            # a separation that rejects some draws at every size
            sep = 0.6 if n < 32 else 0.1
            rng, ref = random.Random(seed), random.Random(seed)
            got = random_polygon(rng, n, min_separation=sep)
            assert got == reference_random_polygon(ref, n, sep)
            assert rng.getstate() == ref.getstate()
