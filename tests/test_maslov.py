import numpy as np
import pytest

from maxrep.errors import NearSingular, NotMaximal, NotTransverse
from maxrep.maslov import (
    Triple,
    _triple_indices,
    indefinite_identity,
    maslov,
    normalize_maximal_triple,
    normalize_pair,
)
from maxrep.matcore import DEFAULT_TOL, Tolerance
from maxrep.symplectic import (
    INFINITY,
    finite_point,
    identity_point,
    moebius_act,
    _point_stack,
    point_distance,
    zero_point,
)
from tests_support import random_boundary_point, random_spd, random_symplectic, random_transverse_points
from oracles import cayley, maslov_by_normalization, normalize_pair_by_moves, normalize_triple_by_moves


def scalar_point(x: float):
    return finite_point(np.array([[x]]))


def assert_close(a, b, rel: float):
    """Entrywise within rel * max(1, |b|)."""
    assert np.abs(a - b).max() <= rel * max(1.0, np.abs(b).max())


class TestNormalizePair:
    def test_already_standard(self):
        g = normalize_pair(zero_point(2), INFINITY)
        assert point_distance(moebius_act(g, zero_point(2)), zero_point(2)) <= 1e-14
        assert moebius_act(g, INFINITY).is_infinity

    def test_translation_case(self, rng):
        y = rng.normal(size=(2, 2))
        y = finite_point((y + y.T) / 2)
        g = normalize_pair(y, INFINITY)
        assert point_distance(moebius_act(g, y), zero_point(2)) <= 1e-12
        assert moebius_act(g, INFINITY).is_infinity

    def test_scalar_pair(self):
        g = normalize_pair(scalar_point(-1.0), scalar_point(1.0))
        assert point_distance(moebius_act(g, scalar_point(-1.0)), zero_point(1)) <= 1e-12
        assert moebius_act(g, scalar_point(1.0)).is_infinity

    def test_infinite_first(self, rng):
        pts = random_transverse_points(2, rng, 1, p_infinity=0.0)
        g = normalize_pair(INFINITY, pts[0])
        assert point_distance(moebius_act(g, INFINITY), zero_point(2)) <= 1e-12
        assert moebius_act(g, pts[0]).is_infinity

    def test_rejects_non_transverse(self):
        # the fields of maslov's pair check: two infinities measure 0, and the
        # bound scales with the larger point
        x, y = finite_point(np.diag([4.0, 2.0])), finite_point(np.diag([4.0, 3.0]))
        for p1, p3, bound in ((INFINITY, INFINITY, DEFAULT_TOL.eq_tol), (x, y, 4 * DEFAULT_TOL.eq_tol)):
            with pytest.raises(NotTransverse, match="cannot normalize a non-transverse pair") as info:
                normalize_pair(p1, p3)
            e = info.value
            assert (e.stage, e.measured, e.bound) == ("pair transversality", 0.0, bound)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_matches_elementary_moves(self, rng, n):
        # infinity first, last or absent
        for trial in range(30):
            p1, p3 = random_transverse_points(n, rng, 2, p_infinity=0.0)
            p1, p3 = ((INFINITY, p3), (p1, INFINITY), (p1, p3))[trial % 3]
            assert_close(normalize_pair(p1, p3).m, normalize_pair_by_moves(p1, p3).m, 1e-12)


class TestMaslovValues:
    @pytest.mark.parametrize("n", range(1, 6))
    def test_anchor(self, n):
        for k in range(n + 1):
            t = Triple(zero_point(n), finite_point(indefinite_identity(n, k)), INFINITY)
            assert maslov(t) == 2 * k - n

    def test_balanced_middle(self):
        t = Triple(zero_point(2), finite_point(np.diag([1.0, -1.0])), INFINITY)
        assert maslov(t) == 0

    def test_three_reals(self):
        assert maslov(Triple(scalar_point(-1.0), scalar_point(0.0), scalar_point(1.0))) == 1

    def test_scalar_orientation_oracle(self, rng):
        # independent oracle for n = 1: the index is the cyclic orientation of
        # three distinct reals, +1 when (x2-x1)(x3-x2)(x3-x1) > 0
        for _ in range(50):
            x1, x2, x3 = rng.normal(scale=2.0, size=3)
            if min(abs(x1 - x2), abs(x2 - x3), abs(x1 - x3)) < 1e-3:
                continue
            expected = int(np.sign((x2 - x1) * (x3 - x2) * (x3 - x1)))
            t = Triple(scalar_point(x1), scalar_point(x2), scalar_point(x3))
            assert maslov(t) == expected

    def test_cayley_circle_cross_check(self):
        # images of an increasing real triple wind counterclockwise on the circle
        xs = (-1.0, 0.0, 2.0)
        angles = [np.angle(complex(cayley(np.array([[x]]))[0, 0])) for x in xs]
        a, b, c = angles
        ccw = ((b - a) % (2 * np.pi)) < ((c - a) % (2 * np.pi))
        t = Triple(*(scalar_point(x) for x in xs))
        assert (maslov(t) == 1) == ccw


class TestMaslovProperties:
    def test_alternating(self, rng):
        for _ in range(40):
            n = int(rng.integers(1, 4))
            p1, p2, p3 = random_transverse_points(n, rng, 3)
            b = maslov(Triple(p1, p2, p3))
            assert maslov(Triple(p2, p1, p3)) == -b
            assert maslov(Triple(p1, p3, p2)) == -b
            assert maslov(Triple(p3, p2, p1)) == -b
            assert maslov(Triple(p2, p3, p1)) == b
            assert maslov(Triple(p3, p1, p2)) == b

    def test_symplectic_invariance(self, rng):
        for _ in range(40):
            n = int(rng.integers(1, 4))
            p1, p2, p3 = random_transverse_points(n, rng, 3)
            g = random_symplectic(n, rng)
            b = maslov(Triple(p1, p2, p3))
            imgs = [moebius_act(g, p) for p in (p1, p2, p3)]
            assert maslov(Triple(*imgs)) == b

    def test_cocycle(self, rng):
        for _ in range(40):
            n = int(rng.integers(1, 4))
            p0, p1, p2, p3 = random_transverse_points(n, rng, 4)
            total = (maslov(Triple(p1, p2, p3)) - maslov(Triple(p0, p2, p3))
                     + maslov(Triple(p0, p1, p3)) - maslov(Triple(p0, p1, p2)))
            assert total == 0

    def test_range_and_parity(self, rng):
        for _ in range(40):
            n = int(rng.integers(1, 5))
            pts = random_transverse_points(n, rng, 3)
            b = maslov(Triple(*pts))
            assert -n <= b <= n and (b - n) % 2 == 0


class TestAgainstNormalization:
    """The difference-signature index against the normalization oracle."""

    @pytest.mark.parametrize("n", range(1, 6))
    def test_random_triples(self, rng, n):
        for trial in range(40):
            pts = random_transverse_points(n, rng, 3, p_infinity=0.0)
            slot = trial % 4   # infinity in slot 1, 2 or 3, or nowhere
            if slot < 3:
                pts[slot] = INFINITY
            assert maslov(Triple(*pts)) == maslov_by_normalization(*pts)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_stacked_indices_match_per_triple(self, rng, n):
        pts = random_transverse_points(n, rng, 8, p_infinity=0.0)
        pts.insert(3, INFINITY)
        triples = [tuple(rng.permutation(len(pts))[:3]) for _ in range(60)]
        index, refusals = _triple_indices(_point_stack(pts), triples, DEFAULT_TOL)
        assert refusals == [None] * len(triples)
        assert index == [maslov(Triple(*(pts[i] for i in t))) for t in triples]

    def test_stacked_refusals_name_the_pair(self):
        a, b = scalar_point(1.0), scalar_point(2.0)
        pts = [a, b, INFINITY, a, INFINITY]
        triples = [(0, 1, 2), (0, 3, 1), (0, 1, 3), (1, 0, 3), (2, 0, 4), (0, 1, 1)]
        index, refusals = _triple_indices(_point_stack(pts), triples, DEFAULT_TOL)
        assert index[0] == maslov(Triple(a, b, INFINITY)) == 1
        assert [None if r is None else str(r) for r in refusals] == [
            None,
            "points 1 and 2 are not transverse",
            "points 1 and 3 are not transverse",
            "points 2 and 3 are not transverse",
            "points 1 and 3 are not transverse",
            "points 2 and 3 are not transverse",
        ]

    def test_tolerance_is_applied_to_every_pair(self):
        t = Triple(zero_point(2), finite_point(np.diag([1.0, 1e-3])), INFINITY)
        assert maslov(t) == 2
        with pytest.raises(NotTransverse, match="points 1 and 2"):
            maslov(t, Tolerance(eq_tol=1e-2))

    def test_triple_is_checked_at_the_callers_tolerance_only(self):
        # building a Triple checks nothing; maslov checks at its own tol
        t = Triple(zero_point(2), finite_point(np.diag([1.0, 1e-10])), INFINITY)
        assert maslov(t, Tolerance(eq_tol=1e-12)) == 2
        with pytest.raises(NotTransverse, match="points 1 and 2") as info:
            maslov(t)
        e = info.value
        assert (e.stage, e.measured, e.bound) == ("pair transversality", 1e-10, DEFAULT_TOL.eq_tol)

    def test_refusal_fields(self):
        # the bound scales with the larger point; two infinities measure 0
        x = finite_point(np.diag([4.0, 2.0]))
        y = finite_point(np.diag([4.0, 3.0]))
        cases = [((x, y, INFINITY), "points 1 and 2", 0.0, 4 * DEFAULT_TOL.eq_tol),
                 ((INFINITY, x, INFINITY), "points 1 and 3", 0.0, DEFAULT_TOL.eq_tol)]
        for pts, which, measured, bound in cases:
            with pytest.raises(NotTransverse, match=which) as info:
                maslov(Triple(*pts))
            e = info.value
            assert (e.stage, e.measured, e.bound) == ("pair transversality", measured, bound)


class TestMaximality:
    def test_standard_triple(self):
        assert maslov(Triple(zero_point(2), identity_point(2), INFINITY)) == 2
        assert maslov(Triple(zero_point(2), finite_point(-np.eye(2)), INFINITY)) == -2

    def test_invariance_under_symplectic(self, rng):
        g = random_symplectic(3, rng)
        imgs = [moebius_act(g, p) for p in
                (zero_point(3), identity_point(3), INFINITY)]
        assert maslov(Triple(*imgs)) == 3

    def test_normalize_standard(self):
        h = normalize_maximal_triple(Triple(zero_point(2), identity_point(2), INFINITY))
        np.testing.assert_allclose(h.m, np.eye(4), atol=1e-12)

    def test_normalize_scaled_middle(self):
        h = normalize_maximal_triple(Triple(zero_point(2), finite_point(4 * np.eye(2)), INFINITY))
        np.testing.assert_allclose(h.m, np.diag([0.5, 0.5, 2.0, 2.0]), atol=1e-12)

    def test_normalize_random_maximal(self, rng):
        for _ in range(20):
            n = int(rng.integers(1, 4))
            g = random_symplectic(n, rng)
            triple = Triple(*[moebius_act(g, p) for p in
                              (zero_point(n), identity_point(n), INFINITY)])
            h = normalize_maximal_triple(triple)
            assert point_distance(moebius_act(h, triple.p1), zero_point(n)) <= 1e-8
            assert point_distance(moebius_act(h, triple.p2), identity_point(n)) <= 1e-8
            assert moebius_act(h, triple.p3).is_infinity

    def test_rejects_non_maximal(self):
        with pytest.raises(NotMaximal, match="triple has index -2, expected 2") as info:
            normalize_maximal_triple(Triple(zero_point(2), finite_point(-np.eye(2)), INFINITY))
        e = info.value
        assert (e.stage, e.measured, e.bound) == ("maslov index", -2, 2)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_matches_elementary_moves(self, rng, n):
        # maximal triples with infinity first, in the middle, last or absent:
        # (inf, X, X + P), (X + P, inf, X), (X, X + P, inf) for P positive
        # definite, and a symplectic image of (0, e, inf)
        for trial in range(40):
            x = random_boundary_point(n, rng, p_infinity=0.0)
            y = finite_point(x.value + random_spd(n, rng, (0.2, 5.0)))
            g = random_symplectic(n, rng)
            pts = ([INFINITY, x, y], [y, INFINITY, x], [x, y, INFINITY],
                   [moebius_act(g, p) for p in (zero_point(n), identity_point(n), INFINITY)])[trial % 4]
            h = normalize_maximal_triple(Triple(*pts))
            assert_close(h.m, normalize_triple_by_moves(*pts).m, 1e-12)

    def test_rejects_middle_point_in_zero_band(self):
        # index 2 with every pair transverse, but the normalized middle point
        # is about diag(1e6, 1e-6), whose spectrum spans more than 1 / eq_tol
        t = Triple(zero_point(2), finite_point(np.diag([1.0, 1e-6])),
                   finite_point(np.diag([1.0 + 1e-6, 1.0])))
        assert maslov(t) == 2
        with pytest.raises(NearSingular, match="zero band") as info:
            normalize_maximal_triple(t)
        assert info.value.stage == "middle point spectrum"
        assert info.value.measured == pytest.approx(1e-6, rel=1e-5)
        assert info.value.bound == pytest.approx(1e-3, rel=1e-5)

    def test_checks_at_the_callers_tolerance(self):
        # diag(1, 1e-10) is transverse to 0 at eq_tol 1e-12 only
        t = Triple(zero_point(2), finite_point(np.diag([1.0, 1e-10])), INFINITY)
        h = normalize_maximal_triple(t, Tolerance(eq_tol=1e-12))
        assert point_distance(moebius_act(h, t.p2), identity_point(2)) <= 1e-12
        with pytest.raises(NotTransverse, match="points 1 and 2"):
            normalize_maximal_triple(t)
