import numpy as np
import pytest

from maxrep.errors import IllConditioned, NotSymplectic
from maxrep.matcore import DEFAULT_TOL, Tolerance, norm_inf
from maxrep.pants import PantsParams, build_maximal
from maxrep.symplectic import (
    INFINITY,
    _make_symplectics,
    cycle_symplectic,
    diag_symplectic,
    finite_point,
    identity_point,
    make_symplectic,
    moebius_act,
    point_distance,
    shear_symplectic,
    sp_identity,
    sp_inverse,
    swap_symplectic,
    translation_symplectic,
    transverse,
    zero_point,
)
from tests_support import (
    assert_slices_match,
    transversality_margin,
    random_boundary_point,
    random_invertible,
    random_spd,
    random_symplectic,
    random_transverse_points,
)
from oracles import NotInvertible, cayley, inverse_cayley


class TestMakeSymplectic:
    def test_identity(self):
        g = make_symplectic(np.eye(2), np.zeros((2, 2)), np.zeros((2, 2)), np.eye(2))
        np.testing.assert_allclose(g.m, np.eye(4))

    def test_diag_block(self, rng):
        x = random_invertible(3, rng)
        g = make_symplectic(x, np.zeros((3, 3)), np.zeros((3, 3)), np.linalg.inv(x.T))
        assert g.n == 3

    def test_translation_needs_symmetry(self):
        b = np.array([[1.0, 0.5], [0.5, 2.0]])
        make_symplectic(np.eye(2), b, np.zeros((2, 2)), np.eye(2))
        b_bad = np.array([[1.0, 0.5], [-0.5, 2.0]])
        with pytest.raises(NotSymplectic):
            make_symplectic(np.eye(2), b_bad, np.zeros((2, 2)), np.eye(2))

    def test_blocks_of_mixed_sizes_refused(self):
        # a 1 x 1 block must not fill a 2 x 2 slot
        with pytest.raises(ValueError):
            make_symplectic(np.eye(2), [[0.0]], np.zeros((2, 2)), np.eye(2))

    def test_reports_worst_relation(self):
        with pytest.raises(NotSymplectic, match="D\\^T B"):
            make_symplectic(np.eye(2), np.array([[0.0, 1.0], [-1.0, 0.0]]),
                            np.zeros((2, 2)), np.eye(2))

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_stack_matches_one_slice_calls(self, n, rng):
        # NaN, Inf, singular and non-symplectic slices between good ones
        def blocks(m):
            return tuple(m[i * n:(i + 1) * n, j * n:(j + 1) * n] for i in (0, 1) for j in (0, 1))
        good = [blocks(random_symplectic(n, rng).m) for _ in range(3)]
        nan, inf = (np.array(good[0]) for _ in range(2))
        nan[1, 0, 0], inf[3, -1, -1] = np.nan, np.inf
        cases = [good[0], tuple(nan), good[1], tuple(inf), (np.zeros((n, n)),) * 4,
                 blocks(random_invertible(2 * n, rng)), good[2]]
        stacked = _make_symplectics(*(np.array(x) for x in zip(*cases)), DEFAULT_TOL)
        assert_slices_match(stacked, make_symplectic, cases)
        assert stacked.live == [0, 2, 6]

    def test_overflowed_defect_refused(self):
        # 1e160^2 overflows and inf - inf makes the defect NaN, which passes
        # any bound, so this singular matrix must be refused, without warnings
        with pytest.raises(IllConditioned):
            make_symplectic([[1e160]], [[1e160]], [[1e160]], [[1e160]])

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_stack_refuses_only_the_overflowed_slices(self, n, rng):
        # a NaN defect (every block 1e160 I) and an Inf one (A = D = 1e160 I)
        # between good slices; RuntimeWarnings are errors in this suite
        def blocks(m):
            return tuple(m[i * n:(i + 1) * n, j * n:(j + 1) * n] for i in (0, 1) for j in (0, 1))
        big, zero = 1e160 * np.eye(n), np.zeros((n, n))
        good = [blocks(random_symplectic(n, rng).m) for _ in range(3)]
        cases = [good[0], (big,) * 4, good[1], (big, zero, zero, big), good[2]]
        stacked = _make_symplectics(*(np.array(x) for x in zip(*cases)), DEFAULT_TOL)
        assert_slices_match(stacked, make_symplectic, cases)
        assert stacked.live == [0, 2, 4]
        assert all(isinstance(stacked.refusals[i], IllConditioned) for i in (1, 3))


class TestInverse:
    def test_identity(self):
        g = sp_identity(2)
        np.testing.assert_allclose(sp_inverse(g).m, np.eye(4))

    def test_two_by_two_formula(self):
        a, b, c, d = 2.0, 3.0, 1.0, 2.0  # ad - bc = 1
        g = make_symplectic([[a]], [[b]], [[c]], [[d]])
        np.testing.assert_allclose(sp_inverse(g).m, [[d, -b], [-c, a]])

    def test_random_inverse(self, rng):
        for _ in range(10):
            n = int(rng.integers(1, 4))
            g = random_symplectic(n, rng)
            np.testing.assert_allclose((g @ sp_inverse(g)).m, np.eye(2 * n), atol=1e-12)
            np.testing.assert_allclose((sp_inverse(g) @ g).m, np.eye(2 * n), atol=1e-12)

    def test_involution(self, rng):
        g = random_symplectic(2, rng)
        np.testing.assert_allclose(sp_inverse(sp_inverse(g)).m, g.m, atol=1e-14)


class TestMoebius:
    def test_diag_block_action(self, rng):
        # oracle: direct substitution X -> A X A^T
        a = random_invertible(2, rng)
        g = diag_symplectic(a)
        x = random_spd(2, rng)
        img = moebius_act(g, finite_point(x))
        np.testing.assert_allclose(img.value, a @ x @ a.T, atol=1e-12)

    def test_translation(self, rng):
        b = random_spd(2, rng)
        g = translation_symplectic(b)
        x = random_spd(2, rng)
        img = moebius_act(g, finite_point(x))
        np.testing.assert_allclose(img.value, x + b, atol=1e-14)

    def test_swap_sends_zero_to_infinity(self):
        g = swap_symplectic(1)
        assert moebius_act(g, zero_point(1)).is_infinity

    def test_infinity_orbit(self, rng):
        n = 2
        g = swap_symplectic(n)
        img = moebius_act(g, INFINITY)  # A C^{-1} = 0
        np.testing.assert_allclose(img.value, np.zeros((n, n)), atol=1e-14)
        assert moebius_act(translation_symplectic(random_spd(n, rng)), INFINITY).is_infinity

    def test_cycle_standard_triple(self):
        r = cycle_symplectic(2)
        assert point_distance(moebius_act(r, identity_point(2)), zero_point(2)) <= 1e-14
        assert moebius_act(r, zero_point(2)).is_infinity
        assert point_distance(moebius_act(r, INFINITY), identity_point(2)) <= 1e-14

    def test_action_property(self, rng):
        for _ in range(25):
            n = int(rng.integers(1, 4))
            g = random_symplectic(n, rng)
            h = random_symplectic(n, rng)
            p = random_boundary_point(n, rng)
            lhs = moebius_act(g @ h, p)
            rhs = moebius_act(g, moebius_act(h, p))
            assert point_distance(lhs, rhs) <= 1e-8 * max(
                1.0, 0.0 if lhs.is_infinity else norm_inf(lhs.value))

    def test_result_symmetric(self, rng):
        g = random_symplectic(3, rng)
        img = moebius_act(g, finite_point(random_spd(3, rng)))
        np.testing.assert_allclose(img.value, img.value.T)

    def test_infinity_band_and_gray_zone(self):
        # shear with W = -1 sends X = 1 to infinity; nearby X probes the bands
        g = shear_symplectic(np.array([[-1.0]]))
        assert moebius_act(g, finite_point([[1.0 + 1e-12]])).is_infinity
        with pytest.raises(IllConditioned):
            moebius_act(g, finite_point([[1.0 + 3e-8]]))
        res = moebius_act(g, finite_point([[1.0 + 1e-3]]))
        assert not res.is_infinity

    def test_gray_zone_is_for_finite_points_only(self):
        # C = diag(1e-8, 1) has sigma_min inside (band, 100 band] at infinity,
        # where band = eq_tol * max(1, |C|) = 1e-9; the image is still A C^{-1}
        g = shear_symplectic(np.diag([1e-8, 1.0]))
        img = moebius_act(g, INFINITY)
        np.testing.assert_allclose(img.value, np.linalg.inv(g.C), rtol=1e-15)

    def test_gray_zone_refusal_names_its_fields(self):
        # c1 of the (1/2, 1/2, 1/2) pants has D = 2: at X = 0 and eq_tol 1e-2 the
        # band is 1e-2 * 2 and the gray zone reaches 100 times that, 2
        c1 = build_maximal(PantsParams(0.5, 0.5, 0.5)).c1
        with pytest.raises(IllConditioned, match="in the ambiguous band") as info:
            moebius_act(c1, zero_point(1), Tolerance(eq_tol=1e-2))
        assert info.value.stage == "action denominator"
        assert (info.value.measured, info.value.bound) == (2.0, 2.0)


class TestTransverse:
    def test_examples(self):
        assert transverse(zero_point(2), identity_point(2))
        p = finite_point(np.array([[0.3, 0.1], [0.1, -0.7]]))
        assert not transverse(p, p)
        assert transverse(INFINITY, p)
        assert not transverse(INFINITY, INFINITY)

    def test_margin_signs(self):
        assert transversality_margin(INFINITY, INFINITY) == -np.inf
        assert transversality_margin(INFINITY, zero_point(1)) == np.inf

    def test_symplectic_invariance(self, rng):
        for _ in range(25):
            n = int(rng.integers(1, 4))
            pts = random_transverse_points(n, rng, 2, margin=1e-2)
            g = random_symplectic(n, rng)
            imgs = [moebius_act(g, p) for p in pts]
            assert transverse(imgs[0], imgs[1])


class TestCayley:
    def test_center(self):
        w = cayley(np.zeros((2, 2)))
        np.testing.assert_allclose(w, 1j * np.eye(2))
        z = inverse_cayley(w)
        np.testing.assert_allclose(z, np.zeros((2, 2)), atol=1e-15)

    def test_eigenvalue_one_rejected(self):
        with pytest.raises(NotInvertible):
            cayley(np.diag([1.0, 0.5]))

    def test_round_trip(self, rng):
        for _ in range(10):
            n = int(rng.integers(1, 4))
            z = rng.normal(size=(n, n))
            z = (z + z.T) / 2
            z *= 0.9 / max(1.0, np.linalg.norm(z, 2))
            back = inverse_cayley(cayley(z))
            np.testing.assert_allclose(back.real, z, atol=1e-12)
            np.testing.assert_allclose(back.imag, 0.0, atol=1e-12)
