import numpy as np
import pytest

from maxrep.errors import (
    DefectiveSplit,
    NoCanonicalFixedPoint,
    NotContracting,
    NotFixed,
    NotSHyperbolic,
)
from maxrep.gluing import pants_surface_rep
from maxrep.matcore import DEFAULT_TOL, Tolerance, norm_inf
from maxrep.normalform import (
    _ATTRACT_MARGIN,
    DifferentialClass,
    _attracting_points,
    _certificates,
    _subspace_fixed_points,
    IsometryClass,
    StandardBoundary,
    attracting_point,
    canonical_fixed_point,
    canonical_point_of_element,
    classify_isometry,
    differential_at,
    fixed_point_contracting_side,
    fixed_point_expanding_side,
    fixed_point_residual,
)
from maxrep.pants import PantsParams, build_maximal
from maxrep.sampling import (
    random_contracting,
    random_orthogonal,
    random_pants_params,
    random_spd,
    random_symplectic,
)
from maxrep.symplectic import (
    INFINITY,
    BoundaryPoint,
    SpMat,
    diag_symplectic,
    finite_point,
    identity_point,
    moebius_act,
    point_distance,
    swap_symplectic,
    transverse,
    zero_point,
)
from oracles import fixed_point_probe, subspace_fixed_point_one


def rotation(theta: float) -> np.ndarray:
    return np.array([[np.cos(theta), -np.sin(theta)],
                     [np.sin(theta), np.cos(theta)]])


def eq5_residual(a, s, y) -> float:
    # fixed-point equation oracle, written out directly
    c = a + np.linalg.inv(a.T) @ s
    return norm_inf(y @ c @ y + y @ np.linalg.inv(a.T) - a @ y)


class TestExpandingSide:
    def test_scalar_worked_values(self):
        sb = StandardBoundary(np.array([[0.5]]), np.array([[1.0]]))
        fp = fixed_point_expanding_side(sb)
        np.testing.assert_allclose(fp.point.value, [[-0.6]], atol=1e-14)
        assert fp.residual <= 1e-14
        sb2 = StandardBoundary(np.array([[0.5]]), np.array([[0.75]]))
        np.testing.assert_allclose(fixed_point_expanding_side(sb2).point.value,
                                   [[-0.75]], atol=1e-14)

    def test_random_residuals_and_definiteness(self, rng):
        for _ in range(30):
            n = int(rng.integers(1, 5))
            a = random_contracting(n, rng, rho_range=(0.2, 0.8))
            s = random_spd(n, rng)
            sb = StandardBoundary(a, s)
            fp = fixed_point_expanding_side(sb)
            y = fp.point.value
            assert np.max(np.linalg.eigvalsh(y)) < 0  # negative definite
            assert eq5_residual(a, s, y) <= 1e-10
            assert fp.differential_class is DifferentialClass.EXPANDING

    def test_requires_contracting(self):
        with pytest.raises(NotContracting):
            fixed_point_expanding_side(StandardBoundary(np.array([[2.0]]), np.array([[1.0]])))

    def test_contracting_side_for_expanding_length(self, rng):
        # mirrored statement: expanding A gives a positive definite fixed
        # point with contracting action
        a = np.linalg.inv(random_contracting(2, rng, rho_range=(0.3, 0.6)))
        s = random_spd(2, rng)
        fp = fixed_point_contracting_side(StandardBoundary(a, s))
        y = fp.point.value
        assert np.min(np.linalg.eigvalsh(y)) > 0
        assert eq5_residual(a, s, y) <= 1e-9
        assert fp.differential_class is DifferentialClass.CONTRACTING

    def test_continuity(self, rng):
        a = random_contracting(3, rng, rho_range=(0.3, 0.7))
        s = random_spd(3, rng)
        y0 = fixed_point_expanding_side(StandardBoundary(a, s)).point.value
        da = 1e-8 * rng.normal(size=(3, 3))
        ds = 1e-8 * random_spd(3, rng)
        y1 = fixed_point_expanding_side(StandardBoundary(a + da, s + ds)).point.value
        assert norm_inf(y1 - y0) <= 1e-5


class TestDifferential:
    def test_pants_forms(self, rng):
        # the three generator differentials act as v -> Xi v Xi^T
        p = random_pants_params(2, rng, tame=True)
        rep = build_maximal(p)
        v = random_spd(2, rng)
        d1 = differential_at(rep.c1, zero_point(2))
        np.testing.assert_allclose(d1(v), p.X1 @ v @ p.X1.T, atol=1e-12)
        d2 = differential_at(rep.c2, identity_point(2))
        np.testing.assert_allclose(d2(v), p.X2 @ v @ p.X2.T, atol=1e-10)
        d3 = differential_at(rep.c3, INFINITY)
        np.testing.assert_allclose(d3(v), p.X3 @ v @ p.X3.T, atol=1e-10)

    def test_expanding_side_formula(self, rng):
        # at the invertible fixed point the map is conjugation by Y A^{-T} Y^{-1}
        a = random_contracting(2, rng, rho_range=(0.3, 0.7))
        s = random_spd(2, rng)
        sb = StandardBoundary(a, s)
        fp = fixed_point_expanding_side(sb)
        y = fp.point.value
        m = y @ np.linalg.inv(a.T) @ np.linalg.inv(y)
        d = differential_at(sb.element(), fp.point)
        v = random_spd(2, rng)
        np.testing.assert_allclose(d(v), m @ v @ m.T, atol=1e-8)

    def test_finite_difference_oracle(self, rng):
        # central differences of the boundary action, step 1e-6
        for _ in range(15):
            n = int(rng.integers(1, 4))
            a = random_contracting(n, rng, rho_range=(0.3, 0.7))
            s = random_spd(n, rng)
            sb = StandardBoundary(a, s)
            g = sb.element()
            for fp in (BoundaryPoint(np.zeros((n, n))),
                       fixed_point_expanding_side(sb).point):
                d = differential_at(g, fp)
                y = fp.value
                step = 1e-6
                for _ in range(3):
                    v = rng.normal(size=(n, n))
                    v = (v + v.T) / 2
                    plus = moebius_act(g, finite_point(y + step * v)).value
                    minus = moebius_act(g, finite_point(y - step * v)).value
                    approx = (plus - minus) / (2 * step)
                    exact = d(v)
                    assert norm_inf(approx - exact) <= 1e-4 * max(1.0, norm_inf(exact))

    def test_rejects_non_fixed(self, rng):
        sb = StandardBoundary(random_contracting(2, rng), random_spd(2, rng))
        with pytest.raises(NotFixed):
            differential_at(sb.element(), finite_point(37.0 * np.eye(2)))


class TestCanonicalFixedPoint:
    def test_contracting_is_zero(self, rng):
        a = random_contracting(3, rng)
        fp = canonical_fixed_point(StandardBoundary(a, random_spd(3, rng)))
        assert point_distance(fp.point, zero_point(3)) == 0.0
        assert fp.differential_class is DifferentialClass.CONTRACTING

    def test_rotation_is_zero(self, rng):
        fp = canonical_fixed_point(StandardBoundary(rotation(0.8), random_spd(2, rng)))
        assert point_distance(fp.point, zero_point(2)) == 0.0

    def test_expanding_scalar(self):
        sb = StandardBoundary(np.array([[2.0]]), np.array([[1.0]]))
        fp = canonical_fixed_point(sb)
        assert fp.residual <= 1e-12
        assert eq5_residual(sb.A, sb.S, fp.point.value) <= 1e-12
        d = differential_at(sb.element(), fp.point)
        assert d.classify().value == "contracting"

    def test_mixed_spectrum(self, rng):
        # expanding, contracting and unit-circle parts together
        blocks = np.zeros((4, 4))
        blocks[0, 0], blocks[1, 1] = 2.0, 0.5
        blocks[2:, 2:] = rotation(0.7)
        q = random_orthogonal(4, rng)
        a = q @ blocks @ q.T
        s = random_spd(4, rng)
        sb = StandardBoundary(a, s)
        fp = canonical_fixed_point(sb)
        assert fp.residual <= 1e-10
        assert eq5_residual(a, s, fp.point.value) <= 1e-10
        d = differential_at(sb.element(), fp.point)
        assert np.max(d.eigen_moduli()) <= 1.0 + 1e-8
        assert fp.differential_class is DifferentialClass.NON_EXPANDING

    def test_orthogonal_equivariance(self, rng):
        a = np.diag([2.0, 0.4, 0.1])
        s = random_spd(3, rng)
        k = random_orthogonal(3, rng)
        y = canonical_fixed_point(StandardBoundary(a, s)).point.value
        y2 = canonical_fixed_point(StandardBoundary(k @ a @ k.T, k @ s @ k.T)).point.value
        np.testing.assert_allclose(y2, k @ y @ k.T, atol=1e-9)

    @pytest.mark.parametrize("seed, lead, off, func", [
        (4, 0.5, 100.0, canonical_fixed_point),
        (0, 2.0, 10.0, classify_isometry),
    ])
    def test_defective_circle_pair_refused(self, seed, lead, off, func):
        # a Jordan pair on the circle: the eigenvalue masks and the Schur
        # reordering put a different number of eigenvalues outside the band,
        # which once reached stein_solve as an empty block (a raw ValueError)
        q, _ = np.linalg.qr(np.random.default_rng(seed).normal(size=(3, 3)))
        j = np.diag([lead, 1.0, 1.0])
        j[1, 2] = off
        with pytest.raises(DefectiveSplit):
            func(StandardBoundary(q @ j @ q.T, np.eye(3)))


class TestClassify:
    def test_hyperbolic_with_pair(self, rng):
        sb = StandardBoundary(np.diag([0.5, 3.0]), random_spd(2, rng))
        report = classify_isometry(sb)
        assert report.kind is IsometryClass.S_HYPERBOLIC
        att, rep = report.attracting, report.repelling
        assert att.residual <= 1e-10 and rep.residual <= 1e-10
        assert transverse(att.point, rep.point)
        g = sb.element()
        assert fixed_point_residual(g, att.point) <= 1e-10
        assert fixed_point_residual(g, rep.point) <= 1e-10

    def test_parabolic(self, rng):
        sb = StandardBoundary(rotation(1.1), random_spd(2, rng))
        assert classify_isometry(sb).kind is IsometryClass.S_PARABOLIC

    def test_mixed(self, rng):
        sb = StandardBoundary(np.diag([1.0, 0.5]), random_spd(2, rng))
        assert classify_isometry(sb).kind is IsometryClass.MIXED_NON_EXPANDING_FP


class TestNewtonProbe:
    def test_scalar_hyperbolic_exactly_the_pair(self, rng):
        # in one dimension the fixed-point equation is a quadratic, so the
        # transverse pair is the entire solution set
        sb = StandardBoundary(np.array([[0.45]]), random_spd(1, rng))
        report = classify_isometry(sb)
        found = fixed_point_probe(sb, n_seeds=1000, seed=7)
        assert len(found) == 2
        targets = [report.attracting.point.value, report.repelling.point.value]
        for y in found:
            assert min(norm_inf(y - t) for t in targets) <= 1e-6

    def test_hyperbolic_pair_is_the_one_sided_subset(self, rng):
        # for n >= 2 the equation also has saddle solutions; the transverse
        # pair is characterized as the only points with one-sided dynamics
        sb = StandardBoundary(np.diag([0.45, 2.2]), random_spd(2, rng))
        report = classify_isometry(sb)
        found = fixed_point_probe(sb, n_seeds=1000, seed=7)
        assert len(found) >= 2
        g = sb.element()
        one_sided = []
        for y in found:
            assert eq5_residual(sb.A, sb.S, y) <= 1e-8
            mods = differential_at(g, finite_point(y)).eigen_moduli()
            if np.all(mods <= 1 + 1e-8) or np.all(mods >= 1 - 1e-8):
                one_sided.append(y)
        assert len(one_sided) == 2
        targets = [report.attracting.point.value, report.repelling.point.value]
        for y in one_sided:
            assert min(norm_inf(y - t) for t in targets) <= 1e-6

    def test_parabolic_only_zero(self, rng):
        sb = StandardBoundary(rotation(0.9), random_spd(2, rng))
        found = fixed_point_probe(sb, n_seeds=300, seed=11)
        for y in found:
            assert norm_inf(y) <= 1e-6


class TestElementCanonicalPoints:
    def test_built_rep_slots(self, rng):
        p = random_pants_params(2, rng, tame=True)
        rep = build_maximal(p)
        assert point_distance(canonical_point_of_element(rep.c1), zero_point(2)) <= 1e-9
        assert point_distance(canonical_point_of_element(rep.c2), identity_point(2)) <= 1e-9
        assert canonical_point_of_element(rep.c3).is_infinity

    def test_unit_modulus_slot_gives_zero(self, rng):
        # length with circle spectrum: the canonical point is exactly 0
        x1 = rotation(0.6)
        x2 = random_contracting(2, rng, rho_range=(0.3, 0.5))
        s = random_spd(2, rng)
        x3 = s @ np.linalg.inv(x1) @ x2.T
        x3 *= min(1.0, 0.8 / np.max(np.abs(np.linalg.eigvals(x3))))
        rep = build_maximal(PantsParams(x1, x2, x3))
        pt = canonical_point_of_element(rep.c1)
        assert point_distance(pt, zero_point(2)) <= 1e-9

    def test_translated_parabolic_follows_translation(self, rng):
        # the certified subspace route finds the moved fixed point
        from maxrep.symplectic import translation_symplectic

        sb = StandardBoundary(rotation(0.6), np.eye(2))
        w = translation_symplectic(np.diag([3.0, 5.0]))
        g = w @ sb.element() @ w.inv()
        pt = canonical_point_of_element(g)
        np.testing.assert_allclose(pt.value, np.diag([3.0, 5.0]), atol=1e-6)

    def test_fixed_point_free_element_refused(self):
        # the swap X -> -X^{-1} fixes nothing in the boundary model
        from maxrep.symplectic import swap_symplectic

        with pytest.raises(NoCanonicalFixedPoint):
            canonical_point_of_element(swap_symplectic(2))

    def test_unsortable_circle_spectrum_refused(self):
        # an orthogonal block has all its eigenvalues on the circle, and the
        # Schur reordering pushes one of them across |z| = 1
        from maxrep.symplectic import diag_symplectic

        g = diag_symplectic(random_orthogonal(3, np.random.default_rng(271)))
        with pytest.raises(NotSHyperbolic):
            attracting_point(g)
        with pytest.raises(NoCanonicalFixedPoint):
            canonical_point_of_element(g)

    def test_stacked_kernel_matches_one_matrix_oracle(self):
        # sampler words, a point at 0 and its swap-conjugate at infinity, the
        # unsortable orthogonal block, a non-contracting element and one
        # whose expanding subspace is too small, in one stack
        rng = np.random.default_rng(9)
        rep = pants_surface_rep(random_pants_params(3, rng, tame=True))
        c1, c2, c3 = rep.c_imgs
        at_zero = diag_symplectic(np.diag([0.5, 0.4, 0.3]) @ random_orthogonal(3, rng))
        sw = swap_symplectic(3)
        h = random_symplectic(3, rng)
        elements = [c1, c2 @ c1, c3.inv() @ c1 @ c2, at_zero, sw @ at_zero @ sw.inv(),
                    diag_symplectic(random_orthogonal(3, np.random.default_rng(271))),
                    h @ diag_symplectic(np.diag([2.0, 1 + 1e-7, 0.5])) @ h.inv(),
                    diag_symplectic(np.diag([2.0, 1.0, 0.5]))]
        stack = np.array([g.m for g in elements])
        points, fixed, rho = _subspace_fixed_points(stack, DEFAULT_TOL)
        attracting = _attracting_points(stack, DEFAULT_TOL)
        refused = []
        for i, m in enumerate(stack):
            try:
                pt, ok, r = subspace_fixed_point_one(SpMat(m))
            except NotSHyperbolic:
                assert isinstance(points[i], NotSHyperbolic)
                assert isinstance(attracting[i], NotSHyperbolic)
                refused.append(i)
                continue
            assert pt.is_infinity == points[i].is_infinity
            assert pt.is_infinity or pt.value.tobytes() == points[i].value.tobytes()
            assert (ok, r) == (fixed[i], rho[i])
            if not ok or r > 1.0 - max(DEFAULT_TOL.unit_circle_band, _ATTRACT_MARGIN):
                assert isinstance(attracting[i], NotSHyperbolic)
                refused.append(i)
            else:
                assert attracting[i].is_infinity == pt.is_infinity
                assert pt.is_infinity or attracting[i].value.tobytes() == pt.value.tobytes()
        assert points[3].value.tobytes() == np.zeros((3, 3)).tobytes()
        assert points[4].is_infinity
        assert refused == [5, 6, 7]

    def test_schur_failure_keeps_each_callers_error(self, monkeypatch):
        from maxrep import matcore
        from maxrep.deform import _so_log

        def unconverged(select, b, *args, **kwargs):
            return b, 0, None, None, np.eye(b.shape[0]), None, 1
        monkeypatch.setattr(matcore, "dgees", unconverged)
        with pytest.raises(NotSHyperbolic):
            attracting_point(diag_symplectic(np.diag([0.5, 0.25])))
        with pytest.raises(np.linalg.LinAlgError):
            _so_log(np.eye(2))
        with pytest.raises(np.linalg.LinAlgError):
            canonical_fixed_point(StandardBoundary(np.diag([2.0, 0.5]), np.eye(2)))

    def test_attracting_vs_power_iteration(self, rng):
        # oracle: iterate the action from a generic start
        p = random_pants_params(2, rng, tame=True)
        rep = build_maximal(p)
        w = rep.c1 @ rep.c2.inv() @ rep.c3
        pt = attracting_point(w)
        x = finite_point(0.3 * random_spd(2, rng))
        for _ in range(80):
            x = moebius_act(w, x)
        assert point_distance(x, pt) <= 1e-9

    def test_certificate_band_follows_tolerance(self):
        # X -> 4X moves the candidate 1e-3 by 1.5e-3: outside the default
        # band sqrt(1e-9) ~ 3.2e-5, inside the looser sqrt(1e-4) = 1e-2
        g = SpMat(np.diag([2.0, 0.5]))

        def fixed(y, tol):
            return _certificates(g.m[None], np.array([[[y]]]), np.array([False]), tol)[0][0]

        assert not fixed(1e-3, DEFAULT_TOL)
        assert fixed(1e-3, Tolerance(eq_tol=1e-4))
        # the true fixed point passes under either band
        assert fixed(0.0, DEFAULT_TOL)
