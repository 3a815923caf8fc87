import numpy as np
import pytest

from maxrep import normalform, symplectic
from maxrep.errors import (
    MaxRepError,
    NoCanonicalFixedPoint,
    NotContracting,
    NotFixed,
    NotSHyperbolic,
    Singular,
)
from maxrep.gluing import pants_surface_rep
from maxrep.limits import limit_set_sample
from maxrep.matcore import DEFAULT_TOL, Tolerance, norm_inf
from maxrep.normalform import (
    _ATTRACT_MARGIN,
    _attracting,
    _canonical_points,
    _subspace_fixed_points,
    StandardBoundary,
    attracting_point,
    canonical_point_of_element,
    differential_at,
    fixed_point_expanding_side,
)
from maxrep.pants import PantsParams, PantsRep, build_maximal, params_equivalent, recover_params
from maxrep.symplectic import (
    INFINITY,
    BoundaryPoint,
    SpMat,
    _point_stack,
    _rotations,
    cycle_symplectic,
    diag_symplectic,
    finite_point,
    identity_point,
    moebius_act,
    point_distance,
    sp_identity,
    sp_inverse,
    swap_symplectic,
    zero_point,
)
from tests_support import (
    assert_slices_match,
    outcomes,
    point_outcomes,
    assert_points_close,
    random_contracting,
    random_orthogonal,
    random_pants_params,
    random_spd,
    random_symplectic,
)
from oracles import (
    canonical_fixed_point,
    canonical_points_as_objects,
    chart_points_by_svd,
    fixed_point_probe,
    subspace_fixed_point_one,
)


def attracting_points(stack):
    """attracting_point of each slice of a stack, as one kernel call: its
    point or its refusal."""
    found, at_inf, moved, band, rho, _ = _subspace_fixed_points(stack, DEFAULT_TOL)
    return point_outcomes(_attracting(found, moved, band, rho, DEFAULT_TOL), at_inf)


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
            # the action at the point expands
            mods = differential_at(sb.element(), fp.point).eigen_moduli()
            assert mods[0] > 1.0 + DEFAULT_TOL.unit_circle_band

    def test_requires_contracting(self):
        # refused on the spectral radius of A, which may sit on the band's edge
        for a in (np.array([[2.0]]), np.diag([0.5, 1.0 - 0.5e-8])):
            with pytest.raises(NotContracting) as info:
                fixed_point_expanding_side(StandardBoundary(a, np.eye(len(a))))
            assert (info.value.stage, info.value.bound) == ("length spectrum", 1.0 - DEFAULT_TOL.unit_circle_band)
            assert info.value.measured == np.abs(np.linalg.eigvals(a)).max()

    def test_residual_is_the_riccati_residual(self, rng):
        sb = StandardBoundary(random_contracting(3, rng, rho_range=(0.3, 0.7)), random_spd(3, rng))
        fp = fixed_point_expanding_side(sb)
        g, y = sb.element(), fp.point.value
        assert fp.residual == np.abs(g.A @ y + g.B - y @ (g.C @ y + g.D)).max()
        assert fp.residual <= 1e-12

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

    def test_lone_point_at_infinity(self, rng):
        # the point stack of (inf,) alone takes its size from the element
        assert _point_stack((INFINITY,), 2)[0].shape == (1, 2, 2)
        p = random_pants_params(2, rng, tame=True)
        v = random_spd(2, rng)
        d = differential_at(build_maximal(p).c3, INFINITY)
        np.testing.assert_allclose(d(v), p.X3 @ v @ p.X3.T, atol=1e-10)
        with pytest.raises(NotFixed, match="^element does not fix"):
            differential_at(build_maximal(p).c1, INFINITY)

    def test_rejects_non_fixed(self, rng):
        sb = StandardBoundary(random_contracting(2, rng), random_spd(2, rng))
        with pytest.raises(NotFixed):
            differential_at(sb.element(), finite_point(37.0 * np.eye(2)))


def assert_canonical_as_oracle(sb: StandardBoundary, y: np.ndarray):
    """canonical_point_of_element of the standard element finds the oracle's
    chart value y within the certificate band sqrt(eq_tol) * max(1, |y|)."""
    got = canonical_point_of_element(sb.element())
    assert not got.is_infinity
    assert norm_inf(got.value - y) <= np.sqrt(DEFAULT_TOL.eq_tol) * max(1.0, norm_inf(y))


class TestCanonicalFixedPoint:
    # the closed form of a standard element, now a test oracle, and the one
    # Schur route of the library on the same elements
    def test_contracting_is_zero(self, rng):
        a = random_contracting(3, rng)
        sb = StandardBoundary(a, random_spd(3, rng))
        y = canonical_fixed_point(sb.A, sb.S, DEFAULT_TOL)
        assert not y.any() and y.shape == (3, 3)
        mods = differential_at(sb.element(), BoundaryPoint(y)).eigen_moduli()
        assert mods[-1] < 1.0 - DEFAULT_TOL.unit_circle_band

    def test_rotation_is_zero(self, rng):
        sb = StandardBoundary(rotation(0.8), random_spd(2, rng))
        y = canonical_fixed_point(sb.A, sb.S, DEFAULT_TOL)
        assert not y.any()
        assert_canonical_as_oracle(sb, y)

    def test_expanding_scalar(self):
        sb = StandardBoundary(np.array([[2.0]]), np.array([[1.0]]))
        pt = BoundaryPoint(canonical_fixed_point(sb.A, sb.S, DEFAULT_TOL))
        assert point_distance(moebius_act(sb.element(), pt), pt) <= 1e-12
        assert eq5_residual(sb.A, sb.S, pt.value) <= 1e-12
        mods = differential_at(sb.element(), pt).eigen_moduli()
        assert mods[-1] < 1.0 - DEFAULT_TOL.unit_circle_band
        assert_canonical_as_oracle(sb, pt.value)

    def test_mixed_spectrum(self, rng):
        # expanding, contracting and unit-circle parts together
        blocks = np.zeros((4, 4))
        blocks[0, 0], blocks[1, 1] = 2.0, 0.5
        blocks[2:, 2:] = rotation(0.7)
        q = random_orthogonal(4, rng)
        a = q @ blocks @ q.T
        s = random_spd(4, rng)
        sb = StandardBoundary(a, s)
        pt = BoundaryPoint(canonical_fixed_point(a, s, DEFAULT_TOL))
        assert point_distance(moebius_act(sb.element(), pt), pt) <= 1e-10
        assert eq5_residual(a, s, pt.value) <= 1e-10
        # the action does not expand, and the circle block keeps it from contracting
        band = DEFAULT_TOL.unit_circle_band
        assert 1.0 - band <= np.max(differential_at(sb.element(), pt).eigen_moduli()) <= 1.0 + band
        assert_canonical_as_oracle(sb, pt.value)

    def test_orthogonal_equivariance(self, rng):
        a = np.diag([2.0, 0.4, 0.1])
        s = random_spd(3, rng)
        k = random_orthogonal(3, rng)
        y = canonical_fixed_point(a, s, DEFAULT_TOL)
        y2 = canonical_fixed_point(k @ a @ k.T, k @ s @ k.T, DEFAULT_TOL)
        np.testing.assert_allclose(y2, k @ y @ k.T, atol=1e-9)

    @pytest.mark.parametrize("seed, lead, off", [(4, 0.5, 100.0)])
    def test_defective_circle_pair_refused(self, seed, lead, off):
        # a Jordan pair on the circle: the eigenvalue masks and the Schur
        # reordering put a different number of eigenvalues outside the band,
        # which once reached stein_solve as an empty block (a raw ValueError)
        q, _ = np.linalg.qr(np.random.default_rng(seed).normal(size=(3, 3)))
        j = np.diag([lead, 1.0, 1.0])
        j[1, 2] = off
        with pytest.raises(NoCanonicalFixedPoint) as info:
            canonical_fixed_point(q @ j @ q.T, np.eye(3), DEFAULT_TOL)
        # the masks put one eigenvalue of the pair outside, the reordering none
        assert (info.value.stage, info.value.measured, info.value.bound) == ("Schur reordering", 0, 1)

    def test_straddling_modulus_refused(self):
        # 1 + 1.5e-8 lies outside the band 1e-8 but inside its gray zone
        band = DEFAULT_TOL.unit_circle_band
        with pytest.raises(NoCanonicalFixedPoint, match="straddle") as info:
            canonical_fixed_point(np.diag([1.0 + 1.5e-8, 0.5]), np.eye(2), DEFAULT_TOL)
        assert (info.value.stage, info.value.bound) == ("unit-circle split", 2 * band)
        assert band / 2 < info.value.measured < 2 * band

    def test_singular_length_refused_as_standard_boundary(self):
        # the closed form's one check of A, with StandardBoundary's refusal
        a = np.diag([1.0, 1e-10])
        with pytest.raises(Singular) as want:
            StandardBoundary(a, np.eye(2))
        with pytest.raises(Singular) as got:
            canonical_fixed_point(a, np.eye(2), DEFAULT_TOL)
        assert str(got.value) == str(want.value)
        assert (got.value.stage, got.value.measured, got.value.bound) == ("length block A", 1e-10, 1e-9)


class TestNewtonProbe:
    def test_scalar_hyperbolic_exactly_the_pair(self, rng):
        # in one dimension the fixed-point equation is a quadratic, so the
        # transverse pair is the entire solution set
        sb = StandardBoundary(np.array([[0.45]]), random_spd(1, rng))
        found = fixed_point_probe(sb, n_seeds=1000, seed=7)
        assert len(found) == 2
        targets = [attracting_point(g).value for g in (sb.element(), sb.element().inv())]
        for y in found:
            assert min(norm_inf(y - t) for t in targets) <= 1e-6

    def test_hyperbolic_pair_is_the_one_sided_subset(self, rng):
        # for n >= 2 the equation also has saddle solutions; the transverse
        # pair is characterized as the only points with one-sided dynamics
        sb = StandardBoundary(np.diag([0.45, 2.2]), random_spd(2, rng))
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
        targets = [attracting_point(h).value for h in (g, g.inv())]
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
        # an orthogonal block has all its eigenvalues on the circle, and it is
        # diagonalisable there: no Jordan pair gives p(T11) a rank gap
        from maxrep.symplectic import diag_symplectic

        g = diag_symplectic(random_orthogonal(3, np.random.default_rng(271)))
        with pytest.raises(NotSHyperbolic):
            attracting_point(g)
        with pytest.raises(NoCanonicalFixedPoint):
            canonical_point_of_element(g)

    def test_subspace_route_refusals_keep_their_fields(self):
        # the swap, the zero matrix and an orthogonal block: two elliptic
        # elements, whose circle spectra hold no Jordan pair, and a slice with
        # no expanding subspace; each refusal reads as NoCanonicalFixedPoint
        # with the fields of the subspace route's own
        c = np.sqrt(DEFAULT_TOL.eq_tol)
        for g, stage, bound in ((swap_symplectic(2), "unit-circle rank gap", c),
                                (SpMat(np.zeros((4, 4))), "expanding subspace dimension", 2),
                                (diag_symplectic(random_orthogonal(3, np.random.default_rng(271))),
                                 "unit-circle rank gap", c)):
            with pytest.raises(NoCanonicalFixedPoint) as info:
                canonical_point_of_element(g)
            assert (info.value.stage, info.value.bound) == (stage, bound)
            assert info.value.measured is not None and info.value.measured != bound

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
        found, at_inf, moved, band, rho, _ = _subspace_fixed_points(stack, DEFAULT_TOL)
        fixed = moved <= band
        points, attracting = point_outcomes(found, at_inf), attracting_points(stack)
        refused = []
        for i, m in enumerate(stack):
            try:
                pt, ok, r = subspace_fixed_point_one(SpMat(m))
            except NotSHyperbolic:
                assert isinstance(points[i], NotSHyperbolic)
                assert isinstance(attracting[i], NotSHyperbolic)
                refused.append(i)
                continue
            assert_points_close(points[i], pt)
            # the certificates are those of the live slices
            assert ok == fixed[found.live.index(i)]
            assert abs(r - rho[found.live.index(i)]) <= 1e-12 * max(1.0, r)
            if not ok or r > 1.0 - max(DEFAULT_TOL.unit_circle_band, _ATTRACT_MARGIN):
                assert isinstance(attracting[i], NotSHyperbolic)
                refused.append(i)
            else:
                assert_points_close(attracting[i], pt)
        assert np.max(np.abs(points[3].value)) <= 1e-15
        assert points[4].is_infinity
        assert refused == [5, 6, 7]

    def test_stacked_canonical_points_match_one_element(self):
        # a generator in its standard chart, a conjugated generic element, the
        # swap, which fixes nothing, and NaN, Inf and singular slices between
        # them, in one stack
        rng = np.random.default_rng(12)
        rep = build_maximal(random_pants_params(2, rng, tame=True))
        h = random_symplectic(2, rng)
        nan, inf = rep.c1.m.copy(), (h @ rep.c2 @ h.inv()).m
        nan[0, 3], inf[2, 1] = np.nan, -np.inf
        elements = [rep.c2, SpMat(nan), h @ rep.c1 @ h.inv(), swap_symplectic(2), SpMat(inf),
                    h @ rep.c3 @ h.inv(), SpMat(np.zeros((4, 4)))]
        points = point_outcomes(*_canonical_points(np.array([g.m for g in elements]), DEFAULT_TOL))
        assert_slices_match(points, canonical_point_of_element, [(g,) for g in elements])
        assert [type(p).__name__ for p in points] == [
            "BoundaryPoint", "IllConditioned", "BoundaryPoint", "NoCanonicalFixedPoint",
            "IllConditioned", "BoundaryPoint", "NoCanonicalFixedPoint"]
        points = [points[i] for i in (0, 2, 3, 5)]
        assert point_distance(points[0], identity_point(2)) <= 1e-9
        assert isinstance(points[2], NoCanonicalFixedPoint)
        assert point_distance(points[3], moebius_act(h, INFINITY)) <= 1e-6

    def test_inf_entry_refused_before_any_product(self):
        # an Inf generator entry once warned "invalid value encountered in
        # matmul" in the stacked chart product before its slice was refused;
        # pytest.ini turns that warning into an error
        rep = build_maximal(random_pants_params(2, np.random.default_rng(3), tame=True))
        ms = np.array([c.m for c in rep.generators()])
        ms[1, 0, 0] = np.inf
        points = point_outcomes(*_canonical_points(ms, DEFAULT_TOL))
        assert [type(p).__name__ for p in points] == ["BoundaryPoint", "IllConditioned", "BoundaryPoint"]
        assert_slices_match(points, canonical_point_of_element, [(SpMat(m),) for m in ms])

    def test_schur_failure_keeps_each_callers_error(self, monkeypatch):
        from maxrep import matcore
        from maxrep.deform import _so_log

        def unconverged(select, b, *args, **kwargs):
            return b, 0, None, None, np.eye(b.shape[0]), None, 1
        monkeypatch.setattr(matcore, "dgees", unconverged)
        with pytest.raises(NotSHyperbolic):   # a Jordan block takes the Schur route
            attracting_point(diag_symplectic(np.array([[0.5, 1.0], [0.0, 0.5]])))
        with pytest.raises(np.linalg.LinAlgError):
            _so_log(np.eye(2))
        with pytest.raises(np.linalg.LinAlgError):
            canonical_fixed_point(np.diag([2.0, 0.5]), np.eye(2), DEFAULT_TOL)

    def test_eig_failure_takes_the_schur_rescue(self, monkeypatch):
        # a LinAlgError of the stacked eigen-decomposition sends every slice
        # down the sorted real Schur route, which finds the same points
        import maxrep.normalform as normalform
        bad = diag_symplectic(np.diag([0.5, 0.25]))
        rng = np.random.default_rng(5)
        rep = pants_surface_rep(random_pants_params(2, rng, tame=True))
        stack = np.array([rep.c_imgs[0].m, bad.m, rep.c_imgs[1].m])
        expected = attracting_points(stack)
        eig, schur, calls = np.linalg.eig, normalform._real_schur, []

        def failing(m):
            if np.any(np.all(m == bad.m, axis=(-2, -1))):
                raise np.linalg.LinAlgError("Eigenvalues did not converge")
            return eig(m)

        def counted(*args, **kwargs):
            calls.append(args[0].shape)
            return schur(*args, **kwargs)
        monkeypatch.setattr(np.linalg, "eig", failing)
        monkeypatch.setattr(normalform, "_real_schur", counted)
        # the expanding subspace of diag(A, A^-T), A contracting, is the vertical factor
        assert np.max(np.abs(attracting_point(bad).value)) <= 1e-15
        points = attracting_points(stack)
        assert calls == [(4, 4)] * 4
        for p, q in zip(points, expected):
            assert_points_close(p, q, 1e-13)

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("lead", [1.5, 2.0, 5.0])
    @pytest.mark.parametrize("off", [1.0, 1e-3, 1e-6, 1e-9, 0.0])
    def test_conjugated_jordan_blocks_match_oracle(self, n, lead, off):
        # a defective expanding block leaves the eigenvectors nearly parallel;
        # such slices take the Schur route and agree with the oracle
        rng = np.random.default_rng([n, int(lead * 10), 7])
        a = np.diag(np.r_[lead, lead, np.linspace(0.5, 0.7, n - 2)])
        a[0, 1] = off
        elements = [h @ diag_symplectic(a) @ h.inv()
                    for h in (random_symplectic(n, rng) for _ in range(6))]
        found, at_inf, moved, band, rho, _ = _subspace_fixed_points(np.array([g.m for g in elements]),
                                                                    DEFAULT_TOL)
        assert found.live == list(range(len(elements)))
        for g, p, ok, r in zip(elements, point_outcomes(found, at_inf), moved <= band, rho):
            pt, ok_one, r_one = subspace_fixed_point_one(g)
            assert_points_close(p, pt)
            assert ok == ok_one
            assert abs(r - r_one) <= 1e-12 * max(1.0, r_one)

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
        # X -> 4X leaves the candidate 1e-3 a Riccati residual of 1.5e-3:
        # outside the default band sqrt(1e-9) ~ 3.2e-5, inside the looser
        # sqrt(1e-4) = 1e-2
        g = SpMat(np.diag([2.0, 0.5]))

        def fixed(y, tol):
            # the candidate's subspace, the graph of y, as the given basis
            z = np.array([[[y], [1.0]]]) / np.hypot(y, 1.0)
            _, _, moved, band, *_ = _subspace_fixed_points(g.m[None], tol, z, np.array([True]))
            return moved[0] <= band[0]

        assert not fixed(1e-3, DEFAULT_TOL)
        assert fixed(1e-3, Tolerance(eq_tol=1e-4))
        # the true fixed point passes under either band
        assert fixed(0.0, DEFAULT_TOL)


def _canonical_stack(n: int, rng) -> list[np.ndarray]:
    """Generators of three pants at n, in their standard charts and
    conjugated: tame lengths, an expanding X1 (IN_TILDE_R) and a unit-modulus
    X1; then the swap, NaN and Inf slices, a straddling standard element, a
    non-symplectic lower-triangular slice with a singular A and a positive
    shape, and the zero matrix."""
    p = random_pants_params(n, rng, tame=True)
    wide = PantsParams(1.2 * p.X1 / np.abs(np.linalg.eigvals(p.X1)).min(), p.X2, p.X3)
    rot = np.eye(n)
    rot[:2, :2] = rotation(0.6) if n > 1 else -1.0
    x3 = random_spd(n, rng) @ rot.T @ p.X2.T
    circle = PantsParams(rot, p.X2, x3 * min(1.0, 0.8 / np.abs(np.linalg.eigvals(x3)).max()))
    h = random_symplectic(n, rng)
    gens = [c for q in (p, wide, circle) for c in build_maximal(q).generators()]
    ms = [g.m for g in gens] + [(h @ g @ h.inv()).m for g in gens]
    nan, inf = ms[0].copy(), ms[4].copy()
    nan[0, -1], inf[-1, 0] = np.nan, -np.inf
    a = np.diag(np.r_[1e-10, np.ones(n - 1)])
    singular = np.block([[a, np.zeros((n, n))], [a + np.diag(np.r_[1e12, np.ones(n - 1)]), np.eye(n)]])
    straddle = StandardBoundary(np.diag(np.r_[1.0 + 1.5e-8, 0.5 * np.ones(n - 1)]), np.eye(n)).element().m
    return ms + [swap_symplectic(n).m, nan, inf, straddle, singular, np.zeros((2 * n, 2 * n))]


def _refusal_fields(e) -> tuple:
    return type(e), str(e), e.stage, repr(e.measured), repr(e.bound)


def _straddle_point(n: int) -> np.ndarray:
    """The exact canonical point of _canonical_stack's straddling element,
    A = diag(a, 0.5, ...) with a = 1 + 1.5e-8 and S = I: the expanding
    eigenvector of a, the chart value (a - 1/a) / (a + 1/a) in the corner.
    Moduli 1 +- 1.5e-8 are one cluster of the unit band, as a Jordan pair
    split by rounding would be (the unit-modulus scans split theirs by up to
    5.6e-8, across the circle too), and the point found is the eigenvector
    half of that pair, half way between 0 and this point."""
    a, y = 1.0 + 1.5e-8, np.zeros((n, n))
    y[0, 0] = (a - 1.0 / a) / (a + 1.0 / a)
    return y


class TestCanonicalPointStack:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_matches_objects_oracle(self, n):
        # values, infinity masks and refusals (class, message and fields) bit
        # for bit against the route that made a BoundaryPoint per point, where
        # that route took the subspace route too.  Where it took a standard
        # chart, the one Schur route finds its point within the certificate
        # band sqrt(eq_tol) * max(1, |Y|); it reads the straddling element,
        # which the chart's gray zone refused, as a Jordan pair (_straddle_point),
        # and refuses the singular non-symplectic slice at its unit-circle rank gap
        rng = np.random.default_rng([n, 35])
        ms = np.array(_canonical_stack(n, rng))
        order = rng.permutation(len(ms))
        ms = ms[order]
        points, at_inf = _canonical_points(ms, DEFAULT_TOL)
        ref = canonical_points_as_objects(ms, DEFAULT_TOL)
        kinds, band = set(), np.sqrt(DEFAULT_TOL.eq_tol)
        for i, want in enumerate(outcomes(ref)):
            got = points.refusals[i]
            if isinstance(want, MaxRepError):
                kinds.add(type(want).__name__)
                if order[i] == 21:   # the straddle
                    assert got is None and not at_inf[i]
                    want = _straddle_point(n)
                    assert norm_inf(points.values[i] - want / 2) <= 0.05 * want[0, 0]
                elif order[i] == 22:   # the singular slice
                    assert isinstance(got, NoCanonicalFixedPoint) and got.stage == "unit-circle rank gap"
                else:
                    assert got is not None and _refusal_fields(got) == _refusal_fields(want), i
                continue
            assert got is None, (i, got)
            assert bool(at_inf[i]) == want.is_infinity, i
            value = np.zeros((n, n)) if want.is_infinity else want.value
            if order[i] < 9:   # a generator in its standard chart
                assert norm_inf(points.values[i] - value) <= band * max(1.0, norm_inf(value)), i
            else:
                assert points.values[i].tobytes() == np.ascontiguousarray(value).tobytes(), i
            kinds.add("infinity" if want.is_infinity else "finite")
        assert kinds == {"finite", "infinity", "IllConditioned", "Singular", "NoCanonicalFixedPoint"}

    def test_elliptic_element_refused(self):
        # a rotation in Sp(2) is elliptic: its circle pair is no Jordan pair,
        # and the refusal carries all three fields
        c = np.sqrt(DEFAULT_TOL.eq_tol)
        with pytest.raises(NoCanonicalFixedPoint) as info:
            canonical_point_of_element(SpMat(rotation(0.8)))
        assert (info.value.stage, info.value.bound) == ("unit-circle rank gap", c)
        assert info.value.measured is not None and info.value.measured > c

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("d", [1e-9, 1.5e-8, 1e-7, 1e-6, 1e-5, 2e-5, 3e-5])
    def test_moduli_near_the_circle_found(self, n, d):
        # A = diag(1 + d, 0.5, ...), S = I: moduli 1 +- d lie in the unit band.
        # A pair split by more than the clustering radius r = 8 sqrt(eps) |T|_F
        # keeps its expanding half and is found to rounding (2e-5 and 3e-5
        # were refused as two clusters within c).  A closer one, whose
        # eigenvectors lie within about d of each other, cannot be told from a
        # Jordan pair split by rounding and is given its eigenvector half: the
        # point half way to 0, off by d / 2 and never by more
        y = np.zeros((n, n))
        y[0, 0] = ((1.0 + d) - 1.0 / (1.0 + d)) / ((1.0 + d) + 1.0 / (1.0 + d))
        g = StandardBoundary(np.diag([1.0 + d] + [0.5] * (n - 1)), np.eye(n)).element()
        h = random_symplectic(n, np.random.default_rng([n, 79]))
        for k in (sp_identity(n), h):
            want = moebius_act(k, BoundaryPoint(y))
            err = point_distance(canonical_point_of_element(k @ g @ k.inv()), want)
            assert err <= (0.55 * d if d < 1e-6 else 1e-9) * max(1.0, norm_inf(want.value)), (k is h, err)


    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("d", [1e-9, 1.5e-8, 1e-7, 2e-7])
    def test_diagonalisable_pair_near_the_circle_found(self, n, d):
        # h diag(1 + d, 2, 0.5) h^-1 on the Lagrangian pair: the moduli 1 +- d
        # are one cluster, but a diagonalisable pair with eigenvectors far
        # apart, so the mean leaves p(T11) no rank gap and the Schur cut at
        # modulus 1 splits it, as the one-matrix oracle does
        h = random_symplectic(n, np.random.default_rng([n, 80]))
        g = h @ diag_symplectic(np.diag([1.0 + d, 2.0, 0.5][:n])) @ h.inv()
        pt, ok, _ = subspace_fixed_point_one(g)
        assert ok
        assert_points_close(canonical_point_of_element(g), pt)


def _unit_modulus_pants(n: int, rng) -> PantsParams:
    """Maximal pants parameters whose first length X1 has its spectrum on the
    unit circle: -I, with a 0.7 rad rotation block at n >= 2."""
    p = random_pants_params(n, rng, tame=True)
    x1 = -np.eye(n)
    if n > 1:
        x1[:2, :2] = rotation(0.7)
    x3 = random_spd(n, rng) @ x1.T @ p.X2.T
    return PantsParams(x1, p.X2, x3 * min(1.0, 0.8 / np.abs(np.linalg.eigvals(x3)).max()))


class TestUnitModulusConjugates:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_conjugated_pants_recover(self, n):
        # conjugates of pants with a unit-modulus X1 were refused at the
        # expanding subspace dimension (16, 0, 18 and 12 of these 30 at n = 1-4):
        # each generator's Jordan pairs on the circle now give the eigenvector
        # half, and every conjugate recovers parameters equivalent to its own
        rng = np.random.default_rng([n, 77])
        for _ in range(30):
            p = _unit_modulus_pants(n, rng)
            rep, h = build_maximal(p), random_symplectic(n, rng)
            conj = PantsRep(*(h @ c @ h.inv() for c in rep.generators()))
            q, _ = recover_params(conj)
            assert params_equivalent(q, p).equivalent

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_conjugated_points_follow_the_conjugator(self, n):
        # the canonical points of the conjugated generators are h applied to
        # the built ones, 0, e and infinity, to rounding
        rng = np.random.default_rng([n, 78])
        for _ in range(10):
            rep, h = build_maximal(_unit_modulus_pants(n, rng)), random_symplectic(n, rng)
            for c, y in zip(rep.generators(), (zero_point(n), identity_point(n), INFINITY)):
                assert_points_close(canonical_point_of_element(h @ c @ h.inv()), moebius_act(h, y), 1e-12)


class TestRotations:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_built_once_per_n_and_read_only(self, monkeypatch, n):
        # the slot frames of a build take one stack, built on the first call
        # for each n; the canonical points of the generators need none
        calls = []
        monkeypatch.setattr(symplectic, "cycle_symplectic",
                            lambda m, real=cycle_symplectic: calls.append(m) or real(m))
        _rotations.cache_clear()
        params = random_pants_params(n, np.random.default_rng(n), tame=True)
        pants_surface_rep(params)
        assert calls == [n]
        for _ in range(2):
            for c in build_maximal(params).generators():
                canonical_point_of_element(c)
            pants_surface_rep(params)
        assert calls == [n]
        rots = _rotations(n)
        assert _rotations(n) is rots and not rots.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            rots[0, 0, 0] = 2.0
        r = cycle_symplectic(n)
        want = [np.eye(2 * n), sp_inverse(r).m, r.m]
        assert rots.tobytes() == np.array(want).tobytes()


class TestInfinityScreen:
    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("eq_tol", [1e-6, 1e-9, 1e-12])
    def test_determinant_screen_matches_svd_oracle(self, n, eq_tol, monkeypatch):
        # Lagrangian frames [U C V^T; U S V^T], C^2 + S^2 = I, whose u2 has
        # sigma_min = f * eq_tol around the infinity band and the screen's
        # cut |det u2| = 2 eq_tol, the other singular values 1 or in (0.3, 1)
        rng = np.random.default_rng([n, round(-np.log10(eq_tol))])
        zs = []
        for f in (0.5, 1.0, 1.5, 2.0, 3.0):
            for rest in (np.ones(n - 1), rng.uniform(0.3, 1.0, n - 1)):
                sv = np.r_[f * eq_tol, rest]
                u, v = random_orthogonal(n, rng), random_orthogonal(n, rng)
                zs.append(np.vstack([u * np.sqrt(1.0 - sv ** 2) @ v.T, u * sv @ v.T]))
        zs = np.array(zs)
        tol, rows = Tolerance(eq_tol=eq_tol), []

        def svd(a, *args, real_svd=np.linalg.svd, **kwargs):
            rows.append(len(a))
            return real_svd(a, *args, **kwargs)
        monkeypatch.setattr(np.linalg, "svd", svd)
        ms = np.broadcast_to(np.eye(2 * n), (len(zs), 2 * n, 2 * n))
        found, at_inf, *_ = _subspace_fixed_points(ms, tol, zs.copy(), np.ones(len(zs), dtype=bool))
        screened = sum(rows)
        values, expected = chart_points_by_svd(zs, tol)
        assert at_inf.tolist() == expected.tolist()
        np.testing.assert_array_equal(found.values, values)
        assert expected[:2].all() and not expected[4:].any()   # f = 1 sits on the band's edge
        # sigma_min = 3 eq_tol with the other singular values 1 passes the screen
        assert screened < len(zs)

    def test_sample_takes_singular_values_only_at_infinity(self, monkeypatch):
        # a pants in standard position has words whose points are at infinity;
        # only such frames fail the determinant screen, so the singular values
        # are taken of no frame whose point is finite, and no word takes a full
        # SVD (the words equal to the identity are refused at their Schur form)
        rng = np.random.default_rng(111)
        reps = [pants_surface_rep(random_pants_params(n, rng, tame=True)) for n in (1, 2, 3)]
        rows, finite = [], []

        def svd(a, *args, real_svd=np.linalg.svd, **kwargs):
            assert kwargs.get("compute_uv") is False
            s = real_svd(a, *args, **kwargs)
            rows.append(len(a))
            finite.append(int(np.count_nonzero(s[:, -1] > DEFAULT_TOL.eq_tol * np.maximum(1.0, s[:, 0]))))
            return s
        monkeypatch.setattr(np.linalg, "svd", svd)
        for rep in reps:
            sample = limit_set_sample(rep, max_word_length=4, seed=1)
            at_inf = sum(pt.is_infinity for _, pt in sample.points)
            assert 0 < at_inf <= sum(rows)
            assert finite and not any(finite)
            rows.clear()

    def test_no_singular_values_without_a_screened_frame(self, monkeypatch):
        # generic conjugates of pants generators have finite canonical points:
        # every frame passes the determinant screen, and no SVD runs at all
        rng = np.random.default_rng(15)
        rows = []

        def svd(a, *args, real_svd=np.linalg.svd, **kwargs):
            rows.append(len(a))
            return real_svd(a, *args, **kwargs)
        for n in (1, 2, 3):
            rep = build_maximal(random_pants_params(n, rng, tame=True))
            h = random_symplectic(n, rng)
            ms = np.array([(h @ c @ h.inv()).m for c in rep.generators()])
            with monkeypatch.context() as m:
                m.setattr(np.linalg, "svd", svd)
                found, at_inf, *_ = _subspace_fixed_points(ms, DEFAULT_TOL)
            assert found.live == [0, 1, 2] and not at_inf.any()
        assert rows == []
