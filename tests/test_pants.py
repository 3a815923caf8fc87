import warnings
from fractions import Fraction

import numpy as np
import pytest

from maxrep.errors import (
    IllConditioned,
    MaxRepError,
    NearSingular,
    NoCanonicalFixedPoint,
    NotFixed,
    NotMaximal,
    NotTransverse,
    NotValid,
    Singular,
)
from maxrep.maslov import Triple, indefinite_identity, maslov, normalize_maximal_triple
from maxrep.matcore import DEFAULT_TOL, Tolerance, norm_inf
from maxrep.normalform import canonical_point_of_element
from maxrep.pants import (
    GeneralPantsParams,
    PantsParams,
    PantsRep,
    ParamClass,
    _build_maximal_stack,
    _check_stack,
    _fingerprints,
    _pants_blocks,
    build_general,
    build_maximal,
    classify_params,
    fingerprint,
    fingerprint_distance,
    params_equivalent,
    recover_params,
    toledo,
    toledo_signature_shortcut,
)
from maxrep.symplectic import (
    INFINITY,
    BoundaryPoint,
    SpMat,
    finite_point,
    identity_point,
    moebius_act,
    point_distance,
    sp_inverse,
    swap_symplectic,
    zero_point,
)
from tests_support import (
    assert_slices_match,
    outcomes,
    pants_product,
    random_contracting,
    random_invertible,
    random_orthogonal,
    random_pants_params,
    random_spd,
    random_symplectic,
    spectral_radius,
)
from oracles import (
    classify_one,
    fingerprint_by_words,
    fingerprint_distance_by_two_passes,
    fingerprint_one,
    normalize_triple_by_moves,
    pants_blocks_by_six_inverses,
    toledo_one,
)


def scalar_params(x1, x2, x3):
    return PantsParams(np.array([[x1]]), np.array([[x2]]), np.array([[x3]]))


class TestClassify:
    def test_scalar_examples(self):
        assert classify_params(scalar_params(0.5, 0.5, 0.5)) is ParamClass.IN_R_STAR
        assert classify_params(scalar_params(2.0, 2.0, 2.0)) is ParamClass.IN_TILDE_R
        assert classify_params(scalar_params(0.5, -0.5, 0.5)) is ParamClass.NOT_VALID

    def test_boundary_case(self):
        # one length exactly on the unit circle: in the closed cone, not the open one
        assert classify_params(scalar_params(1.0, 0.5, 0.5)) is ParamClass.IN_R

    def test_asymmetric_product_invalid(self, rng):
        x1 = random_contracting(2, rng)
        x2 = random_contracting(2, rng)
        x3 = random_contracting(2, rng)
        p = PantsParams(x1, x2, x3)
        prod = pants_product(p)
        if norm_inf(prod - prod.T) > 1e-6:
            assert classify_params(p) is ParamClass.NOT_VALID


def _outcome(f, *args):
    """f(*args), or the library error it raises."""
    try:
        return f(*args)
    except MaxRepError as exc:
        return exc


def _kind(result):
    """The class of an error, or a value as it is."""
    return type(result) if isinstance(result, MaxRepError) else result


class TestCheckStack:
    def test_mixed_stack_matches_single_calls(self):
        half, eye = 0.5 * np.eye(2), np.eye(2)
        triples = [
            (half, half, half),                                  # IN_R_STAR
            (np.diag([1.0, 0.5]), half, half),                   # IN_R
            (half, np.diag([1.0, 0.5]), half),                   # IN_R, from X2 alone
            (2 * eye, 2 * eye, 2 * eye),                         # IN_TILDE_R
            (half, half, np.diag([1.5, 0.5])),                   # IN_TILDE_R, from X3 alone
            (half, -half, half),                                 # NOT_VALID, signature -2
            (np.diag([0.5, 1e-12]), half, half),                 # X1 singular
            (half, np.diag([0.5, 0.0]), half),                   # X2 singular
            (np.array([[0.5, 0.3], [0.0, 0.5]]), half, half),    # asymmetric product
            (np.diag([100.0, 1e-5]), eye, np.diag([100.0, 1e-5])),   # signature zero band
        ]
        xs = np.array(triples)
        classes, sigs = map(outcomes, _check_stack(xs, DEFAULT_TOL))
        assert len(classes) == len(sigs) == len(triples)
        seen = set()
        for t, cls, sig in zip(triples, classes, sigs):
            p = PantsParams(*t)
            t_sig = sig if isinstance(sig, MaxRepError) else Fraction(p.n + sig, 2)
            for got, single, oracle in ((cls, classify_params, classify_one),
                                        (t_sig, toledo_signature_shortcut, toledo_one)):
                # the single call, a stack of one, gives the same value or message
                assert _kind(_outcome(single, p)) == _kind(got)
                assert str(_outcome(single, p)) == str(got)
                # the one-matrix-at-a-time check gives the same value or error class
                assert _kind(_outcome(oracle, p)) == _kind(got)
                seen.add(_kind(got))
        assert set(ParamClass) | {Singular, NotValid, NearSingular} <= seen
        # a non-finite entry refuses its own slice, as it does one triple
        xs[3, 0, 1, 1] = np.nan
        for got, before in zip(map(outcomes, _check_stack(xs, DEFAULT_TOL)), (classes, sigs)):
            assert isinstance(got[3], IllConditioned)
            assert [_kind(r) for r in got[:3] + got[4:]] == [_kind(r) for r in before[:3] + before[4:]]
        p = PantsParams(np.full((2, 2), np.nan), half, half)
        for f in (classify_params, toledo_signature_shortcut, classify_one, toledo_one):
            with pytest.raises(IllConditioned):
                f(p)

    def test_non_finite_slices_refused_alone(self):
        # finite lengths whose product overflows, and a NaN length, beside a
        # valid triple: each non-finite slice is refused on its own
        half, big = 0.5 * np.eye(2), 1e200 * np.eye(2)
        xs = np.array([(half, half, half), (big, 1e-200 * np.eye(2), big),
                       (np.full((2, 2), np.nan), half, half)])
        with np.errstate(over="ignore"):
            classes, sigs = map(outcomes, _check_stack(xs, DEFAULT_TOL))
        assert classes[0] is ParamClass.IN_R_STAR and sigs[0] == 2
        for got in classes[1:] + sigs[1:]:
            assert isinstance(got, IllConditioned) and str(got) == "matrix contains NaN or Inf entries"

    def test_random_stack_matches_loop(self, rng):
        ps = [random_pants_params(3, rng, tame=bool(i % 2)) for i in range(40)]
        xs = np.array([p.matrices() for p in ps])
        classes, sigs = map(outcomes, _check_stack(xs, DEFAULT_TOL))
        for p, cls, sig in zip(ps, classes, sigs):
            assert cls is classify_one(p)
            assert Fraction(p.n + sig, 2) == toledo_one(p)

    def test_rows_match_one_at_a_time(self, rng):
        xs = np.array([random_pants_params(2, rng).matrices() for _ in range(4)])
        rows = list(PantsParams._rows(*xs.swapaxes(0, 1)))
        for p, x in zip(rows, xs, strict=True):
            q = PantsParams(*x)
            assert vars(p).keys() == vars(q).keys()
            for a, b in zip(p.matrices(), q.matrices()):
                assert a.dtype == b.dtype and np.array_equal(a, b) and np.shares_memory(a, xs)
        with pytest.raises(ValueError):
            list(PantsParams._rows(xs[:, 0], xs[:, 1], xs[:2, 2]))


def _near_circle_lengths(n: int, delta: float, rng: np.random.Generator) -> list:
    """Lengths with spectral radius 1 - delta: normal ones (the rest of the
    spectrum at 1e-3, or a rotation pair), non-normal ones (a triangular
    coupling, conjugated by a non-orthogonal factor) and Jordan-type ones."""
    r, q = 1.0 - delta, random_orthogonal(n, rng)
    lengths = [q @ np.diag(np.r_[r, np.full(n - 1, 1e-3)]) @ q.T,
               q @ np.diag(np.r_[-r, rng.uniform(1e-3, 0.5, n - 1)]) @ q.T]
    if n >= 2:
        c, s_ = np.cos(0.7), np.sin(0.7)
        rot = np.eye(n) * 0.3
        rot[:2, :2] = r * np.array([[c, -s_], [s_, c]])
        lengths.append(q @ rot @ q.T)
        t = np.diag(np.r_[r, rng.uniform(1e-3, 0.2, n - 1)])
        t[0, 1:] = 10.0 ** rng.uniform(-6, -2, n - 1)
        g = random_invertible(n, rng, sv_range=(0.5, 2.0))
        lengths += [g @ t @ np.linalg.inv(g), t]
        jordan = np.diag(np.r_[np.full(2, r), np.full(n - 2, 0.2)])
        jordan[0, 1] = 1e-4
        lengths.append(g @ jordan @ np.linalg.inv(g))
    return lengths


class TestRadiusScreen:
    """_check_stack's radius screen classifies as eigvals alone would."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_classes_match_eigvals_oracle(self, n, monkeypatch):
        # X3 = p X1^{-1} X2^T makes the product p I; p keeps |X3| at 0.1, so
        # the class turns on the two near-circle lengths
        rng = np.random.default_rng([n, 21])
        triples = []
        for delta in np.geomspace(1e-10, 1e-5, 16):
            lengths = _near_circle_lengths(n, delta, rng)
            for x1 in lengths:
                for x2 in (lengths[0], lengths[-1], 0.5 * np.eye(n)):
                    x1i = np.linalg.inv(x1)
                    p = 0.1 / (np.linalg.norm(x1i, 2) * np.linalg.norm(x2, 2))
                    triples.append((x1, x2, p * x1i @ x2.T))
        xs, rows = np.array(triples), []

        def eigvals(a, real=np.linalg.eigvals):
            rows.append(len(a))
            return real(a)
        with monkeypatch.context() as m:
            m.setattr(np.linalg, "eigvals", eigvals)
            classes = outcomes(_check_stack(xs, DEFAULT_TOL)[0])
        want = [classify_one(PantsParams(*t)) for t in triples]
        assert classes == want
        assert {ParamClass.IN_R, ParamClass.IN_R_STAR} <= set(want)
        # the screen clears lengths within 1e-7 of the band's edge, and leaves others to eigvals
        assert 0 < sum(rows) < 3 * len(xs)
        edge = [t for t, c in zip(triples, classes) if c is ParamClass.IN_R_STAR
                and max(map(spectral_radius, t)) > 1.0 - 1e-7]
        without_eigvals = []
        for t in edge:
            rows.clear()
            with monkeypatch.context() as m:
                m.setattr(np.linalg, "eigvals", eigvals)
                assert outcomes(_check_stack(np.array([t]), DEFAULT_TOL)[0]) == [ParamClass.IN_R_STAR]
            without_eigvals.append(rows == [])
        assert any(without_eigvals)


class TestBuildMaximal:
    def test_frozen_scalar_matrices(self):
        rep = build_maximal(scalar_params(0.5, 0.5, 0.5))
        np.testing.assert_allclose(rep.c1.m, [[0.5, 0.0], [1.5, 2.0]], atol=1e-15)
        np.testing.assert_allclose(rep.c2.m, [[-3.5, 1.5], [-3.0, 1.0]], atol=1e-15)
        np.testing.assert_allclose(rep.c3.m, [[2.0, -3.0], [0.0, 0.5]], atol=1e-15)
        assert rep.relation_residual <= 1e-15

    def test_images_fix_standard_points(self, rng):
        p = random_pants_params(3, rng)
        rep = build_maximal(p)
        assert point_distance(moebius_act(rep.c1, zero_point(3)), zero_point(3)) <= 1e-12
        assert point_distance(moebius_act(rep.c2, identity_point(3)),
                              identity_point(3)) <= 1e-10
        assert moebius_act(rep.c3, INFINITY).is_infinity

    def test_orthogonal_conjugation_covariance(self, rng):
        p = random_pants_params(2, rng)
        k = random_orthogonal(2, rng)
        q = PantsParams(k @ p.X1 @ k.T, k @ p.X2 @ k.T, k @ p.X3 @ k.T)
        rep_p, rep_q = build_maximal(p), build_maximal(q)
        z = np.zeros((2, 2))
        ell = SpMat(np.block([[k, z], [z, k]]))
        for cp, cq in zip(rep_p.generators(), rep_q.generators()):
            np.testing.assert_allclose((ell @ cp @ sp_inverse(ell)).m, cq.m, atol=1e-11)

    def test_rejects_invalid(self):
        with pytest.raises(NotValid):
            build_maximal(scalar_params(0.5, -0.5, 0.5))

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_stack_matches_one_slice_calls(self, n, rng):
        # NaN, Inf, overflowing, singular, non-positive and non-contracting
        # slices between good ones: each builds or refuses as it does alone
        good = [random_pants_params(n, rng, tame=True) for _ in range(3)]
        x1, x2, x3 = good[0].matrices()
        nan, inf = np.full((n, n), np.nan), np.where(np.eye(n) > 0, np.inf, x3)
        cases = [good[0], PantsParams(nan, x2, x3), good[1], PantsParams(x1, x2, inf),
                 PantsParams(x1, 0.0 * x2, x3), PantsParams(x1, -x2, x3),
                 PantsParams(4.0 * x1, x2, x3), PantsParams(1e200 * x1, 1e-200 * x2, 1e200 * x3), good[2]]
        with np.errstate(over="ignore"):
            classes, sigs, reps = _build_maximal_stack(np.array([p.matrices() for p in cases]), DEFAULT_TOL)
            assert_slices_match(classes, classify_params, [(p,) for p in cases])
            assert_slices_match(sigs, lambda p: int(2 * toledo_signature_shortcut(p)) - n, [(p,) for p in cases])
            assert_slices_match(reps, build_maximal, [(p,) for p in cases])
        assert {0, 2, 8} <= set(reps.live)
        assert isinstance(reps.refusals[1], IllConditioned) and isinstance(reps.refusals[3], IllConditioned)

    def test_relation_iff_symmetric_product(self, rng):
        # both directions, on raw block assembly without the validity gate
        for _ in range(20):
            n = int(rng.integers(1, 4))
            x1 = random_invertible(n, rng)
            x2 = random_invertible(n, rng)
            sym = rng.uniform() < 0.5
            if sym:
                s = random_spd(n, rng) * rng.choice([-1.0, 1.0])
                x3 = s @ np.linalg.inv(x1) @ x2.T
            else:
                x3 = random_invertible(n, rng)
            prod = x3 @ np.linalg.inv(x2.T) @ x1
            blocks = _pants_blocks(x1, x2, x3, np.eye(n))
            mats = [np.block([[a, b], [c, d]]) for a, b, c, d in blocks]
            residual = norm_inf(mats[2] @ mats[1] @ mats[0] - np.eye(2 * n))
            if norm_inf(prod - prod.T) <= 1e-9 * max(1.0, norm_inf(prod)):
                assert residual <= 1e-8
            else:
                assert residual > 1e-8


    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("k", [1, 7])
    def test_blocks_match_six_inverses(self, n, k):
        # one stacked inverse solves each matrix on its own, so every block
        # is the one six separate inverses give, bit for bit, at either
        # middle fixed point
        rng = np.random.default_rng([n, k])
        xs = np.array([random_pants_params(n, rng, tame=True).matrices() for _ in range(k)])
        xs[1::2] *= 10.0 ** rng.uniform(-3, 3, (len(xs[1::2]), 3, 1, 1))
        for ik in (np.eye(n), indefinite_identity(n, n // 2)):
            got = _pants_blocks(*xs.swapaxes(0, 1), ik)
            want = pants_blocks_by_six_inverses(*xs.swapaxes(0, 1), ik)
            for g, w in zip(got, want):
                for a, b in zip(g, w):
                    assert a.shape == b.shape == (k, n, n)
                    assert a.tobytes() == b.tobytes()


class TestBuildGeneral:
    def test_reduces_to_maximal_at_full_index(self, rng):
        p = random_pants_params(2, rng)
        gp = GeneralPantsParams(2, p.X1, p.X2, p.X3)
        rep_g = build_general(gp)
        rep_m = build_maximal(p)
        for cg, cm in zip(rep_g.generators(), rep_m.generators()):
            np.testing.assert_allclose(cg.m, cm.m, atol=1e-13)

    def test_middle_fixed_point(self, rng):
        n = 2
        for i in range(n + 1):
            x1 = random_contracting(n, rng)
            x2 = random_contracting(n, rng)
            sigma = random_invertible(n, rng)
            target = sigma @ indefinite_identity(n, rng.integers(0, n + 1)) @ sigma.T
            x3 = target @ np.linalg.inv(x1) @ x2.T
            gp = GeneralPantsParams(i, x1, x2, x3)
            rep = build_general(gp)
            ik = finite_point(indefinite_identity(n, i))
            assert point_distance(moebius_act(rep.c2, ik), ik) <= 1e-9
            assert rep.relation_residual <= 1e-10

    def test_rejects_asymmetric(self, rng):
        with pytest.raises(NotValid):
            build_general(GeneralPantsParams(
                1, random_invertible(2, rng), random_invertible(2, rng),
                random_invertible(2, rng)))


class TestToledo:
    def test_maximal_value(self, rng):
        p = random_pants_params(2, rng)
        rep = build_maximal(p)
        t = Triple(zero_point(2), identity_point(2), INFINITY)
        assert toledo(rep, t) == Fraction(2)
        assert toledo_signature_shortcut(p) == Fraction(2)

    def test_scalar_general_value(self):
        gp = GeneralPantsParams(0, np.array([[0.5]]), np.array([[0.5]]), np.array([[0.5]]))
        rep = build_general(gp)
        t = Triple(zero_point(1), finite_point(indefinite_identity(1, 0)), INFINITY)
        assert toledo(rep, t) == Fraction(0)  # i + j - n = 0 + 1 - 1

    def test_signature_zero_product(self):
        p = scalar_params(0.5, -0.5, 0.5)
        with pytest.raises(NotValid):
            build_maximal(p)
        # the shortcut is still defined: product -1/2 has signature -1
        assert toledo_signature_shortcut(p) == Fraction(0)

    def test_closed_cone_params_still_build(self):
        # spectra outside the closed unit disc: buildable, maximal, but the
        # parameters are only unique in the contracting cone
        p = scalar_params(2.0, 2.0, 2.0)
        assert classify_params(p) is ParamClass.IN_TILDE_R
        rep = build_maximal(p)
        assert rep.relation_residual <= 1e-12
        assert toledo_signature_shortcut(p) == Fraction(1)
        t = Triple(zero_point(1), identity_point(1), INFINITY)
        assert toledo(rep, t) == Fraction(1)

    def test_agreement_on_random_params(self, rng):
        for _ in range(30):
            n = int(rng.integers(1, 4))
            p = random_pants_params(n, rng)
            rep = build_maximal(p)
            t = Triple(zero_point(n), identity_point(n), INFINITY)
            assert toledo(rep, t) == toledo_signature_shortcut(p) == Fraction(n)

    def test_orientation_reversal_negates(self, rng):
        for _ in range(10):
            n = int(rng.integers(1, 3))
            p = random_pants_params(n, rng)
            rep = build_maximal(p)
            flipped = PantsRep(sp_inverse(rep.c3), sp_inverse(rep.c2), sp_inverse(rep.c1))
            t = Triple(INFINITY, identity_point(n), zero_point(n))
            assert toledo(flipped, t) == -Fraction(n)

    def test_refuses_triples_not_transverse_at_the_callers_tol(self):
        # c1 takes y3 = inf to about 1e-5: transverse to y1 = 0 at the default
        # tolerance, not at 1e-4
        rep = build_maximal(scalar_params(1e-5, 0.5, 0.5))
        t = Triple(zero_point(1), identity_point(1), INFINITY)
        assert toledo(rep, t) == Fraction(1)
        with pytest.raises(NotTransverse, match="^points 1 and 2 are not transverse$") as info:
            toledo(rep, t, Tolerance(eq_tol=1e-4))
        assert (info.value.stage, info.value.bound) == ("pair transversality", 1e-4)
        assert info.value.measured == pytest.approx(1e-5, rel=1e-3)

    def test_loose_tolerances_read_the_fixed_points_off_the_riccati_residual(self):
        # c1 = [[1/2, 0], [3/2, 2]] fixes y1 = 0 exactly; at eq_tol 1e-2 its
        # action's denominator CX + D = 2 sits in the action's gray zone, which
        # the fixed-point check no longer reads
        rep = build_maximal(PantsParams(0.5, 0.5, 0.5))
        t = Triple(zero_point(1), identity_point(1), INFINITY)
        for eq_tol in (1e-2, 0.1):
            assert toledo(rep, t, Tolerance(eq_tol=eq_tol)) == Fraction(1)
        # c1 takes y3 = inf to 1/3, inside the band 0.5 around y1 = 0
        with pytest.raises(NotTransverse) as info:
            toledo(rep, t, Tolerance(eq_tol=0.5))
        assert info.value.stage == "pair transversality"
        assert info.value.measured == pytest.approx(1 / 3, rel=1e-12)
        assert info.value.bound == 0.5

    def test_three_generators_share_one_fixed_point_check(self, monkeypatch):
        import maxrep.normalform as nf
        sizes, kernel = [], nf._riccati

        def spy(ms, ys, at_inf):
            sizes.append(len(ms))
            return kernel(ms, ys, at_inf)

        monkeypatch.setattr(nf, "_riccati", spy)
        rep = build_maximal(PantsParams(0.5, 0.5, 0.5))
        assert toledo(rep, Triple(zero_point(1), identity_point(1), INFINITY)) == Fraction(1)
        assert sizes == [3]

    def test_wrong_point_names_its_generator(self):
        rep = build_maximal(PantsParams(0.5, 0.5, 0.5))
        y = np.array([[2.0]])
        c2 = rep.c2
        riccati = float(np.abs(c2.A @ y + c2.B - y @ (c2.C @ y + c2.D)).max())
        with pytest.raises(NotFixed, match="^c2 does not fix its claimed point") as info:
            toledo(rep, Triple(zero_point(1), finite_point(y), INFINITY))
        assert info.value.stage == "fixed-point displacement"
        assert info.value.measured == pytest.approx(riccati, rel=1e-12)
        assert info.value.bound == pytest.approx(2 * np.sqrt(DEFAULT_TOL.eq_tol), rel=1e-15)

    def test_maximality_characterization(self, rng):
        # fixed points exist, both index terms equal n
        n = 2
        p = random_pants_params(n, rng)
        rep = build_maximal(p)
        y1, y2, y3 = zero_point(n), identity_point(n), INFINITY
        assert maslov(Triple(y1, y2, y3)) == n
        extra = moebius_act(rep.c1, y3)
        assert maslov(Triple(y1, extra, y2)) == n


class TestRecover:
    def test_round_trip_exact(self, rng):
        for _ in range(10):
            n = int(rng.integers(1, 4))
            p = random_pants_params(n, rng, tame=True)
            rep = build_maximal(p)
            q, h = recover_params(rep)
            for xp, xq in zip(p.matrices(), q.matrices()):
                assert norm_inf(xp - xq) <= 1e-9 * max(1.0, norm_inf(xp))
            np.testing.assert_allclose(h.m, np.eye(2 * n), atol=1e-9)

    def test_conjugated_rep_lands_in_orbit(self, rng):
        for _ in range(10):
            n = int(rng.integers(1, 4))
            p = random_pants_params(n, rng, tame=True)
            rep = build_maximal(p)
            g = random_symplectic(n, rng)
            gi = sp_inverse(g)
            conj = PantsRep(g @ rep.c1 @ gi, g @ rep.c2 @ gi, g @ rep.c3 @ gi)
            q, _ = recover_params(conj)
            assert classify_params(q) in (ParamClass.IN_R, ParamClass.IN_R_STAR)
            assert fingerprint_distance(p, q) <= 1e-7
            assert params_equivalent(p, q).equivalent

    def test_unit_modulus_length(self, rng):
        # a circle-spectrum first length: recovery still works from the
        # canonical points of the standard position
        th = 0.7
        x1 = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
        x2 = random_contracting(2, rng, rho_range=(0.3, 0.5))
        s = random_spd(2, rng)
        x3 = s @ np.linalg.inv(x1) @ x2.T
        x3 *= min(1.0, 0.8 / np.max(np.abs(np.linalg.eigvals(x3))))
        p = PantsParams(x1, x2, x3)
        assert classify_params(p) is ParamClass.IN_R
        rep = build_maximal(p)
        q, _ = recover_params(rep)
        for xp, xq in zip(p.matrices(), q.matrices()):
            assert norm_inf(xp - xq) <= 1e-8

    def test_first_failing_generator_refuses(self, rng):
        # the finiteness check of the stacked subspace call must not
        # pre-empt the refusal of an earlier generator
        rep = build_maximal(random_pants_params(2, rng, tame=True))
        nan, swap = SpMat(np.full((4, 4), np.nan)), swap_symplectic(2)
        for gens, err in (((swap, rep.c2, nan), NoCanonicalFixedPoint),
                          ((rep.c1, swap, nan), NoCanonicalFixedPoint),
                          ((nan, swap, rep.c3), IllConditioned),
                          ((rep.c1, rep.c2, nan), IllConditioned)):
            with pytest.raises(MaxRepError) as info:
                recover_params(PantsRep(*gens))
            assert type(info.value) is err

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_non_maximal_rep_refused_with_its_index(self, rng, n):
        # the canonical points of build_general's generators are 0,
        # diag(1_i, -1_{n-i}) and infinity, a triple of index 2i - n
        for i in range(n):
            p = random_pants_params(n, rng, tame=True)
            rep = build_general(GeneralPantsParams(i, *p.matrices()))
            with pytest.raises(NotMaximal, match=f"triple has index {2 * i - n}, expected {n}") as info:
                recover_params(rep)
            e = info.value
            assert (e.stage, e.measured, e.bound) == ("maslov index", 2 * i - n, n)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_indefinite_product_refused_with_its_signature(self, rng, n):
        # build_general with i = n: the canonical triple (0, e, inf) is maximal,
        # but a product of signature 2k - n < n fails the membership check
        for k in range(n):
            for _ in range(4):
                p = random_pants_params(n, rng, tame=True)
                q = random_orthogonal(n, rng)
                s = q @ (indefinite_identity(n, k) * rng.uniform(0.8, 1.25, n)) @ q.T
                x3 = s @ np.linalg.inv(p.X1) @ p.X2.T
                mu = min(1.0, 0.85 / spectral_radius(x3))   # contracting lengths
                rep = build_general(GeneralPantsParams(n, p.X1, mu * p.X2, mu * x3))
                with pytest.raises(NotMaximal, match="recovered parameters fail membership") as info:
                    recover_params(rep)
                e = info.value
                assert (e.stage, e.measured, e.bound) == ("product signature", 2 * k - n, n)

    def test_no_boundary_point_made(self, rng, monkeypatch):
        # the canonical points of a conjugated pants reach the normalizer as
        # one array stack; the one-element call still makes its one point
        made, init = [], BoundaryPoint.__init__
        monkeypatch.setattr(BoundaryPoint, "__init__", lambda pt, *a: made.append(pt) or init(pt, *a))
        for n in (1, 2, 3, 4):
            rep = build_maximal(random_pants_params(n, rng, tame=True))
            g = random_symplectic(n, rng)
            conj = PantsRep(*(g @ c @ sp_inverse(g) for c in rep.generators()))
            recover_params(conj)
        assert made == []
        canonical_point_of_element(conj.c1)
        assert len(made) == 1

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_normalizer_matches_elementary_moves(self, rng, n):
        # the canonical points of conjugated pants, normalized from the pairings
        # of their graph frames and by a swap, a translation and a shear
        for _ in range(10):
            rep = build_maximal(random_pants_params(n, rng, tame=True))
            g = random_symplectic(n, rng)
            pts = [canonical_point_of_element(g @ c @ sp_inverse(g)) for c in rep.generators()]
            h, ref = normalize_maximal_triple(Triple(*pts)).m, normalize_triple_by_moves(*pts).m
            assert np.abs(h - ref).max() <= 1e-12 * max(1.0, np.abs(ref).max())


class TestEquivalence:
    def test_self(self, rng):
        p = random_pants_params(2, rng)
        assert params_equivalent(p, p).equivalent

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_fingerprint_matches_word_loop(self, n):
        # non-symmetric letters, so that a transposed letter in the wrong
        # place changes the trace
        rng = np.random.default_rng(70 + n)
        p = PantsParams(*rng.normal(size=(3, n, n)))
        fp, words = fingerprint(p), fingerprint_by_words(p)
        assert fp.shape == words.shape == (258,)
        assert np.all(np.abs(fp - words) <= 1e-13 * np.maximum(1.0, np.abs(words)))

    @pytest.mark.parametrize("n", range(1, 9))
    def test_stacked_fingerprints_match_two_passes(self, n):
        # the stacked pass takes the products and contractions of two
        # one-triple passes, with a leading axis; an orthogonal conjugate
        # gives a distance at the rounding level, a random triple a large one
        rng = np.random.default_rng(90 + n)
        for _ in range(4):
            p = PantsParams(*(rng.normal(size=(3, n, n)) * 10.0 ** rng.uniform(-3, 3, (3, n, n))))
            w = random_orthogonal(n, rng)
            conjugate = PantsParams(*(w @ x @ w.T for x in p.matrices()))
            for q in (conjugate, PantsParams(*rng.normal(size=(3, n, n)))):
                fps = _fingerprints(np.array((p.matrices(), q.matrices())))
                assert fps.tobytes() == np.array((fingerprint_one(p), fingerprint_one(q))).tobytes()
                assert fingerprint(p).tobytes() == fingerprint_one(p).tobytes()
                got, want = fingerprint_distance(p, q), fingerprint_distance_by_two_passes(p, q)
                assert np.float64(got).tobytes() == np.float64(want).tobytes()

    def test_fingerprint_distance_across_sizes(self, rng):
        p, q = random_pants_params(2, rng), random_pants_params(3, rng)
        assert fingerprint_distance(p, q) == np.inf
        assert not params_equivalent(p, q).equivalent

    def test_orthogonal_orbit(self, rng):
        for _ in range(10):
            n = int(rng.integers(1, 4))
            p = random_pants_params(n, rng)
            k = random_orthogonal(n, rng)
            q = PantsParams(k @ p.X1 @ k.T, k @ p.X2 @ k.T, k @ p.X3 @ k.T)
            res = params_equivalent(p, q)
            assert res.equivalent
            w = res.witness
            assert norm_inf(w @ p.X1 @ w.T - q.X1) <= 1e-7

    def test_distinct_scalars(self):
        assert not params_equivalent(scalar_params(0.5, 0.5, 0.5),
                                     scalar_params(1 / 3, 1 / 3, 0.75)).equivalent

    @pytest.mark.parametrize("bad", [np.nan, 1e200])
    def test_non_finite_or_overflowing_rejected(self, rng, bad):
        # 1e200 overflows the length-3 trace fingerprint
        p = random_pants_params(2, rng)
        x1 = p.X1.copy()
        x1[0, 0] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(IllConditioned):
                params_equivalent(PantsParams(x1, p.X2, p.X3), p)

    def test_overflowing_fingerprint_refused_with_fields(self):
        # the length-3 traces of 1e200 I overflow alike in both triples, so
        # the distance is not finite
        p = PantsParams(1e200 * np.eye(2), np.eye(2), np.eye(2))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(IllConditioned, match="^trace fingerprint overflows$") as info:
                params_equivalent(p, p)
        assert (info.value.stage, info.value.bound) == ("trace fingerprint", max(1e-7, 100 * DEFAULT_TOL.eq_tol))
        assert not np.isfinite(info.value.measured)

    def test_differential_finite_difference(self, rng):
        # boundary derivatives of the built representation, against central
        # differences of the action (step 1e-6)
        p = random_pants_params(2, rng, tame=True)
        rep = build_maximal(p)
        step = 1e-6
        for c, x, base in ((rep.c1, p.X1, np.zeros((2, 2))),
                           (rep.c2, p.X2, np.eye(2))):
            for _ in range(3):
                v = rng.normal(size=(2, 2))
                v = (v + v.T) / 2
                plus = moebius_act(c, finite_point(base + step * v)).value
                minus = moebius_act(c, finite_point(base - step * v)).value
                approx = (plus - minus) / (2 * step)
                exact = x @ v @ x.T
                assert norm_inf(approx - exact) <= 1e-4 * max(1.0, norm_inf(exact))
