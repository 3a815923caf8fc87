import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import block_diag

from maxrep import matcore
from maxrep.errors import IllConditioned, NearSingular, ResonantSpectrum, Singular
from maxrep.matcore import (
    CircleClass,
    Tolerance,
    circle_class,
    factor_signature,
    norm_inf,
    similarity_witness,
    spectral_radius,
    stein_solve,
)
from maxrep.maslov import indefinite_identity
from oracles import signature
from maxrep.sampling import random_contracting, random_invertible, random_orthogonal, random_spd
from oracles import stein_kron_solve


def test_tolerance_validation():
    with pytest.raises(ValueError):
        Tolerance(eq_tol=-1.0)
    # eq_tol is the only setting: the Stein gate follows it and the
    # unit-circle band is a constant
    with pytest.raises(TypeError):
        Tolerance(eq_tol=1e-12, series_tol=1e-9)
    assert Tolerance(eq_tol=1e-13).series_tol == 1e-13
    assert Tolerance().series_tol == 1e-12
    # an infinite band would let every gate with that bound pass
    for bad in (np.inf, np.nan):
        with pytest.raises(ValueError):
            Tolerance(eq_tol=bad)
        with pytest.raises(TypeError):
            Tolerance(unit_circle_band=bad)
    Tolerance()  # defaults valid


class TestSignature:
    def test_mixed_diagonal(self):
        assert signature(np.diag([2.0, -3.0])) == 0

    @pytest.mark.parametrize("n", range(1, 6))
    def test_indefinite_identity(self, n):
        for k in range(n + 1):
            assert signature(indefinite_identity(n, k)) == 2 * k - n

    def test_identity(self):
        assert signature(np.eye(3)) == 3

    def test_zero_band_rejected(self):
        with pytest.raises(NearSingular):
            signature(np.diag([1.0, 1e-15]))
        with pytest.raises(NearSingular):
            signature(np.zeros((2, 2)))

    def test_asymmetric_rejected(self):
        with pytest.raises(ValueError):
            signature(np.array([[1.0, 2.0], [0.0, 1.0]]))

    def test_parity_and_range(self, rng):
        for _ in range(50):
            n = int(rng.integers(1, 6))
            s = rng.normal(size=(n, n))
            s = s + s.T
            try:
                sig = signature(s)
            except NearSingular:
                continue
            assert -n <= sig <= n
            assert (sig - n) % 2 == 0


class TestSpectralRadius:
    def test_diagonal(self):
        assert spectral_radius(np.diag([0.5, -1 / 3])) == pytest.approx(0.5)

    def test_rotation(self):
        th = 0.37
        r = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
        assert spectral_radius(r) == pytest.approx(1.0)

    def test_nilpotent(self):
        assert spectral_radius(np.array([[0.0, 1.0], [0.0, 0.0]])) == pytest.approx(0.0)


class TestCircleClass:
    def test_examples(self):
        assert circle_class(np.diag([0.5, 0.5])) is CircleClass.CONTRACTING
        assert circle_class(np.diag([1.0, 0.5])) is CircleClass.HAS_UNIT_MODULUS_EIGENVALUE
        assert circle_class(np.diag([2.0, 0.5])) is CircleClass.MIXED
        assert circle_class(np.diag([2.0, 3.0])) is CircleClass.EXPANDING

    def test_singular_rejected(self):
        with pytest.raises(Singular):
            circle_class(np.diag([1.0, 0.0]))

    def test_similarity_invariance(self, rng):
        # eigenvalues kept well away from the unit-circle band
        for _ in range(25):
            n = int(rng.integers(1, 5))
            x = random_contracting(n, rng, rho_range=(0.2, 0.7))
            g = random_invertible(n, rng, sv_range=(0.5, 2.0))
            conj = g @ x @ np.linalg.inv(g)
            assert circle_class(conj) is circle_class(x)


# eigenvalue modulus ranges, cycled over the diagonal blocks; in the mixed
# kind every product of a small and a large modulus stays below 0.8
_MODULI = {"expanding": [(1.5, 2.0)], "mixed": [(0.2, 0.4), (1.5, 2.0)],
           "near_minus_one": [(0.2, 0.7)]}


def _stein_matrix(kind, n, rng):
    """G D G^{-1} with G's singular values in [0.5, 2].  D is block diagonal,
    alternating real entries and 2x2 rotation blocks (complex pairs); the
    near_minus_one kind starts with the real eigenvalue -0.999, where
    A^T + I is nearly singular."""
    ranges = _MODULI[kind]
    blocks = [np.array([[-0.999]])] if kind == "near_minus_one" else []
    size = len(blocks)
    while size < n:
        r = rng.uniform(*ranges[len(blocks) % len(ranges)])
        if len(blocks) % 2 == 0 or n - size == 1:
            blocks.append(np.array([[r * rng.choice([-1.0, 1.0])]]))
        else:
            th = rng.uniform(0.3, 2.8)
            blocks.append(r * np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]]))
        size += blocks[-1].shape[0]
    g = random_invertible(n, rng, sv_range=(0.5, 2.0))
    return g @ block_diag(*blocks) @ np.linalg.inv(g)


class TestStein:
    def test_zero_matrix(self):
        p = stein_solve(np.zeros((1, 1)), np.array([[5.0]]))
        np.testing.assert_allclose(p, [[-5.0]])

    def test_scalar_series_value(self):
        p = stein_solve(np.array([[0.5]]), np.array([[1.25]]))
        np.testing.assert_allclose(p, [[-5.0 / 3.0]], atol=1e-12)

    def test_against_series_oracle(self, rng):
        # independent oracle: truncated series P = -sum (A^T)^i Q A^i
        for n in [1, 2, 3, 4] * 5 + [12] * 5 + [32, 33, 64]:
            a = random_contracting(n, rng, rho_range=(0.2, 0.7))
            q = random_spd(n, rng) * rng.choice([-1.0, 1.0])
            p = stein_solve(a, q)
            acc = np.zeros_like(q)
            term = q.copy()
            for _ in range(600):
                acc += term
                term = a.T @ term @ a
            oracle = -acc
            assert norm_inf(p - oracle) <= 1e-11 * max(1.0, norm_inf(q))
            assert norm_inf(a.T @ p @ a - p - q) <= 1e-12 * max(1.0, norm_inf(q))

    @pytest.mark.parametrize("kind", ["expanding", "mixed", "near_minus_one"])
    @pytest.mark.parametrize("n", [1, 2, 8, 12, 32, 33, 64])
    def test_hard_spectra(self, rng, kind, n):
        # the Kronecker solve is the reference while its n^2 x n^2 system is small
        for _ in range(5 if n <= 8 else 1):
            a = _stein_matrix(kind, n, rng)
            q = random_spd(n, rng) * rng.choice([-1.0, 1.0])
            p = stein_solve(a, q)
            assert norm_inf(a.T @ p @ a - p - q) <= 1e-12 * max(1.0, norm_inf(q))
            if n <= 8:
                assert norm_inf(p - stein_kron_solve(a, q)) <= 1e-11 * max(1.0, norm_inf(p))

    @pytest.mark.parametrize("a, q", [
        ([[np.nan]], [[1.0]]),
        ([[np.inf]], [[1.0]]),
        # finite input whose solution overflows
        (np.diag([0.999, 0.5]), 1e308 * np.eye(2)),
    ])
    def test_non_finite_rejected(self, a, q):
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(IllConditioned):
            stein_solve(np.array(a), np.array(q))

    def test_schur_failure_refused(self, monkeypatch):
        def unconverged(select, b):
            return b, 0, None, None, np.eye(b.shape[0]), None, 1
        monkeypatch.setattr(matcore, "dgees", unconverged)
        with pytest.raises(IllConditioned):
            stein_solve(np.diag([0.5, 0.2]), np.eye(2))

    @pytest.mark.parametrize("lam", [0.9999, -0.9999, 0.99999])
    @pytest.mark.parametrize("n", [2, 5, 12])
    def test_near_resonance_accepted(self, n, lam):
        # lam^2 sits 2e-4 or 2e-5 from 1, far outside the 1e-8 resonance
        # band; a backward-stable residual scales with |A|^2 |P|, where
        # |P| ~ |Q| / (1 - lam^2), so a gate relative to |Q| alone refused
        # about half of these
        rng = np.random.default_rng(20 + n)
        for _ in range(5):
            rest = rng.uniform(0.2, 0.9, size=n - 1) * rng.choice([-1.0, 1.0], size=n - 1)
            g = random_invertible(n, rng, sv_range=(0.5, 4.0))
            a = g @ np.diag(np.concatenate([[lam], rest])) @ np.linalg.inv(g)
            q = random_spd(n, rng) * rng.choice([-1.0, 1.0])
            p = stein_solve(a, q)
            oracle = stein_kron_solve(a, q)
            assert norm_inf(p - oracle) <= 1e-10 * norm_inf(oracle)
            assert norm_inf(a.T @ p @ a - p - q) <= 1e-12 * norm_inf(a) ** 2 * norm_inf(p)

    def test_resonant_rejected(self):
        with pytest.raises(ResonantSpectrum):
            stein_solve(np.diag([2.0, 0.5]), np.eye(2))


class TestSimilarityWitness:
    def test_equal_diagonals(self):
        x = np.diag([0.5, 1 / 3])
        g = similarity_witness(x, x)
        assert g is not None
        assert norm_inf(g @ x @ np.linalg.inv(g) - x) <= 1e-9

    def test_distinct_scalars(self):
        assert similarity_witness(np.array([[0.5]]), np.array([[1 / 3]])) is None

    def test_triangular_vs_diagonal(self):
        x = np.array([[0.5, 1.0], [0.0, 1 / 3]])
        y = np.diag([0.5, 1 / 3])
        g = similarity_witness(x, y)
        assert g is not None
        assert norm_inf(g @ x @ np.linalg.inv(g) - y) <= 1e-9 * max(1.0, norm_inf(y))

    def test_same_charpoly_not_similar(self):
        x = np.array([[1.0, 1.0], [0.0, 1.0]])
        assert similarity_witness(x, np.eye(2)) is None

    def test_symmetry_and_transpose(self, rng):
        for _ in range(10):
            n = int(rng.integers(1, 4))
            x = random_invertible(n, rng)
            y = random_invertible(n, rng)
            fwd = similarity_witness(x, y)
            bwd = similarity_witness(y, x)
            assert (fwd is None) == (bwd is None)
            gt = similarity_witness(x, x.T)
            assert gt is not None


class TestFactorSignature:
    def test_identity(self):
        m, k = factor_signature(np.eye(3))
        np.testing.assert_allclose(m, np.eye(3))
        assert k == 3

    def test_diagonal(self):
        m, k = factor_signature(np.diag([4.0, -9.0]))
        np.testing.assert_allclose(np.abs(m), np.diag([2.0, 3.0]), atol=1e-12)
        assert k == 1

    def test_spd_is_cholesky_like(self, rng):
        for _ in range(10):
            n = int(rng.integers(1, 5))
            s = random_spd(n, rng)
            m, k = factor_signature(s)
            assert k == n
            np.testing.assert_allclose(m @ m.T, s, atol=1e-10)

    def test_signature_consistency(self, rng):
        for _ in range(25):
            n = int(rng.integers(1, 6))
            s = rng.normal(size=(n, n))
            s = s + s.T + 0.3 * np.eye(n)
            try:
                sig = signature(s)
            except NearSingular:
                continue
            m, k = factor_signature(s)
            assert sig == 2 * k - n
            ik = indefinite_identity(n, k)
            assert norm_inf(m @ ik @ m.T - s) <= 1e-9 * max(1.0, norm_inf(s))

    def test_near_singular_rejected(self):
        with pytest.raises(NearSingular):
            factor_signature(np.diag([1.0, 1e-14]))


@settings(max_examples=40, deadline=None)
@given(st.lists(st.sampled_from([-2.0, -1.0, -0.5, 0.5, 1.0, 3.0]),
                min_size=1, max_size=5),
       st.integers(min_value=0, max_value=2 ** 31 - 1))
def test_signature_orthogonal_invariance(diag, seed):
    # conjugating by an orthogonal matrix never changes the signature
    rng = np.random.default_rng(seed)
    n = len(diag)
    s = np.diag(np.array(diag))
    q = random_orthogonal(n, rng)
    assert signature(q @ s @ q.T) == signature(s)
