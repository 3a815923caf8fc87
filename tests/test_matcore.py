import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import block_diag, lapack

from maxrep import matcore
from maxrep.errors import IllConditioned, NearSingular, ResonantSpectrum
from maxrep.matcore import (
    Tolerance,
    _unit_circle_masks,
    commutant_search,
    norm_inf,
    similarity_witness,
    stein_solve,
)
from maxrep.maslov import indefinite_identity
from oracles import signature
from tests_support import (
    random_contracting,
    random_invertible,
    random_orthogonal,
    random_spd,
    assert_slices_match,
    outcomes,
    spectral_radius,
)
from oracles import commutant_operator_by_kron, stein_kron_solve


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


class TestUnitCircleMasks:
    # the one band kernel: how many eigenvalues lie inside, on and outside
    # the unit circle, on 1 +- band
    def test_examples(self):
        edges = [1.0 + 0.5e-8, 1.0 - 0.5e-8, 1.0 + 2e-8, 1.0 - 2e-8]
        for diag, counts in (([0.5, 0.5], [2, 0, 0]), ([1.0, 0.5], [1, 1, 0]), ([2.0, 0.5], [1, 0, 1]),
                             ([2.0, 3.0], [0, 0, 2]), (edges, [1, 2, 1])):
            masks = _unit_circle_masks(np.diag(diag), Tolerance.unit_circle_band)
            assert [int(m.sum()) for m in masks] == counts

    def test_similarity_invariance(self, rng):
        # eigenvalues kept well away from the unit-circle band
        for _ in range(25):
            n = int(rng.integers(1, 5))
            x = random_contracting(n, rng, rho_range=(0.2, 0.7))
            g = random_invertible(n, rng, sv_range=(0.5, 2.0))
            conj = g @ x @ np.linalg.inv(g)
            for masks in (_unit_circle_masks(x, 1e-8), _unit_circle_masks(conj, 1e-8)):
                assert masks[0].all() and not (masks[1].any() or masks[2].any())


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


    @pytest.mark.parametrize("n", [2, 3])
    def test_stack_matches_one_slice_calls(self, n, rng):
        # every slice keeps its own solution or refusal, whatever its neighbours
        # do; A is finite, as stein_solve checks before the kernel
        cases = [(random_contracting(n, rng, rho_range=(0.2, 0.7)), random_spd(n, rng)),
                 (np.diag(np.r_[2.0, 0.5, 0.3][:n]), np.eye(n)),              # resonant
                 (_stein_matrix("mixed", n, rng), -random_spd(n, rng)),
                 (random_contracting(n, rng), np.full((n, n), np.nan)),       # NaN Q
                 (np.diag(np.r_[0.999, 0.5, 0.2][:n]), 1e308 * np.eye(n)),   # overflows
                 (_stein_matrix("near_minus_one", n, rng), random_spd(n, rng)),
                 (np.zeros((n, n)), np.full((n, n), np.inf)),                 # non-finite Q
                 (np.zeros((n, n)), random_spd(n, rng))]                      # singular A
        with np.errstate(over="ignore", invalid="ignore"):
            # the stacked kernel takes Q exactly symmetric, as stein_solve passes it
            cases = [(ai, matcore.sym_part(qi)) for ai, qi in cases]
            stacked = matcore._stein_solves(*(np.array(x) for x in zip(*cases)), Tolerance())
            assert_slices_match(stacked, stein_solve, cases)
        assert [type(r).__name__ for r in outcomes(stacked)] == [
            "ndarray", "ResonantSpectrum", "ndarray", "IllConditioned", "IllConditioned", "ndarray",
            "IllConditioned", "ndarray"]


def run_python(code: str, *first: str) -> subprocess.CompletedProcess:
    """Run code in a fresh interpreter that imports the maxrep this session
    imported, with the directories first ahead of it on the path."""
    src = os.path.dirname(os.path.dirname(matcore.__file__))
    path = os.pathsep.join(filter(None, (*first, src, os.environ.get("PYTHONPATH"))))
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=path))


class TestLapackWrappers:
    def test_cli_import_loads_no_scipy_linalg_package_module(self):
        proc = run_python("import sys, maxrep.cli\n"
                          "print(sorted(m for m in sys.modules if m.startswith('scipy.linalg')))")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "['scipy.linalg._flapack']"

    @pytest.mark.parametrize("first, second", [("maxrep.matcore", "scipy.linalg.lapack"),
                                               ("scipy.linalg.lapack", "maxrep.matcore")])
    def test_one_wrapper_module_in_either_import_order(self, first, second):
        proc = run_python(f"import {first}, {second}, maxrep.matcore as m, scipy.linalg.lapack as l\n"
                          "assert m.dgees is l.dgees and m.dtrsyl is l.dtrsyl")
        assert proc.returncode == 0, proc.stderr

    def test_scipy_without_the_wrappers_refused(self, tmp_path):
        (tmp_path / "scipy" / "linalg").mkdir(parents=True)
        (tmp_path / "scipy" / "__init__.py").write_text("")
        proc = run_python("import maxrep.matcore", str(tmp_path))
        assert proc.returncode != 0
        assert f"no scipy.linalg._flapack extension in {tmp_path / 'scipy' / 'linalg'}" in proc.stderr
        assert "ImportError" in proc.stderr and "scipy >= 1.10" in proc.stderr

    def test_routines_are_scipys(self):
        assert matcore.dgees is lapack.dgees and matcore.dtrsyl is lapack.dtrsyl

    @pytest.mark.parametrize("n", range(1, 13))
    def test_real_schur_matches_scipy_dgees(self, n):
        # unsorted, and sorted with the eigenvalues inside the unit circle leading
        x = np.random.default_rng(100 + n).normal(size=(n, n))
        inside = lambda re, im: re * re + im * im < 1.0
        for select, (t, k, _, _, z, _, info) in ((None, lapack.dgees(lambda re, im: None, x)),
                                                 (inside, lapack.dgees(inside, x, sort_t=1))):
            got = matcore._real_schur(x, select)
            assert info == 0 and got[2] == k
            assert [a.tobytes() for a in got[:2]] == [t.tobytes(), z.tobytes()]


class TestAsMatrix:
    def test_float_matrix_returned_as_is(self):
        for x in (np.eye(3), np.zeros((2, 2)), np.ones((4, 4))[::2, ::2], np.eye(3).T):
            assert matcore.as_matrix(x) is x

    def test_other_input_coerced_as_before(self):
        for x, want in (([[1, 2], [3, 4]], np.array([[1.0, 2.0], [3.0, 4.0]])),
                        (2.5, np.array([[2.5]])),
                        (np.array([[1, 2], [3, 4]]), np.array([[1.0, 2.0], [3.0, 4.0]])),
                        (np.float32(0.5) * np.eye(2, dtype=np.float32), 0.5 * np.eye(2))):
            m = matcore.as_matrix(x)
            assert m.dtype == np.float64 and np.array_equal(m, want) and m is not x
        for x in (np.ones((2, 3)), [[1.0, 2.0]], np.ones(3)):
            with pytest.raises(ValueError, match="square"):
                matcore.as_matrix(x)


class TestCommutantOperator:
    @pytest.mark.parametrize("n", range(1, 7))
    @pytest.mark.parametrize("k", [1, 3])
    def test_broadcast_matches_kron_form(self, monkeypatch, n, k):
        # entries of both signs spanning twelve decades: the products by 0.0
        # that both forms take carry the signs of the entries, which the bytes
        # compare; the operator is the one commutant_search hands to the SVD
        rng = np.random.default_rng([n, k])
        pairs = [tuple(rng.standard_normal((2, n, n)) * 10.0 ** rng.uniform(-6, 6, (2, n, n)))
                 for _ in range(k)]
        ops = []

        def svd(a, *args, real_svd=np.linalg.svd, **kwargs):
            ops.append(a.copy())
            return real_svd(a, *args, **kwargs)
        monkeypatch.setattr(np.linalg, "svd", svd)
        commutant_search(pairs, 1e-7, lambda g: None)
        want = commutant_operator_by_kron(pairs)
        assert len(ops) == 1 and ops[0].shape == want.shape == (k * n * n, n * n)
        assert ops[0].tobytes() == want.tobytes()
        if n > 1:
            assert np.signbit(want[want == 0.0]).any() and not np.signbit(want[want == 0.0]).all()


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

    @staticmethod
    def jordan_blocks(n, rng):
        """Real Jordan form of size n over two real eigenvalues and one complex
        pair, so spectra repeat and are often derogatory."""
        reals = rng.choice([-1, 1], size=2) * rng.uniform(0.3, 2.0, size=2)
        r, theta = rng.uniform(0.3, 2.0), rng.uniform(0.2, 3.0)
        rot = r * np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
        blocks, size = [], 0
        while size < n:
            kind = int(rng.integers(4 if n - size >= 4 else min(3, n - size)))
            lam = reals[int(rng.integers(2))]
            blocks.append([np.array([[lam]]), np.array([[lam, 1.0], [0.0, lam]]), rot,
                           np.block([[rot, np.eye(2)], [np.zeros((2, 2)), rot]])][kind])
            size += blocks[-1].shape[0]
        return block_diag(*blocks)

    def test_seeded_similar_pairs_all_found(self):
        # one search for every spectrum: simple, repeated complex pairs, derogatory
        rng = np.random.default_rng(20)
        for i in range(140):
            x = self.jordan_blocks(1 + i % 12, rng)
            g = random_invertible(x.shape[0], rng)
            y = g @ x @ np.linalg.inv(g)
            w = similarity_witness(x, y)
            assert w is not None, f"pair {i} (n = {x.shape[0]}) not found"
            assert norm_inf(w @ x @ np.linalg.inv(w) - y) <= 1e-10 * norm_inf(y)


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
