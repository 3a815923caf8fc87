"""Hitchin images as oracles of the inverse map.

A Fuchsian n = 1 pants composed with the irreducible Sym^(2n-1): SL(2, R) ->
Sp(2n, R) is maximal, with Toledo number n, and the lengths recover_params
reads off it have the spectral moduli {|x_i|^(2k-1) : k = 1..n} of the n = 1
lengths x_i (Hitchin, Topology 31 (1992); Burger-Iozzi-Wienhard, Ann. of
Math. 172 (2010)).
"""

import numpy as np
import pytest

from maxrep.errors import MaxRepError, NoCanonicalFixedPoint
from maxrep.maslov import Triple
from maxrep.pants import PantsRep, build_maximal, recover_params, toledo
from maxrep.symplectic import INFINITY, identity_point, make_symplectic, zero_point
from tests_support import hitchin_pants, random_pants_params, sym_power


@pytest.mark.parametrize("n", [2, 3])
def test_recovers_closed_form_spectra(n):
    rng = np.random.default_rng(n)
    for _ in range(20):
        p, rep = hitchin_pants(n, rng)
        q, _ = recover_params(rep)
        for x, y in zip(p.matrices(), q.matrices()):
            want = np.abs(x[0, 0]) ** (2 * np.arange(n) + 1.0)
            got = np.sort(np.abs(np.linalg.eigvals(y)))
            assert np.all(np.abs(got - np.sort(want)) <= 1e-6 * np.sort(want))
        assert toledo(build_maximal(q), Triple(zero_point(n), identity_point(n), INFINITY)) == n


def test_refusals_at_n4_name_their_gate():
    # a known breach, pinned and not mended: some of these maximal inputs are
    # refused because the recovered product fails the asymmetry gate of the
    # membership check, whose bound does not model the rounding of the
    # normalizing conjugation; each refusal names that gate and its values
    rng = np.random.default_rng(4)
    stages = []
    for _ in range(20):
        _, rep = hitchin_pants(4, rng)
        try:
            recover_params(rep)
        except MaxRepError as e:
            assert None not in (e.stage, e.measured, e.bound)
            stages.append(e.stage)
    assert stages and set(stages) == {"product asymmetry"}


def test_unbalanced_images_refused_with_their_certificate():
    # without the SL(2) balance, entries reach 1e6 at n = 4, and the subspace
    # route finds candidate points that the generators move by more than the
    # fixed-point band; each such refusal names that certificate and its
    # values (three of these twenty were once refused with no fields)
    rng, n = np.random.default_rng(4), 4
    refused = []
    for _ in range(20):
        images = [sym_power(c.m, n) for c in build_maximal(random_pants_params(1, rng, tame=True)).generators()]
        rep = PantsRep(*(make_symplectic(m[:n, :n], m[:n, n:], m[n:, :n], m[n:, n:]) for m in images))
        try:
            recover_params(rep)
        except MaxRepError as e:
            assert None not in (e.stage, e.measured, e.bound)
            refused.append(e)
    canonical = [e for e in refused if isinstance(e, NoCanonicalFixedPoint)]
    assert len(canonical) == 3
    for e in canonical:
        assert e.stage == "fixed-point displacement" and e.measured > e.bound
        assert f"{e.measured:.3e}" in str(e)
