"""Acceptance suite.

Each test exercises one exit criterion at its stated tolerance and sample
count, prints one PASS/FAIL line, and fails the run if violated.  Expected
values come from independent oracles computed inside the tests (series
sums, finite differences, brute-force traversals) or from exactly checked
small cases.
"""

from fractions import Fraction

import numpy as np
import pytest

from maxrep.deform import deform_to_standard, enumerate_standard_graphs
from maxrep.gluing import (
    GlueStatus,
    build_from_graph,
    can_glue,
    close_handle,
    component_signature,
    standard_lower,
    standard_upper,
    twist_element,
)
from maxrep.errors import MaxRepError, NotContracting
from maxrep.limits import limit_set_sample
from maxrep.maslov import Triple, indefinite_identity, maslov
from maxrep.matcore import norm_inf, stein_solve
from maxrep.normalform import StandardBoundary, differential_at, fixed_point_expanding_side
from maxrep.pants import (
    GeneralPantsParams,
    PantsRep,
    ParamClass,
    build_general,
    build_maximal,
    classify_params,
    fingerprint_distance,
    recover_params,
    toledo,
    toledo_signature_shortcut,
)
from maxrep.symplectic import (
    INFINITY,
    finite_point,
    identity_point,
    moebius_act,
    sp_inverse,
    zero_point,
)
from tests_support import (
    chain_graph,
    random_contracting,
    random_handle_data,
    random_invertible,
    random_pants_params,
    random_spd,
    random_symplectic,
    random_transverse_points,
)


def report(num, name, ok, detail):
    print(f"\nACCEPTANCE {num} ({name}): {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


def test_criterion_01_pants_relation():
    rng = np.random.default_rng(101)
    worst = 0.0
    for k in range(1000):
        n = 1 + k % 4
        p = random_pants_params(n, rng)
        rep = build_maximal(p)
        worst = max(worst, rep.relation_residual)
    report(1, "pants relation", worst < 1e-9,
           f"worst residual {worst:.3e} over 1000 draws, n in 1..4 (tol 1e-9)")


def test_criterion_02_toledo_agreement():
    rng = np.random.default_rng(102)
    mismatches = 0
    for k in range(1000):
        n = 1 + k % 4
        p = random_pants_params(n, rng)
        rep = build_maximal(p)
        t = Triple(zero_point(n), identity_point(n), INFINITY)
        if toledo(rep, t) != toledo_signature_shortcut(p) or toledo(rep, t) != n:
            mismatches += 1
    general_bad = []
    n = 2
    for i in range(n + 1):
        for j in range(n + 1):
            for _ in range(50):  # resample transversality-degenerate draws
                x1 = random_contracting(n, rng)
                x2 = random_contracting(n, rng)
                m = random_invertible(n, rng)
                target = m @ indefinite_identity(n, j) @ m.T
                x3 = target @ np.linalg.inv(x1) @ x2.T
                gp = GeneralPantsParams(i, x1, x2, x3)
                rep = build_general(gp)
                tri = Triple(zero_point(n), finite_point(indefinite_identity(n, i)),
                             INFINITY)
                try:
                    val = toledo(rep, tri)
                except MaxRepError:
                    continue
                if val != Fraction(i + j - n):
                    general_bad.append((i, j, val))
                break
            else:
                general_bad.append((i, j, "no transverse sample"))
    ok = mismatches == 0 and not general_bad
    report(2, "toledo agreement", ok,
           f"{mismatches} mismatches on 1000 maximal draws; "
           f"general (i,j) grid failures: {general_bad or 'none'}")


def test_criterion_03_maslov_anchor_and_identities():
    bad_anchor = []
    for n in range(1, 6):
        for k in range(n + 1):
            t = Triple(zero_point(n), finite_point(indefinite_identity(n, k)), INFINITY)
            if maslov(t) != 2 * k - n:
                bad_anchor.append((n, k))
    rng = np.random.default_rng(103)
    violations = 0
    for trial in range(1000):
        n = 1 + trial % 3
        p0, p1, p2, p3 = random_transverse_points(n, rng, 4)
        cocycle = (maslov(Triple(p1, p2, p3)) - maslov(Triple(p0, p2, p3))
                   + maslov(Triple(p0, p1, p3)) - maslov(Triple(p0, p1, p2)))
        g = random_symplectic(n, rng)
        imgs = [moebius_act(g, q) for q in (p1, p2, p3)]
        invariant = maslov(Triple(*imgs)) == maslov(Triple(p1, p2, p3))
        if cocycle != 0 or not invariant:
            violations += 1
    ok = not bad_anchor and violations == 0
    report(3, "maslov anchor and identities", ok,
           f"anchors exact for n<=5; {violations} violations on 1000 random tuples")


def test_criterion_04_fixed_points():
    sb1 = StandardBoundary(np.array([[0.5]]), np.array([[1.0]]))
    sb2 = StandardBoundary(np.array([[0.5]]), np.array([[0.75]]))
    w1 = abs(fixed_point_expanding_side(sb1).point.value[0, 0] + 3.0 / 5.0)
    w2 = abs(fixed_point_expanding_side(sb2).point.value[0, 0] + 3.0 / 4.0)
    rng = np.random.default_rng(104)
    worst_res = 0.0
    worst_series = 0.0
    for trial in range(500):
        n = 1 + trial % 4
        a = random_contracting(n, rng, rho_range=(0.2, 0.8))
        s = random_spd(n, rng)
        y = fixed_point_expanding_side(StandardBoundary(a, s)).point.value
        c = a + np.linalg.inv(a.T) @ s
        worst_res = max(worst_res, norm_inf(y @ c @ y + y @ np.linalg.inv(a.T) - a @ y))
        # independent series oracle for the Stein solution
        p_solve = stein_solve(a, -(a.T @ a + s))
        acc = np.zeros_like(s)
        term = -(a.T @ a + s)
        for _ in range(800):
            acc += term
            term = a.T @ term @ a
        worst_series = max(worst_series, norm_inf(p_solve - (-acc)))
    ok = w1 < 1e-12 and w2 < 1e-12 and worst_res < 1e-10 and worst_series < 1e-10
    report(4, "fixed points", ok,
           f"closed forms off by {max(w1, w2):.2e}; worst equation residual "
           f"{worst_res:.2e} (tol 1e-10); solver vs series {worst_series:.2e}")


def test_criterion_05_differentials():
    rng = np.random.default_rng(105)
    worst = 0.0
    step = 1e-6
    for trial in range(100):
        n = 1 + trial % 3
        a = random_contracting(n, rng, rho_range=(0.3, 0.7))
        s = random_spd(n, rng)
        sb = StandardBoundary(a, s)
        g = sb.element()
        pt = (fixed_point_expanding_side(sb).point if trial % 2
              else zero_point(n))
        d = differential_at(g, pt)
        y = pt.value
        for _ in range(3):
            v = rng.normal(size=(n, n))
            v = (v + v.T) / 2
            plus = moebius_act(g, finite_point(y + step * v)).value
            minus = moebius_act(g, finite_point(y - step * v)).value
            approx = (plus - minus) / (2 * step)
            exact = d(v)
            worst = max(worst, norm_inf(approx - exact) / max(1.0, norm_inf(exact)))
    report(5, "differentials vs finite differences", worst < 1e-4,
           f"worst relative disagreement {worst:.2e} over 100 samples (tol 1e-4)")


def test_criterion_06_twist_element():
    g = twist_element([[0.5]], [[1.0]], [[0.5]], [[1.0]], [[1.0]])
    worked = norm_inf(g.m - np.array([[-34.0 / 9.0, -5.0 / 3.0], [-5.0 / 3.0, -1.0]]))
    rng = np.random.default_rng(106)
    worst = 0.0
    for trial in range(200):
        n = 1 + trial % 3
        x = random_contracting(n, rng, rho_range=(0.3, 0.7))
        s = random_spd(n, rng)
        g0 = random_invertible(n, rng)
        xbar = g0 @ x.T @ np.linalg.inv(g0)
        sbar = random_spd(n, rng)
        tw = twist_element(x, s, xbar, sbar, g0)
        c = standard_lower(x, s)
        cbar = standard_upper(xbar, sbar)
        worst = max(worst, norm_inf((tw @ sp_inverse(c) @ sp_inverse(tw)).m - cbar.m))
    ok = worked < 1e-12 and worst < 1e-9
    report(6, "twist element", ok,
           f"worked value off by {worked:.2e} (tol 1e-12); worst conjugation "
           f"residual {worst:.2e} over 200 pairs (tol 1e-9)")


def test_criterion_07_handle_closing():
    rng = np.random.default_rng(107)
    worst = 0.0
    for trial in range(200):
        n = 1 + trial % 3
        x1, x2, h = random_handle_data(n, rng)
        rep = close_handle(x1, x2, h)
        worst = max(worst, rep.relation_residual)
    report(7, "handle closing", worst < 1e-7,
           f"worst commutator relation residual {worst:.3e} over 200 draws (tol 1e-7)")


def test_criterion_08_round_trip():
    rng = np.random.default_rng(108)
    worst = 0.0
    for trial in range(200):
        n = 1 + trial % 3
        p = random_pants_params(n, rng, tame=True)
        rep = build_maximal(p)
        g = random_symplectic(n, rng, cond_max=1e2)
        gi = sp_inverse(g)
        conj = PantsRep(g @ rep.c1 @ gi, g @ rep.c2 @ gi, g @ rep.c3 @ gi)
        q, _ = recover_params(conj)
        worst = max(worst, fingerprint_distance(p, q))
    report(8, "parameter round trip", worst < 1e-7,
           f"worst fingerprint distance {worst:.3e} over 200 conjugated draws (tol 1e-7)")


@pytest.mark.parametrize("n", [1, 2, 3])
def test_criterion_09_components_distinct(n):
    cases = [(0, 3), (1, 1), (0, 4), (1, 2)]
    bad = []
    for g, m in cases:
        seen = {}
        for signs, graph in enumerate_standard_graphs(g, m, n):
            rep = build_from_graph(graph)
            sig = component_signature(rep)
            if sig in seen or sig != signs:
                bad.append((g, m, signs, sig))
            seen[sig] = True
        if len(seen) != 2 ** (2 * g + m - 1):
            bad.append((g, m, "count", len(seen)))
    report(9, f"components distinct (n={n})", not bad,
           f"standard representatives pairwise distinct for {cases}: "
           f"{'yes' if not bad else bad}")


def test_criterion_09_deformation_paths():
    rng = np.random.default_rng(109)
    cases = [(0, 3), (1, 1), (0, 4), (1, 2)]
    checked = 0
    problems = []
    for idx in range(50):
        g, m = cases[idx % 4]
        n = 1 + idx % 3
        graph = chain_graph(g, m, n, rng)
        sig0 = component_signature(graph)
        try:
            path = deform_to_standard(graph, steps=100)
        except MaxRepError as exc:
            problems.append((g, m, n, f"path failed: {exc}"))
            continue
        for i, snap in enumerate(path.snapshots):
            if component_signature(snap) != sig0:
                problems.append((g, m, n, f"signature moved at snapshot {i}"))
                break
            for nd in snap.nodes:
                cls = classify_params(nd.params)
                if cls not in (ParamClass.IN_R, ParamClass.IN_R_STAR):
                    problems.append((g, m, n, f"snapshot {i} invalid at {nd.name}"))
                    break
                if toledo_signature_shortcut(nd.params) != nd.params.n:
                    problems.append((g, m, n, f"snapshot {i} not maximal at {nd.name}"))
                    break
            else:
                continue
            break
        checked += 1
    ok = not problems and checked == 50
    report(9, "deformation paths", ok,
           f"50 paths x 101 snapshots: signatures constant, all snapshots "
           f"valid-maximal{'' if ok else ': ' + repr(problems[:3])}")


def test_criterion_10_gluing_refusal():
    rng = np.random.default_rng(110)
    bad = []
    probes = []
    th = 0.8
    probes.append(np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]]))
    probes.append(np.diag([1.0 - 1e-10, 0.4]))
    probes.append(np.diag([1.0 + 9e-11, 0.4]))
    probes.append((1 - 1e-11) * probes[0])
    for x in probes:
        chk = can_glue(x, x.T)
        if chk.status is not GlueStatus.UNIT_MODULUS_OBSTRUCTION or chk.witness is not None:
            bad.append(("can_glue", np.abs(np.linalg.eigvals(x))))
        try:
            twist_element(x, np.eye(x.shape[0]), x.T, np.eye(x.shape[0]),
                          np.eye(x.shape[0]))
            bad.append(("twist produced", None))
        except NotContracting:
            pass
    report(10, "gluing refused on the circle", not bad,
           f"{len(probes)} near-circle probes all obstructed, no twist built"
           f"{'' if not bad else ': ' + repr(bad)}")


def test_criterion_11_limit_sets():
    rng = np.random.default_rng(111)
    transversality_failures = []
    findings = []
    for trial in range(20):
        n = 1 + trial % 3
        p = random_pants_params(n, rng, tame=True)
        from maxrep.gluing import pants_surface_rep
        rep = pants_surface_rep(p)
        sample = limit_set_sample(rep, max_word_length=4, seed=trial)
        if sample.transverse_fraction < 1.0:
            transversality_failures.append((trial, sample.transverse_fraction))
        off = {b: c for b, c in sample.beta_histogram.items() if abs(b) != n}
        if off:
            findings.append((trial, off))
        findings.extend((trial, f) for f in sample.findings)
    if findings:
        print(f"\nACCEPTANCE 11 findings (reported, non-fatal): {findings[:5]}")
    report(11, "limit set sanity", not transversality_failures,
           f"20 representations, words up to length 4: all distinct sampled "
           f"points pairwise transverse; {len(findings)} index findings reported")
