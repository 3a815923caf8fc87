import itertools
import tracemalloc

import numpy as np
import pytest

from maxrep.deform import (
    contracting_path,
    deform_to_standard,
    enumerate_standard_graphs,
    invertible_path,
    spd_path,
    standard_length,
    standard_sign_graph,
    standard_twist,
)
from maxrep.errors import GraphInvalid, MaxRepError, NotSHyperbolic
from maxrep.gluing import (
    GluingGraph,
    build_from_graph,
    component_signature,
    pants_surface_rep,
)
from maxrep.limits import _cluster, _count_transverse, _unrank3, limit_set_sample, reduced_words
from maxrep.matcore import DEFAULT_TOL, norm_inf, spectral_radius
from maxrep.pants import PantsParams, ParamClass, classify_params, toledo_signature_shortcut
from maxrep.sampling import random_contracting, random_invertible, random_pants_params, random_spd
from maxrep.symplectic import INFINITY, BoundaryPoint, _point_stack, moebius_act, point_distance, sp_inverse
from oracles import maslov_by_normalization, sampled_points_by_loop, transverse_by_svd


class TestPaths:
    def test_invertible_path_endpoints_and_sign(self, rng):
        for _ in range(10):
            n = int(rng.integers(1, 4))
            neg = bool(rng.uniform() < 0.5)
            m = random_invertible(n, rng, negative_det=neg)
            s = -1 if neg else 1
            np.testing.assert_allclose(invertible_path(m, 0.0), m, atol=1e-9)
            np.testing.assert_allclose(invertible_path(m, 1.0),
                                       standard_twist(n, s), atol=1e-9)
            for t in np.linspace(0, 1, 23):
                d = np.linalg.det(invertible_path(m, t))
                assert d * s > 0

    def test_contracting_path_stays_contracting(self, rng):
        for _ in range(10):
            n = int(rng.integers(1, 4))
            neg = bool(rng.uniform() < 0.5)
            m = random_contracting(n, rng, negative_det=neg)
            s = -1 if neg else 1
            np.testing.assert_allclose(contracting_path(m, 0.0), m, atol=1e-9)
            np.testing.assert_allclose(contracting_path(m, 1.0),
                                       standard_length(n, s), atol=1e-9)
            for t in np.linspace(0, 1, 23):
                x = contracting_path(m, t)
                assert spectral_radius(x) < 1.0
                assert np.linalg.det(x) * s > 0

    def test_stacked_times_match_scalar_calls(self, rng):
        ts = np.linspace(0, 1, 31)
        for _ in range(6):
            n = int(rng.integers(1, 4))
            neg = bool(rng.uniform() < 0.5)
            for path, m in ((invertible_path, random_invertible(n, rng, negative_det=neg)),
                            (contracting_path, random_contracting(n, rng, negative_det=neg))):
                stack = path(m, ts)
                assert stack.shape == (ts.size, n, n)
                for i, t in enumerate(ts):
                    assert norm_inf(stack[i] - path(m, t)) <= 1e-14
            s0 = random_spd(n, rng)
            stack = spd_path(s0, 0.5 * np.eye(n), ts)
            for i, t in enumerate(ts):
                assert norm_inf(stack[i] - spd_path(s0, 0.5 * np.eye(n), t)) <= 1e-14


class TestStandardGraphs:
    @pytest.mark.parametrize("gm", [(0, 3), (1, 1), (0, 4), (1, 2)])
    @pytest.mark.parametrize("n", [1, 2])
    def test_signature_roundtrip(self, gm, n):
        g, m = gm
        seen = set()
        for signs, graph in enumerate_standard_graphs(g, m, n):
            rep = build_from_graph(graph)
            assert (rep.genus, rep.m) == (g, m)
            assert rep.relation_residual <= 1e-9
            sig = component_signature(rep)
            assert sig == signs
            seen.add(sig)
        assert len(seen) == 2 ** (2 * g + m - 1)

    def test_all_plus_is_all_plus(self):
        graph = standard_sign_graph(1, 1, 2, (1, 1))
        assert component_signature(build_from_graph(graph)) == (1, 1)


from tests_support import chain_graph as chain_graph_with_random_params


class TestDeform:
    def test_standard_rep_constant_path(self):
        graph = standard_sign_graph(0, 3, 2, (1, -1))
        path = deform_to_standard(graph, steps=10)
        for snap in path.snapshots:
            for nd0, nd1 in zip(graph.nodes, snap.nodes):
                for a, b in zip(nd0.params.matrices(), nd1.params.matrices()):
                    assert norm_inf(a - b) <= 1e-9

    def test_pants_deformation(self, rng):
        p = random_pants_params(2, rng, tame=True)
        graph = GluingGraph(
            (type(standard_sign_graph(0, 3, 2, (1, 1)).nodes[0])("p0", p),), (),
            standard_sign_graph(0, 3, 2, (1, 1)).boundaries)
        path = deform_to_standard(graph, steps=60)
        end = path.snapshots[-1].nodes[0].params
        signs = [int(np.sign(np.linalg.det(x))) for x in p.matrices()]
        np.testing.assert_allclose(end.X1, standard_length(2, signs[0]), atol=1e-8)
        np.testing.assert_allclose(end.X2, standard_length(2, signs[1]), atol=1e-8)
        np.testing.assert_allclose(end.X3, standard_length(2, signs[2]), atol=1e-8)

    def test_one_holed_torus_endpoint(self, rng):
        graph = chain_graph_with_random_params(1, 1, 2, rng)
        h0 = graph.edges[0].twist
        x10 = graph.nodes[0].params.X1
        path = deform_to_standard(graph, steps=60)
        end = path.snapshots[-1]
        s_len = int(np.sign(np.linalg.det(x10)))
        s_tw = int(np.sign(np.linalg.det(h0)))
        np.testing.assert_allclose(end.nodes[0].params.X1,
                                   standard_length(2, s_len), atol=1e-8)
        np.testing.assert_allclose(end.nodes[0].params.X2,
                                   standard_length(2, 1), atol=1e-8)
        np.testing.assert_allclose(end.edges[0].twist,
                                   standard_twist(2, s_tw), atol=1e-8)

    @pytest.mark.parametrize("gm", [(0, 4), (1, 2)])
    def test_chain_deformation_valid_and_signature_constant(self, gm, rng):
        genus, m = gm
        graph = chain_graph_with_random_params(genus, m, 2, rng)
        sig0 = component_signature(build_from_graph(graph))
        path = deform_to_standard(graph, steps=40)
        assert path.signature == sig0
        for i in (0, 10, 25, 40):
            snap = path.snapshots[i]
            rep = build_from_graph(snap)
            assert component_signature(rep) == sig0
            for nd in snap.nodes:
                assert classify_params(nd.params) in (ParamClass.IN_R, ParamClass.IN_R_STAR)
                assert toledo_signature_shortcut(nd.params) == nd.params.n

    def test_rep_input_is_not_rebuilt(self, rng, monkeypatch):
        import maxrep.deform as deform

        graph = chain_graph_with_random_params(1, 2, 2, rng)
        rep = build_from_graph(graph)
        expected = deform_to_standard(graph, steps=8)
        calls = []
        monkeypatch.setattr(deform, "build_from_graph",
                            lambda *a, **k: calls.append(a) or build_from_graph(*a, **k))
        path = deform_to_standard(rep, steps=8)
        assert calls == []
        assert path.signature == expected.signature
        for snap, ref in zip(path.snapshots, expected.snapshots, strict=True):
            for nd, nd_ref in zip(snap.nodes, ref.nodes, strict=True):
                for a, b in zip(nd.params.matrices(), nd_ref.params.matrices()):
                    assert a.tobytes() == b.tobytes()
            for e, e_ref in zip(snap.edges, ref.edges, strict=True):
                assert e.twist.tobytes() == e_ref.twist.tobytes()

    def test_snapshots_do_not_share_writable_arrays(self, rng):
        path = deform_to_standard(chain_graph_with_random_params(1, 2, 2, rng), steps=4)
        snap = path.snapshots[1]
        for x in [*snap.nodes[1].params.matrices(), snap.edges[0].twist]:
            with pytest.raises(ValueError):
                x[0, 0] = 7.0
        assert not np.shares_memory(path.snapshots[1].nodes[0].params.X1,
                                    path.snapshots[2].nodes[0].params.X1)

    def test_pinned_snapshots(self):
        # entries of a seeded (1, 2) chain at n = 3, recorded from the
        # snapshot-by-snapshot implementation this one replaced
        graph = chain_graph_with_random_params(1, 2, 3, np.random.default_rng(612))
        path = deform_to_standard(graph, steps=30)
        pinned = {
            7: ([0.09902791588947656, -0.039400216217393744, -0.013655201480292374],
                [-0.40761676707825917, -0.5617179864011036, -0.10808195868638137],
                [0.9232066130223411, 0.20476520954960628, -0.0840296060595115],
                [0.003922417366634189, -0.7533903104659899, 0.8317002993151448]),
            16: ([0.1295704828275373, 0.00033160060053116243, -0.0012910627371469292],
                 [0.047495468874273125, -0.49280232454491213, -0.6379520852250586],
                 [0.9572718980120501, 0.13612462917477816, -0.04256063996912627],
                 [-0.023442138479259095, 0.20830558762026208, 1.0176802441536947]),
            29: ([0.4638022900847873, -2.869192960352745e-05, 0.0035586157844367237],
                 [0.003878952612838474, 0.002608063751552136, -0.5417518371934837],
                 [0.9973935131428044, 0.010737285806757882, -0.0018991765235002597],
                 [-0.002914848373284727, 1.0020705346113477, 0.09774398795968099]),
        }
        for i, (p0_x2, p1_x3, handle, attach) in pinned.items():
            snap = path.snapshots[i]
            got = (snap.nodes[0].params.X2[0], snap.nodes[1].params.X3[2],
                   snap.edges[0].twist[0], snap.edges[1].twist[1])
            for g, want in zip(got, (p0_x2, p1_x3, handle, attach)):
                assert np.max(np.abs(g - np.array(want))) <= 1e-12

    # (node, snapshot, how) corruptions of the stacks the path is checked on
    @pytest.mark.parametrize("faults", [
        [("p1", 37, "expand"), ("p0", 50, "singular")],
        [("p1", 37, "expand"), ("p0", 37, "singular")],
        [("p2", 12, "negate"), ("p1", 13, "near_zero")],
        [("p2", 90, "near_zero")],
        [("p1", 0, "negate"), ("p0", 0, "singular")],
    ])
    def test_refusal_names_first_failure_in_loop_order(self, rng, monkeypatch, faults):
        import maxrep.deform as deform
        from oracles import first_refusal_by_loop

        graph = chain_graph_with_random_params(0, 5, 2, rng)
        real = deform._snapshot_stacks
        seen = {}

        def corrupted(*args):
            stacks, twists = real(*args)
            for name, i, how in faults:
                x1, x2, x3 = (x.copy() for x in stacks[name])
                if how == "expand":
                    x1[i] *= 10.0
                elif how == "singular":
                    x2[i, :, 0] = 0.0
                elif how == "negate":
                    x2[i] *= -1.0
                else:
                    x1[i], x2[i], x3[i] = np.diag([100.0, 1e-5]), np.eye(2), np.diag([100.0, 1e-5])
                stacks[name] = type(stacks[name])(x1, x2, x3)
            seen.update(stacks)
            return stacks, twists

        monkeypatch.setattr(deform, "_snapshot_stacks", corrupted)
        with pytest.raises(MaxRepError) as info:
            deform_to_standard(graph, steps=100)
        names = [nd.name for nd in graph.nodes]
        snapshots = [[(name, PantsParams(*(x[i] for x in seen[name]))) for name in names]
                     for i in range(101)]
        i, name, cls = first_refusal_by_loop(snapshots)
        assert type(info.value) is cls
        assert f"snapshot {i} " in str(info.value) and repr(name) in str(info.value)

    def test_non_chain_rejected(self, rng):
        p = random_pants_params(2, rng, tame=True)
        mirror = PantsParams(p.X3.T, p.X2.T, p.X1.T)
        from maxrep.gluing import GraphEdge, PantsNode
        graph = GluingGraph(
            (PantsNode("p0", p), PantsNode("p1", mirror)),
            (GraphEdge(("p1", 3), ("p0", 1), np.eye(2)),
             GraphEdge(("p0", 3), ("p1", 1), np.eye(2)),
             GraphEdge(("p1", 2), ("p0", 2), np.eye(2))),
            ())
        with pytest.raises(GraphInvalid):
            deform_to_standard(graph, steps=5)


class TestReducedWords:
    def test_counts(self):
        words = list(reduced_words(["a", "b"], 3))
        # 4 letters, then 4*3, then 12*3
        assert len(words) == 4 + 12 + 36

    def test_no_cancellation(self):
        for w in reduced_words(["a", "b"], 4):
            for x, y in zip(w, w[1:]):
                assert y != (x[:-1] if x.endswith("-") else x + "-")


class TestLimitSample:
    def test_pants_sample(self, rng):
        p = random_pants_params(2, rng, tame=True)
        rep = pants_surface_rep(p)
        sample = limit_set_sample(rep, max_word_length=3, seed=3)
        assert sample.transverse_fraction == 1.0
        assert sample.points
        n = rep.n
        assert set(sample.beta_histogram) <= {-n, n}
        assert not sample.findings

    def test_equivariance_of_fixed_points(self, rng):
        from maxrep.normalform import attracting_point
        from maxrep.sampling import random_symplectic

        p = random_pants_params(2, rng, tame=True)
        rep = pants_surface_rep(p)
        w = rep.c_imgs[0] @ rep.c_imgs[1]
        g = random_symplectic(2, rng)
        pt = attracting_point(w)
        conj = attracting_point(g @ w @ sp_inverse(g))
        assert point_distance(conj, moebius_act(g, pt)) <= 1e-7

    def test_glued_surface_sample(self, rng):
        # the sampler also runs on glued surfaces, words over all generators
        from tests_support import chain_graph

        graph = chain_graph(0, 4, 2, rng)
        rep = build_from_graph(graph)
        sample = limit_set_sample(rep, max_word_length=2, seed=5)
        assert sample.points
        assert sample.transverse_fraction == 1.0

    @pytest.mark.parametrize("n, max_len, seed", [(2, 3, 11), (3, 4, 12)])
    def test_points_match_per_word_loop(self, n, max_len, seed):
        # the level stacks give the points of one product per word from a
        # cache of every word, bit for bit; the words c3 c2 c1 = I and its
        # rotations are skipped
        rep = pants_surface_rep(random_pants_params(n, np.random.default_rng(seed), tame=True))
        sample = limit_set_sample(rep, max_word_length=max_len, seed=0)
        points, skipped = sampled_points_by_loop(rep, max_len)
        assert sample.skipped_words == skipped > 0
        assert [w for w, _ in sample.points] == [w for w, _ in points]
        for (_, p), (_, q) in zip(sample.points, points):
            assert p.is_infinity == q.is_infinity
            assert p.is_infinity or p.value.tobytes() == q.value.tobytes()
        words = [" ".join(w) for w in reduced_words(list(rep.generator_images()), max_len)]
        rank = {w: i for i, w in enumerate(words)}
        sampled = [rank[w] for w, _ in sample.points]
        assert sampled == sorted(sampled)
        assert len(sampled) + skipped == len(words)

    @pytest.mark.parametrize("max_len", [0, -1])
    def test_word_length_below_one_rejected(self, rng, max_len):
        rep = pants_surface_rep(random_pants_params(1, rng, tame=True))
        with pytest.raises(ValueError, match="at least 1"):
            limit_set_sample(rep, max_word_length=max_len)

    def test_non_hyperbolic_boundary_rejected(self, rng):
        th = 0.4
        x3 = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
        x2 = random_contracting(2, rng, rho_range=(0.2, 0.4))
        from maxrep.sampling import random_spd
        s = random_spd(2, rng)
        x1 = x2.T @ np.linalg.inv(x3) @ s
        scale = min(1.0, 0.8 / np.max(np.abs(np.linalg.eigvals(x1))))
        rep = pants_surface_rep(PantsParams(scale * x1, x2, x3))
        with pytest.raises(NotSHyperbolic):
            limit_set_sample(rep, max_word_length=2)


def enumerated_statistics(points, n, seed, max_triples=200, cluster_tol=1e-8):
    """Oracle: the sampler's statistics by pairwise calls and listed triples,
    with transversality by singular values and the index by normalization."""
    distinct = []
    for pt in points:
        scale = 1.0 if pt.is_infinity else max(1.0, norm_inf(pt.value))
        if not any(point_distance(pt, q) <= cluster_tol * scale for q in distinct):
            distinct.append(pt)
    pairs = list(itertools.combinations(range(len(distinct)), 2))
    n_trans = sum(transverse_by_svd(distinct[i], distinct[j]) for i, j in pairs)
    findings = []
    if pairs and n_trans < len(pairs):
        findings.append(f"{len(pairs) - n_trans} of {len(pairs)} point pairs "
                        "not transverse")
    rng = np.random.default_rng(seed)
    triples = list(itertools.combinations(range(len(distinct)), 3))
    if len(triples) > max_triples:
        idx = rng.choice(len(triples), size=max_triples, replace=False)
        triples = [triples[i] for i in idx]
    hist = {}
    for i, j, k in triples:
        try:
            b = maslov_by_normalization(distinct[i], distinct[j], distinct[k])
        except MaxRepError as exc:
            findings.append(f"triple ({i},{j},{k}) failed: {exc}")
            continue
        hist[b] = hist.get(b, 0) + 1
    off = sum(v for b, v in hist.items() if abs(b) != n)
    if off:
        findings.append(f"{off} sampled triples with |index| != {n}")
    frac = n_trans / len(pairs) if pairs else 1.0
    return distinct, frac, hist, findings


def points_with_infinity(rng, n):
    """Finite points, rank-one shifts of them (not transverse) and infinity twice."""
    pts = []
    for _ in range(12):
        x = rng.normal(size=(n, n))
        v = rng.normal(size=n)
        pts.append(BoundaryPoint(x + x.T))
        pts.append(BoundaryPoint(x + x.T + np.outer(v, v)))
    pts.insert(5, INFINITY)
    pts.append(INFINITY)
    return pts


class TestSamplerStatistics:
    @pytest.mark.parametrize("d", range(3, 13))
    def test_unrank3_is_lexicographic(self, d):
        listed = list(itertools.combinations(range(d), 3))
        assert [_unrank3(r, d) for r in range(len(listed))] == listed

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_matches_enumeration(self, rng, n):
        rep = pants_surface_rep(random_pants_params(n, rng, tame=True))
        for seed in (0, 7):
            sample = limit_set_sample(rep, max_word_length=3, seed=seed)
            distinct, frac, hist, findings = enumerated_statistics(
                [pt for _, pt in sample.points], n, seed)
            assert len(sample.distinct_points) == len(distinct)
            assert all(a is b for a, b in zip(sample.distinct_points, distinct))
            assert sample.transverse_fraction == frac
            assert sample.beta_histogram == hist
            assert list(sample.findings) == findings

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_cluster_with_infinity(self, rng, n):
        pts = points_with_infinity(rng, n)
        n_distinct = len(pts) - 1
        pts += pts[::5]   # exact repeats, both infinities among them
        kept = _cluster(pts, n, 1e-8)
        oracle, *_ = enumerated_statistics(pts, n, 0, max_triples=0)
        assert len(kept) == len(oracle) == n_distinct
        assert all(a is b for a, b in zip(kept, oracle))

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_batched_transverse_count(self, rng, n):
        pts = points_with_infinity(rng, n)
        expected = sum(transverse_by_svd(p, q) for p, q in itertools.combinations(pts, 2))
        if n > 1:   # rank-one shifts and the pair of infinities fail
            assert expected < len(pts) * (len(pts) - 1) // 2 - 12
        assert _count_transverse(_point_stack(pts), DEFAULT_TOL) == expected

    def test_length_four_memory(self, rng):
        rep = pants_surface_rep(random_pants_params(2, rng, tame=True))
        tracemalloc.start()
        try:
            sample = limit_set_sample(rep, max_word_length=4, seed=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(sample.distinct_points) > 300
        assert peak < 100 * 2 ** 20
