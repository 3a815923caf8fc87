import itertools
import math
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
from maxrep.errors import GraphInvalid, IllConditioned, MaxRepError, NotCompatible, NotSHyperbolic
from maxrep.gluing import (
    GluingGraph,
    GraphBoundary,
    GraphEdge,
    PantsNode,
    build_from_graph,
    component_signature,
    pants_surface_rep,
)
from maxrep.limits import _cluster, _count_transverse, _unrank3, _word_tables, limit_set_sample
from maxrep.matcore import DEFAULT_TOL, norm_inf
from maxrep.pants import PantsParams, ParamClass, classify_params, toledo_signature_shortcut
from maxrep.maslov import _triple_indices
from maxrep.symplectic import (
    INFINITY,
    BoundaryPoint,
    _pair_spectra,
    _point_stack,
    moebius_act,
    point_distance,
    sp_inverse,
)
from tests_support import (
    spectral_radius,
    assert_points_close,
    random_contracting,
    random_invertible,
    random_pants_params,
    random_spd,
)
from oracles import (
    attracting_defect,
    cluster_by_loop,
    maslov_by_normalization,
    reduced_words_by_extension,
    sampled_points_by_loop,
    transverse_by_svd,
    unrank3_by_comb,
)


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

    @pytest.mark.parametrize("m", [-np.eye(2), -np.eye(4), np.diag([-1.0, -1.0, 1.0])])
    def test_invertible_path_through_half_turns(self, m):
        # the orthogonal factor's -1 eigenvalues pair up into half-turn planes
        ts = np.linspace(0, 1, 23)
        path = invertible_path(m, ts)
        np.testing.assert_allclose(path[0], m, atol=1e-12)
        np.testing.assert_allclose(path[-1], np.eye(len(m)), atol=1e-12)
        assert np.all(np.linalg.det(path) > 0)

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

    @pytest.mark.parametrize("genus, m, signs, error, message", [
        (0, 0, (), GraphInvalid, "standard graphs require at least one boundary"),
        (0, 2, (1,), GraphInvalid, "a genus-zero surface needs at least three boundaries"),
        (2, 1, (1,) * 4, GraphInvalid, "standard graphs implemented for genus 0 and 1"),
        (0, 3, (1,), ValueError, "need 2 signs for type (0, 3)"),
        (1, 1, (1, 0), ValueError, "signs must be +-1"),
    ])
    def test_refusals(self, genus, m, signs, error, message):
        with pytest.raises(error) as info:
            standard_sign_graph(genus, m, 1, signs)
        assert type(info.value) is error and str(info.value) == message

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

    @pytest.mark.parametrize("m", [3, 4])
    @pytest.mark.parametrize("radius", [0.97, 0.995])
    def test_path_starts_at_input_near_the_circle(self, m, radius):
        # the first node's free length X1 is derived along the path and capped
        # in spectral radius; a radius above the cap at t = 0 stays the input's
        graph = chain_graph_with_random_params(0, m, 2, np.random.default_rng(m))
        p = graph.nodes[0].params
        x1 = radius / spectral_radius(p.X1) * p.X1
        graph = GluingGraph((PantsNode("p0", PantsParams(x1, p.X2, p.X3)), *graph.nodes[1:]),
                            graph.edges, graph.boundaries)
        build_from_graph(graph)
        assert classify_params(graph.nodes[0].params) is ParamClass.IN_R_STAR
        first = deform_to_standard(graph, steps=20).snapshots[0]
        pairs = [*zip(first.edges, graph.edges, strict=True)]
        pairs = [(e.twist, e0.twist) for e, e0 in pairs] + [
            ab for nd, nd0 in zip(first.nodes, graph.nodes, strict=True)
            for ab in zip(nd.params.matrices(), nd0.params.matrices())]
        assert max(np.abs(a - b).max() for a, b in pairs) <= 1e-14

    def test_rep_input_is_not_rebuilt(self, monkeypatch):
        # neither a graph nor a representation is built: no build_from_graph
        # call and none of its kernels, and both inputs give byte-identical
        # snapshots and signatures
        import maxrep.gluing as gluing

        graphs = [chain_graph_with_random_params(genus, m, n, np.random.default_rng(100 * genus + 10 * m + n))
                  for genus, m in ((0, 3), (0, 4), (0, 5), (1, 1), (1, 2), (1, 3)) for n in (1, 2, 3)]
        # the last, (1, 3) at n = 3, has a surface relation residual of 1.5e-6:
        # its build is refused, and it still deforms from its graph
        with pytest.raises(IllConditioned, match="surface relation residual"):
            build_from_graph(graphs[-1])
        refused = graphs.pop()
        reps = [build_from_graph(graph) for graph in graphs]
        calls = []
        for name in ("build_from_graph", "_build_maximal_stack", "_twist_elements"):
            monkeypatch.setattr(gluing, name, lambda *a, _name=name, _real=getattr(gluing, name), **k:
                                calls.append(_name) or _real(*a, **k))
        for graph, rep in zip(graphs, reps):
            path, expected = deform_to_standard(graph, steps=8), deform_to_standard(rep, steps=8)
            assert calls == []
            assert path.signature == expected.signature == component_signature(rep)
            for snap, ref in zip(path.snapshots, expected.snapshots, strict=True):
                for nd, nd_ref in zip(snap.nodes, ref.nodes, strict=True):
                    for a, b in zip(nd.params.matrices(), nd_ref.params.matrices()):
                        assert a.tobytes() == b.tobytes()
                for e, e_ref in zip(snap.edges, ref.edges, strict=True):
                    assert e.twist.tobytes() == e_ref.twist.tobytes()
        assert deform_to_standard(refused, steps=8).signature == component_signature(refused)
        assert calls == []

    def test_edges_screened_in_one_call_of_the_builds_screen(self, rng, monkeypatch):
        import maxrep.deform as deform
        import maxrep.gluing as gluing

        calls = []

        def counted(g, x, xbar, tol, obstruct=False, _real=gluing._edge_screen):
            calls.append((len(g), obstruct))
            return _real(g, x, xbar, tol, obstruct)

        monkeypatch.setattr(deform, "_edge_screen", counted)
        monkeypatch.setattr(gluing, "_edge_screen", counted)
        graph = chain_graph_with_random_params(1, 3, 2, rng)
        deform_to_standard(graph, steps=4)
        build_from_graph(graph)
        # the handle and two attach edges, with the gluing step's obstruction
        assert calls == [(3, True), (3, True)]

    def test_snapshots_do_not_share_writable_arrays(self, rng):
        path = deform_to_standard(chain_graph_with_random_params(1, 2, 2, rng), steps=4)
        snap = path.snapshots[1]
        for x in [*snap.nodes[1].params.matrices(), snap.edges[0].twist]:
            with pytest.raises(ValueError):
                x[0, 0] = 7.0
        arrays = [[*itertools.chain(*(nd.params.matrices() for nd in s.nodes)),
                   *(e.twist for e in s.edges)] for s in path.snapshots]
        for i, xs in enumerate(arrays):
            assert not any(x.flags.writeable for x in xs)
            for ys in arrays[i + 1:]:
                assert not any(np.shares_memory(x, y) for x, y in zip(xs, ys))

    @pytest.mark.parametrize("genus, m", [(0, 3), (1, 2)])
    def test_snapshots_are_a_tuple_of_every_time(self, rng, genus, m):
        # a (0, 3) chain is one pants with no edges
        steps = 6
        path = deform_to_standard(chain_graph_with_random_params(genus, m, 2, rng), steps=steps)
        assert type(path.snapshots) is tuple
        assert len(path.snapshots) == len(path) == steps + 1
        assert len({id(s) for s in path.snapshots}) == steps + 1

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
        # a non-finite snapshot is refused by name too, in the same order
        [("p2", 64, "nan"), ("p1", 70, "negate")],
        [("p1", 20, "singular"), ("p0", 45, "nan")],
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
                elif how == "nan":
                    x3[i, 0, 0] = np.nan
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

    def test_reversed_edge_listing(self):
        # a (0, 5) chain with its edges listed in reverse deforms as the
        # in-order listing does, snapshot for snapshot
        graph = chain_graph_with_random_params(0, 5, 2, np.random.default_rng(5))
        reversed_graph = GluingGraph(graph.nodes, graph.edges[::-1], graph.boundaries)
        path, ref = deform_to_standard(reversed_graph, steps=10), deform_to_standard(graph, steps=10)
        assert path.signature == ref.signature
        for snap, snap_ref in zip(path.snapshots, ref.snapshots, strict=True):
            for nd, nd_ref in zip(snap.nodes, snap_ref.nodes, strict=True):
                for a, b in zip(nd.params.matrices(), nd_ref.params.matrices()):
                    assert a.tobytes() == b.tobytes()
            for e, e_ref in zip(snap.edges, snap_ref.edges[::-1], strict=True):
                assert (e.upper, e.lower) == (e_ref.upper, e_ref.lower)
                assert e.twist.tobytes() == e_ref.twist.tobytes()

    def test_edges_screened_in_the_builds_order(self):
        # the edge listed first is off its twist band, the one listed second
        # not finite: deform refuses the first listed edge, as the build does
        graph = chain_graph_with_random_params(0, 5, 2, np.random.default_rng(5))
        e0, e1 = graph.edges
        bad = (GraphEdge(e1.upper, e1.lower, e1.twist + 1e-3 * np.eye(2)),
               GraphEdge(e0.upper, e0.lower, np.full((2, 2), np.nan)))
        bad_graph = GluingGraph(graph.nodes, bad, graph.boundaries)
        for run in (build_from_graph, deform_to_standard):
            with pytest.raises(NotCompatible):
                run(bad_graph)

    def test_handle_off_the_first_node_rejected(self):
        # p1 closes its handle 3 -> 1 and hangs from p0's port 3 by its port 2
        p = PantsParams(0.5, 0.5, 0.5)
        graph = GluingGraph((PantsNode("p0", p), PantsNode("p1", p)),
                            (GraphEdge(("p1", 3), ("p1", 1), np.eye(1)),
                             GraphEdge(("p0", 3), ("p1", 2), np.eye(1))),
                            (GraphBoundary(("p0", 1), "C1"), GraphBoundary(("p0", 2), "C2")))
        with pytest.raises(GraphInvalid) as info:
            deform_to_standard(graph, steps=5)
        assert str(info.value) == "deformation supports at most one handle, on the first node"

    @pytest.mark.parametrize("steps", [0, -1])
    def test_steps_below_one_rejected(self, steps):
        graph = standard_sign_graph(0, 3, 1, (1, 1))
        with pytest.raises(ValueError) as info:
            deform_to_standard(graph, steps=steps)
        assert type(info.value) is ValueError and str(info.value) == f"steps must be at least 1, got {steps}"

    def test_node_attached_to_a_later_node_rejected(self):
        graph = chain_graph_with_random_params(0, 5, 2, np.random.default_rng(5))
        p0, p1, p2 = graph.nodes
        with pytest.raises(GraphInvalid, match="node 'p2' must attach through its port 1 to the prefix"):
            deform_to_standard(GluingGraph((p0, p2, p1), graph.edges, graph.boundaries), steps=5)


def reduced_words(letters: list[str], max_len: int) -> list[tuple[str, ...]]:
    return [tuple(name.split()) for name in _word_tables(tuple(letters), max_len)[0]]


class TestReducedWords:
    def test_counts(self):
        words = list(reduced_words(["a", "b"], 3))
        # 4 letters, then 4*3, then 12*3
        assert len(words) == 4 + 12 + 36

    def test_no_cancellation(self):
        for w in reduced_words(["a", "b"], 4):
            for x, y in zip(w, w[1:]):
                assert y != (x[:-1] if x.endswith("-") else x + "-")

    @pytest.mark.parametrize("letters", [["a"], ["a", "b"], ["C1", "C2", "C3"], ["x-", "y"]])
    def test_order_matches_extension(self, letters):
        assert list(reduced_words(letters, 5)) == list(reduced_words_by_extension(letters, 5))


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
        from tests_support import random_symplectic

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

    @pytest.mark.parametrize("surface, n, max_len, seed", [
        ((0, 3), 2, 3, 11), ((0, 3), 1, 4, 13), ((0, 3), 2, 4, 14), ((0, 3), 3, 4, 12),
        ((0, 4), 2, 4, 15), ((1, 1), 2, 4, 16)])
    def test_points_match_per_word_loop(self, surface, n, max_len, seed):
        # one eigen-decomposition per class of words, moved to each word and
        # refined by its own matrix, gives the points of one Schur form per
        # word: the same sampled and skipped words, points equal to rounding,
        # and no point moved by its word more than 10x the Schur point or the
        # rounding unit times |g| (the words of the surface relation, the
        # identity, are skipped).  The glued words' points are conditioned
        # worse: on the (0, 4) rep one eigen-decomposition per word is 4.7e-11
        # from the Schur point, this sampler 2.9e-11
        from tests_support import chain_graph
        rng = np.random.default_rng(seed)
        rep = (pants_surface_rep(random_pants_params(n, rng, tame=True)) if surface == (0, 3)
               else build_from_graph(chain_graph(*surface, n, rng)))
        sample = limit_set_sample(rep, max_word_length=max_len, seed=0)
        points, skipped = sampled_points_by_loop(rep, max_len)
        assert sample.skipped_words == skipped
        relation = 4 * surface[0] + surface[1]   # its rotations and theirs inverted are the identity
        assert skipped == (2 * relation if max_len >= relation else 0)
        assert [w for w, _ in sample.points] == [w for w, _, _ in points]
        for (_, p), (_, q, g) in zip(sample.points, points):
            assert_points_close(p, q, 1e-12 if surface == (0, 3) else 1e-10)
            assert attracting_defect(g, p) <= 10 * max(attracting_defect(g, q), np.finfo(float).eps * np.abs(g.m).max())
        words = [" ".join(w) for w in reduced_words_by_extension(list(rep.generator_images()), max_len)]
        rank = {w: i for i, w in enumerate(words)}
        sampled = [rank[w] for w, _ in sample.points]
        assert sampled == sorted(sampled)
        assert len(sampled) + skipped == len(words)

    def test_failed_class_decomposition_takes_the_schur_rescue(self, monkeypatch):
        # when the class representatives' eigen-decomposition fails, every
        # word takes the sorted real Schur route, one word at a time
        import maxrep.normalform as normalform
        rep = pants_surface_rep(random_pants_params(2, np.random.default_rng(17), tame=True))
        eig, schur, calls = np.linalg.eig, normalform._real_schur, []

        def failing(m):
            if m.ndim == 3 and len(m) > 20:
                raise np.linalg.LinAlgError("Eigenvalues did not converge")
            return eig(m)

        def counted(*args, **kwargs):
            calls.append(args[0].shape)
            return schur(*args, **kwargs)
        monkeypatch.setattr(np.linalg, "eig", failing)
        monkeypatch.setattr(normalform, "_real_schur", counted)
        sample = limit_set_sample(rep, max_word_length=3, seed=0)
        points, skipped = sampled_points_by_loop(rep, 3)
        assert sample.skipped_words == skipped == 6
        assert len(calls) == len(sample.points) + skipped
        assert [w for w, _ in sample.points] == [w for w, _, _ in points]
        for (_, p), (_, q, _) in zip(sample.points, points):
            assert_points_close(p, q)

    def test_non_maximal_pants_reports_off_index_triples(self):
        # build_general with i = 1 < n = 2 has Toledo number 1: its sampled
        # triples include index 0, which the sample reports as a finding
        import dataclasses
        from maxrep.pants import GeneralPantsParams, build_general
        p = random_pants_params(2, np.random.default_rng(4), tame=True)
        rep = dataclasses.replace(pants_surface_rep(p),
                                  c_imgs=build_general(GeneralPantsParams(1, *p.matrices())).generators())
        sample = limit_set_sample(rep, max_word_length=3, seed=0)
        off = sum(v for b, v in sample.beta_histogram.items() if abs(b) != 2)
        assert sample.beta_histogram.get(0, 0) > 0
        assert f"{off} sampled triples with |index| != 2" in sample.findings

    @pytest.mark.parametrize("max_len", [0, -1])
    def test_word_length_below_one_rejected(self, rng, max_len):
        rep = pants_surface_rep(random_pants_params(1, rng, tame=True))
        with pytest.raises(ValueError, match="at least 1"):
            limit_set_sample(rep, max_word_length=max_len)

    def test_non_hyperbolic_boundary_rejected(self, rng):
        th = 0.4
        x3 = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
        x2 = random_contracting(2, rng, rho_range=(0.2, 0.4))
        from tests_support import random_spd
        s = random_spd(2, rng)
        x1 = x2.T @ np.linalg.inv(x3) @ s
        scale = min(1.0, 0.8 / np.max(np.abs(np.linalg.eigvals(x1))))
        rep = pants_surface_rep(PantsParams(scale * x1, x2, x3))
        with pytest.raises(NotSHyperbolic):
            limit_set_sample(rep, max_word_length=2)


def enumerated_statistics(points, n, seed, max_triples=200, cluster_tol=1e-8):
    """Oracle: the sampler's statistics by pairwise calls and listed triples,
    with transversality by singular values and the index by normalization."""
    distinct = cluster_by_loop(points, cluster_tol)
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


def loewner_chain(rng, n, d):
    """d points X_1 < X_2 < ... with positive definite steps, entries below 1."""
    steps = [0.02 * (a @ a.T) + 0.01 * np.eye(n) for a in rng.normal(size=(d, n, n))]
    steps = np.array(steps) / max(1.0, 2 * np.sum(np.abs(steps)))
    return list(np.cumsum(steps, axis=0) - 0.5 * np.eye(n))


def margin_chain(rng, n, factor):
    """A shuffled chain with entries below 1 (so every band is eq_tol) whose
    diagonal middle link has lambda_min = eq_tol * factor."""
    x = loewner_chain(rng, n, 9)
    step = np.diag([DEFAULT_TOL.eq_tol * factor] + [0.01] * (n - 1))
    x = x[:5] + [x[4] + step] + [y + step for y in x[5:]]
    return [BoundaryPoint(y) for y in rng.permutation(np.array(x))]


def symmetric(rng, n, scale=1.0):
    a = rng.normal(size=(n, n))
    return scale * (a + a.T)


def sample_stack(kind, rng, n):
    """Seeded point lists on which the trace order takes different branches."""
    if kind == "chain":
        return [BoundaryPoint(x) for x in rng.permutation(np.array(loewner_chain(rng, n, 30)))]
    if kind == "margin_above":
        return margin_chain(rng, n, 1 + 1e-6)
    if kind == "margin_below":
        return margin_chain(rng, n, 1 - 1e-6)
    if kind == "equal_trace":   # traceless shifts tie the sort and break the chain
        shift = np.diag(np.r_[1.0, -1.0, np.zeros(n - 2)]) if n > 1 else np.zeros((1, 1))
        x = loewner_chain(rng, n, 8)
        return [BoundaryPoint(y + c * shift) for y in x for c in (0.0, 0.3)]
    if kind == "indefinite":
        return [BoundaryPoint(symmetric(rng, n, 10.0 ** rng.integers(-1, 3))) for _ in range(25)]
    if kind.startswith("infinity_"):
        pts = [BoundaryPoint(x) for x in loewner_chain(rng, n, 12)]
        for k in range(int(kind[-1])):
            pts.insert(int(rng.integers(len(pts) + 1)), INFINITY)
        return pts
    if kind == "repeats":
        pts = [BoundaryPoint(x) for x in loewner_chain(rng, n, 10)]
        return [pts[k] for k in rng.integers(len(pts), size=20)]
    if kind == "empty":
        return []
    if kind == "one_point":
        return [BoundaryPoint(symmetric(rng, n))]
    raise ValueError(kind)


STACK_KINDS = ["chain", "margin_above", "margin_below", "equal_trace", "indefinite",
               "infinity_0", "infinity_1", "infinity_3", "repeats", "empty", "one_point"]


def near_copies(rng, pts, tol):
    """pts with copies at entrywise distance 0.5 and 2 times tol * scale, shuffled."""
    out = list(pts)
    for p in pts:
        if p.is_infinity:
            continue
        scale = max(1.0, norm_inf(p.value))
        for f in (0.5, 2.0):
            out.append(BoundaryPoint(p.value + f * tol * scale * np.sign(symmetric(rng, len(p.value)))))
    return [out[k] for k in rng.permutation(len(out))]


class TestSamplerStatistics:
    @pytest.mark.parametrize("d", range(0, 13))
    def test_unrank3_is_lexicographic(self, d):
        listed = list(itertools.combinations(range(d), 3))
        assert _unrank3(np.arange(len(listed)), d).tolist() == [list(t) for t in listed]

    def test_unrank3_large_d(self):
        d = 2000
        total = math.comb(d, 3)
        ranks = [0, 1, total - 1] + np.random.default_rng(3).integers(total, size=100).tolist()
        assert _unrank3(ranks, d).tolist() == [list(unrank3_by_comb(r, d)) for r in ranks]

    @pytest.mark.parametrize("kind", STACK_KINDS)
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_count_transverse_matches_pairwise(self, kind, n):
        pts = sample_stack(kind, np.random.default_rng(n), n)
        expected = sum(transverse_by_svd(p, q) for p, q in itertools.combinations(pts, 2))
        assert _count_transverse(_point_stack(pts), DEFAULT_TOL) == expected
        if kind == "margin_below":
            assert expected == math.comb(len(pts), 2) - 1

    @pytest.mark.parametrize("kind", STACK_KINDS)
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_cluster_matches_greedy_loop(self, kind, n):
        rng = np.random.default_rng(10 + n)
        pts = sample_stack(kind, rng, n)
        pts = near_copies(rng, pts, 1e-8)
        kept = [pts[i] for i in _cluster(_point_stack(pts))]
        oracle = cluster_by_loop(pts, 1e-8)
        assert len(kept) == len(oracle)
        assert all(a is b for a, b in zip(kept, oracle))

    @pytest.mark.parametrize("order, expected", [
        ((0, 1, 2), (0, 2)), ((1, 0, 2), (1,)), ((2, 1, 0), (2, 0)), ((1, 2, 0), (1,))])
    def test_cluster_near_duplicate_chain(self, rng, order, expected):
        # a ~ b ~ c but a !~ c: which of them survive depends on the input order
        a = symmetric(rng, 2)
        step = 0.6e-8 * max(1.0, norm_inf(a)) * np.ones((2, 2))
        chain = [BoundaryPoint(a), BoundaryPoint(a + step), BoundaryPoint(a + 2 * step)]
        pts = [chain[k] for k in order]
        kept = [pts[i] for i in _cluster(_point_stack(pts))]
        assert kept == cluster_by_loop(pts, 1e-8) == [chain[k] for k in expected]

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_cluster_resolves_chains_of_any_order(self, n):
        # each point of a chain is near the next and not the one after, so
        # whether a point is kept hangs on the whole chain before it, and the
        # rounds of the one-pass resolution run as deep as the chain is long:
        # every order of chains up to length 5 and 20 orders each of chains of
        # length 8 and 12, with infinity inserted once or twice
        rng = np.random.default_rng(40 + n)
        orders = [perm for length in range(1, 6) for perm in itertools.permutations(range(length))]
        orders += [tuple(rng.permutation(length)) for length in (8, 12) for _ in range(20)]
        for case, perm in enumerate(orders):
            x = symmetric(rng, n)
            step = 0.6e-8 * max(1.0, norm_inf(x)) * np.sign(symmetric(rng, n))
            chain = [BoundaryPoint(x + k * step) for k in range(len(perm))]
            pts = [chain[k] for k in perm]
            for _ in range(1 + case % 2):
                pts.insert(int(rng.integers(len(pts) + 1)), INFINITY)
            kept = [pts[i] for i in _cluster(_point_stack(pts))]
            oracle = cluster_by_loop(pts, 1e-8)
            assert len(kept) == len(oracle), perm
            assert all(a is b for a, b in zip(kept, oracle)), perm
        # in chain order every other point is kept, each decided a round after the one before
        pts = [BoundaryPoint(k * 0.6e-8 * np.ones((n, n))) for k in range(12)]
        assert _cluster(_point_stack(pts)).tolist() == list(range(0, 12, 2))

    def test_sampler_passes_arrays_not_points(self, monkeypatch):
        # the sampled points go from the kernel to the statistics as one array
        # stack: no list of points is turned back into arrays, and the
        # distinct points are the very objects listed in points
        import maxrep.limits as limits
        import maxrep.maslov as maslov
        import maxrep.normalform as normalform
        import maxrep.pants as pants
        import maxrep.symplectic as symplectic
        calls = []

        def counted(*args, real=symplectic._point_stack, **kwargs):
            calls.append(len(args[0]))
            return real(*args, **kwargs)
        for module in (symplectic, normalform, maslov, pants, limits):
            if hasattr(module, "_point_stack"):
                monkeypatch.setattr(module, "_point_stack", counted)
        rep = pants_surface_rep(random_pants_params(2, np.random.default_rng(111), tame=True))
        sample = limit_set_sample(rep, max_word_length=4, seed=1)
        assert calls == []
        assert type(sample.skipped_words) is int and sample.skipped_words == 6
        listed = {id(pt) for _, pt in sample.points}
        assert all(id(pt) in listed for pt in sample.distinct_points)

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
        kept = [pts[i] for i in _cluster(_point_stack(pts))]
        oracle, *_ = enumerated_statistics(pts, n, 0, max_triples=0)
        assert len(kept) == len(oracle) == n_distinct
        assert all(a is b for a, b in zip(kept, oracle))

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_batched_transverse_count(self, rng, n, monkeypatch):
        # every pair that is not transverse straddles a failed link, so it
        # must reach the kernel rather than be counted by the chain
        import maxrep.limits as limits
        sent = set()

        def recording(stack, i, j, tol):
            sent.update(zip(np.asarray(i).tolist(), np.asarray(j).tolist()))
            return _pair_spectra(stack, i, j, tol)

        monkeypatch.setattr(limits, "_pair_spectra", recording)
        pts = points_with_infinity(rng, n)
        pairs = list(itertools.combinations(range(len(pts)), 2))
        failing = {(i, j) for i, j in pairs if not transverse_by_svd(pts[i], pts[j])}
        if n > 1:   # rank-one shifts and the pair of infinities fail
            assert len(failing) > 12
        assert _count_transverse(_point_stack(pts), DEFAULT_TOL) == len(pairs) - len(failing)
        finite = {(i, j) for i, j in failing if not (pts[i].is_infinity or pts[j].is_infinity)}
        assert finite <= sent | {(j, i) for i, j in sent}

    def test_chain_sends_one_link_per_point(self, monkeypatch):
        # on criterion 11's n = 2 pants the distinct points form one chain in
        # the trace order: the transverse count sends only its D - 1 links
        import maxrep.limits as limits
        sent = []

        def counting(stack, i, j, tol):
            sent.append(len(i))
            return _pair_spectra(stack, i, j, tol)

        rng = np.random.default_rng(111)
        random_pants_params(1, rng, tame=True)   # criterion 11's trial 0
        rep = pants_surface_rep(random_pants_params(2, rng, tame=True))
        monkeypatch.setattr(limits, "_pair_spectra", counting)
        sample = limit_set_sample(rep, max_word_length=4, seed=1)
        assert sample.transverse_fraction == 1.0
        assert 0 < sum(sent) <= len(sample.distinct_points) - 1

    def test_one_eigen_decomposition_per_word_level(self, monkeypatch):
        # the representatives of the classes of cyclically reduced words,
        # closed under rotation and inversion, go through one np.linalg.eig:
        # 119 rows for 936 words, not one per word.  Only the boundary
        # generators' spectra are checked apart, and only the words equal to
        # the identity, whose spectrum is on the circle, and the few words
        # whose carried point is not fixed to rounding take the Schur route
        import maxrep.limits as limits
        import maxrep.normalform as normalform
        calls = {"masks": 0, "schur": 0}
        rows = []

        def counted(key, fn):
            def wrapper(*args, **kwargs):
                calls[key] += 1
                return fn(*args, **kwargs)
            return wrapper

        def eig(m, real_eig=np.linalg.eig):
            rows.append(len(m))
            return real_eig(m)
        rep = pants_surface_rep(random_pants_params(2, np.random.default_rng(111), tame=True))
        monkeypatch.setattr(np.linalg, "eig", eig)
        monkeypatch.setattr(limits, "_unit_circle_masks", counted("masks", limits._unit_circle_masks))
        monkeypatch.setattr(normalform, "_real_schur", counted("schur", normalform._real_schur))
        sample = limit_set_sample(rep, max_word_length=4, seed=1)
        assert calls["masks"] == len(rep.c_imgs)
        assert sample.skipped_words <= calls["schur"] <= sample.skipped_words + 0.02 * 936
        assert sample.skipped_words == 6
        classes = {}
        for w in reduced_words_by_extension(["C1", "C2", "C3"], 4):
            inverse = tuple(l[:-1] if l.endswith("-") else l + "-" for l in reversed(w))
            if len(w) == 1 or w[0] != inverse[0]:   # cyclically reduced
                key = min(r[j:] + r[:j] for r in (w, inverse) for j in range(len(w)))
                classes.setdefault(len(w), set()).add(key)
        assert {k: len(v) for k, v in classes.items()} == {1: 3, 2: 9, 3: 23, 4: 84}
        assert rows == [119]

    def test_triple_indices_without_triples(self, rng):
        stack = _point_stack([BoundaryPoint(symmetric(rng, 2)), BoundaryPoint(symmetric(rng, 2))])
        assert _triple_indices(stack, [], DEFAULT_TOL) == ([], [])

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
