import functools
import gc
import itertools
import pathlib
import warnings
from fractions import Fraction

import numpy as np
import pytest

import maxrep.gluing
from maxrep.cli import parse_graph_file
from maxrep.deform import deform_to_standard, standard_sign_graph
from maxrep.errors import (
    CannotGlue,
    GraphInvalid,
    IllConditioned,
    MaxRepError,
    NotCompatible,
    NotContracting,
    NotValid,
    Singular,
)
from maxrep.gluing import (
    GlueStatus,
    GluingGraph,
    GraphBoundary,
    GraphEdge,
    PantsNode,
    build_from_graph,
    can_glue,
    close_handle,
    component_signature,
    glue_graphs,
    pants_surface_rep,
    slot_glue_length,
    standard_lower,
    standard_upper,
    _edge_twists,
    _gluing_plan,
    _loop_twist,
    _twist_elements,
    twist_element,
)
from maxrep.matcore import DEFAULT_TOL, norm_inf
from maxrep.pants import (
    PantsParams,
    ParamClass,
    _build_maximal_stack,
    build_maximal,
    classify_params,
    toledo_signature_shortcut,
)
from maxrep.symplectic import SpMat, sp_inverse
from tests_support import (
    assert_slices_match,
    outcomes,
    pants_product,
    chain_graph,
    derive_third_length,
    glued_by_two_builds,
    ld_matmul_chain,
    patch_nan_twist,
    random_contracting,
    random_handle_data,
    random_invertible,
    random_orthogonal,
    random_pants_params,
    random_spd,
    spectral_radius,
)


def rotation(theta):
    return np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])


def attached_params(host: PantsParams, host_slot: int, g_twist, rng) -> PantsParams:
    """Pants whose first slot glues to the given host slot with the given twist."""
    ell = slot_glue_length(host, host_slot)
    x1 = (np.linalg.inv(g_twist) @ ell @ g_twist).T
    x2, x3, _ = derive_third_length(x1, rng)
    return PantsParams(x1, x2, x3)


def word_trace_fingerprint(rep, max_len=4):
    gens = list(rep.generator_images().values())
    mats = [g.m for g in gens] + [sp_inverse(g).m for g in gens]
    traces = []
    for length in range(1, max_len + 1):
        for word in itertools.product(range(len(mats)), repeat=length):
            m = mats[word[0]]
            for i in word[1:]:
                m = m @ mats[i]
            traces.append(np.trace(m))
    return np.array(traces)


class TestCanGlue:
    def test_scalar_gluable(self):
        chk = can_glue(np.array([[0.5]]), np.array([[0.5]]))
        assert chk.status is GlueStatus.GLUABLE
        assert chk.witness is not None

    def test_scalar_not_similar(self):
        chk = can_glue(np.array([[0.5]]), np.array([[1 / 3]]))
        assert chk.status is GlueStatus.NOT_SIMILAR

    def test_unit_modulus_obstruction(self):
        chk = can_glue(rotation(0.3), rotation(0.3).T)
        assert chk.status is GlueStatus.UNIT_MODULUS_OBSTRUCTION

    def test_near_circle_obstruction(self, rng):
        # an eigenvalue within 1e-10 of the circle obstructs
        x = np.diag([1.0 - 1e-10, 0.5])
        chk = can_glue(x, x.T)
        assert chk.status is GlueStatus.UNIT_MODULUS_OBSTRUCTION

    def test_witness_conjugates(self, rng):
        x = random_contracting(2, rng)
        g0 = random_invertible(2, rng)
        xbar = g0 @ x.T @ np.linalg.inv(g0)
        chk = can_glue(x, xbar)
        assert chk.status is GlueStatus.GLUABLE
        w = chk.witness
        assert norm_inf(w @ xbar @ np.linalg.inv(w) - x.T) <= 1e-8


    @pytest.mark.parametrize("x, xbar", [(2.0, 0.5), (0.5, -1.5)])
    def test_spectrum_outside_the_unit_disc(self, x, xbar):
        with pytest.raises(NotValid, match="^length matrix has spectrum outside the closed unit disc$"):
            can_glue(np.array([[x]]), np.array([[xbar]]))


class TestTwistElement:
    def test_scalar_worked_value(self):
        g = twist_element([[0.5]], [[1.0]], [[0.5]], [[1.0]], [[1.0]])
        np.testing.assert_allclose(
            g.m, [[-34 / 9, -5 / 3], [-5 / 3, -1.0]], atol=1e-12)
        np.testing.assert_allclose(np.linalg.det(g.m), 1.0, atol=1e-12)

    def test_singular_length_named(self, rng):
        # a singular lower or upper length is refused under its own name
        x, g0 = random_contracting(2, rng), random_invertible(2, rng)
        s, sbar, singular = random_spd(2, rng), random_spd(2, rng), np.diag([0.5, 0.0])
        xbar = g0 @ x.T @ np.linalg.inv(g0)
        for case, which in (((singular, s, xbar, sbar, g0), "lower"), ((x, s, singular, sbar, g0), "upper")):
            with pytest.raises(Singular, match=f"^{which} length is singular within tolerance"):
                twist_element(*case)

    def test_conjugation_identity(self, rng):
        for _ in range(30):
            n = int(rng.integers(1, 4))
            x = random_contracting(n, rng, rho_range=(0.3, 0.7))
            s = random_spd(n, rng)
            g0 = random_invertible(n, rng)
            xbar = g0 @ x.T @ np.linalg.inv(g0)
            sbar = random_spd(n, rng)
            g = twist_element(x, s, xbar, sbar, g0)
            c = standard_lower(x, s)
            cbar = standard_upper(xbar, sbar)
            res = norm_inf((g @ sp_inverse(c) @ sp_inverse(g)).m - cbar.m)
            assert res <= 1e-9 * max(1.0, norm_inf(cbar.m))

    def test_twist_rescaling_still_conjugates(self, rng):
        x = random_contracting(2, rng, rho_range=(0.3, 0.6))
        s = random_spd(2, rng)
        g0 = np.eye(2)
        g1 = twist_element(x, s, x.T, s, g0)
        g2 = twist_element(x, s, x.T, s, 2 * g0)
        assert norm_inf(g1.m - g2.m) > 1e-3  # genuinely different elements
        c, cbar = standard_lower(x, s), standard_upper(x.T, s)
        for g in (g1, g2):
            assert norm_inf((g @ sp_inverse(c) @ sp_inverse(g)).m - cbar.m) <= 1e-9

    def test_incompatible_twist_refused(self, rng):
        x = random_contracting(2, rng)
        with pytest.raises(NotCompatible):
            twist_element(x, np.eye(2), x.T + 0.3 * np.eye(2), np.eye(2), np.eye(2))

    def test_requires_contracting(self):
        with pytest.raises(NotContracting):
            twist_element([[2.0]], [[1.0]], [[2.0]], [[1.0]], [[1.0]])


class TestCloseHandle:
    def test_scalar_derived_product(self):
        rep = close_handle([[0.5]], [[0.5]], [[1.0]])
        # derived shape datum is 1/2 for these values
        prod = pants_product(rep.graph.nodes[0].params)
        np.testing.assert_allclose(prod, [[0.5]], atol=1e-14)
        assert rep.relation_residual <= 1e-12
        assert rep.genus == 1 and rep.m == 1

    def test_random_relation(self, rng):
        for _ in range(30):
            n = int(rng.integers(1, 4))
            x1, x2, h = random_handle_data(n, rng)
            rep = close_handle(x1, x2, h)
            assert rep.relation_residual <= 1e-7

    def test_middle_determinant_forced_positive(self, rng):
        for _ in range(15):
            n = int(rng.integers(1, 4))
            x1, x2, h = random_handle_data(n, rng)
            assert np.linalg.det(x2) > 0

    def test_negative_twist_changes_signature(self, rng):
        a = random_handle_data(2, rng, twist_negative_det=False)
        b = random_handle_data(2, rng, twist_negative_det=True)
        s1 = component_signature(close_handle(*a))
        s2 = component_signature(close_handle(*b))
        assert s1[1] == 1 and s2[1] == -1

    def test_rejects_expanding(self):
        with pytest.raises(NotContracting):
            close_handle([[2.0]], [[0.5]], [[1.0]])

    def test_is_the_build_of_a_one_node_graph(self, rng):
        x1, x2, h = random_handle_data(2, rng)
        rep = close_handle(x1, x2, h, label="t")
        (node,), (edge,), (boundary,) = rep.graph.nodes, rep.graph.edges, rep.graph.boundaries
        assert node.name == "h" and (edge.upper, edge.lower) == (("h", 3), ("h", 1))
        assert boundary.port == ("h", 2) and rep.labels == ("t",)
        x3 = h @ x1.T @ np.linalg.inv(h)
        for a, b in zip(node.params.matrices(), (x1, x2, x3)):
            assert np.array_equal(a, b)
        assert np.array_equal(edge.twist, h)
        graph = GluingGraph((PantsNode("h", PantsParams(x1, x2, x3)),),
                            (GraphEdge(("h", 3), ("h", 1), h),), (GraphBoundary(("h", 2), "t"),))
        path, expected = deform_to_standard(rep, steps=10), deform_to_standard(graph, steps=10)
        assert path.signature == expected.signature
        for snap, ref in zip(path.snapshots, expected.snapshots, strict=True):
            for a, b in zip(snap.nodes[0].params.matrices(), ref.nodes[0].params.matrices()):
                assert np.array_equal(a, b)
            assert np.array_equal(snap.edges[0].twist, ref.edges[0].twist)

    def test_handle_node_with_expanding_free_length_builds(self):
        # X2 is the one length of a handle node that is not glued; a plain
        # node may have it outside the closed unit disc, and so may a handle node
        graph = chain_graph(1, 1, 2, np.random.default_rng(3))
        p = graph.nodes[0].params
        wide = PantsParams(p.X1, 3.0 / spectral_radius(p.X2) * p.X2, p.X3)
        assert classify_params(wide) is ParamClass.IN_TILDE_R
        rep = build_from_graph(GluingGraph((PantsNode("p0", wide),), graph.edges, graph.boundaries))
        assert rep.relation_residual <= 1e-10


class TestSelfEdgeOrientation:
    """A self-edge listed from port 1 reads as the handle 3 -> 1 with twist
    inv(G)^T, so both listings of one handle build one representation."""

    @pytest.mark.parametrize("kind", [(1, 1), (1, 2)])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_both_orientations_build_the_same_handle(self, kind, n):
        graph = chain_graph(*kind, n, np.random.default_rng(n))
        loop = graph.edges[0]
        assert (loop.upper, loop.lower) == (("p0", 3), ("p0", 1))
        flipped = GraphEdge(loop.lower, loop.upper, np.linalg.inv(loop.twist).T)
        other = GluingGraph(graph.nodes, (flipped, *graph.edges[1:]), graph.boundaries)
        reps = [build_from_graph(g) for g in (graph, other)]
        traces = []
        for rep in reps:
            a, b, c = rep.a_imgs[0].m, rep.b_imgs[0].m, rep.c_imgs[0].m
            traces.append([np.trace(m) for m in (a, b, a @ b, a @ np.linalg.inv(b), c)])
        np.testing.assert_allclose(*traces, rtol=1e-9, atol=1e-9)
        assert component_signature(reps[0]) == component_signature(reps[1]) == component_signature(other)

    def test_port_1_listing_is_not_the_edge_rule(self):
        # length_upper = G length_lower^T G^{-1} read literally for p0 1 p0 3
        # asks X1 = G X3^T G^{-1}; the twist meeting that is refused
        graph = chain_graph(1, 1, 2, np.random.default_rng(4))
        loop = graph.edges[0]
        literal = GraphEdge(loop.lower, loop.upper, loop.twist.T)
        p = graph.nodes[0].params
        assert np.abs(literal.twist @ p.X3.T @ np.linalg.inv(literal.twist) - p.X1).max() <= 1e-12
        with pytest.raises(NotCompatible):
            build_from_graph(GluingGraph(graph.nodes, (literal,), graph.boundaries))


def pants_graph(p: PantsParams, labels, name="p") -> GluingGraph:
    """The one-node graph of p with ports 1, 2, 3 as boundaries under labels."""
    return GluingGraph((PantsNode(name, p),), (),
                       tuple(GraphBoundary((name, s), label) for s, label in zip((1, 2, 3), labels)))


def glue(*sides):
    """The one build of the glued graph of glue_graphs(*sides)."""
    return build_from_graph(glue_graphs(*sides))


def close_graph(graph, upper_label, lower_label, twist):
    """graph with its boundaries upper_label and lower_label closed by one more edge."""
    port = {b.label: b.port for b in graph.boundaries}
    return GluingGraph(graph.nodes, graph.edges + (GraphEdge(port[upper_label], port[lower_label], twist),),
                       tuple(b for b in graph.boundaries if b.label not in (upper_label, lower_label)))


class TestGlueGraphs:
    def test_four_holed_sphere(self, rng):
        for _ in range(10):
            n = int(rng.integers(1, 4))
            p = random_pants_params(n, rng, tame=True)
            g0 = random_invertible(n, rng)
            q = attached_params(p, 3, g0, rng)
            glued = glue(pants_graph(p, ("a1", "a2", "a3")), "a3",
                         pants_graph(q, ("b1", "b2", "b3")), "b1", g0)
            assert (glued.genus, glued.m) == (0, 4)
            assert glued.relation_residual <= 1e-8
            # characteristic number adds across the edge
            total = sum(toledo_signature_shortcut(nd.params) for nd in glued.graph.nodes)
            assert total == 2 * n

    def test_double_of_pants(self, rng):
        # gluing a second copy of itself: mirrored parameters match exactly
        p = random_pants_params(2, rng, tame=True)
        mirror = PantsParams(p.X3.T, p.X2.T, p.X1.T)
        glued = glue(pants_graph(p, ("a1", "a2", "a3")), "a3",
                     pants_graph(mirror, ("b1", "b2", "b3")), "b1", np.eye(2))
        assert glued.relation_residual <= 1e-8
        assert sum(toledo_signature_shortcut(nd.params) for nd in glued.graph.nodes) == 4

    def test_twist_choice_independence(self, rng):
        # conjugating both sides by orthogonal matrices and dressing the twist
        # accordingly yields a conjugate representation: equal word traces
        n = 2
        p = random_pants_params(n, rng, tame=True)
        g0 = random_invertible(n, rng)
        q = attached_params(p, 3, g0, rng)
        k, el = random_orthogonal(n, rng), random_orthogonal(n, rng)
        p2 = PantsParams(k @ p.X1 @ k.T, k @ p.X2 @ k.T, k @ p.X3 @ k.T)
        q2 = PantsParams(el @ q.X1 @ el.T, el @ q.X2 @ el.T, el @ q.X3 @ el.T)
        g2 = k @ g0 @ el.T
        glued1 = glue(pants_graph(p, ("a1", "a2", "a3")), "a3",
                      pants_graph(q, ("b1", "b2", "b3")), "b1", g0)
        glued2 = glue(pants_graph(p2, ("a1", "a2", "a3")), "a3",
                      pants_graph(q2, ("b1", "b2", "b3")), "b1", g2)
        f1 = word_trace_fingerprint(glued1)
        f2 = word_trace_fingerprint(glued2)
        scale = max(1.0, np.max(np.abs(f1)))
        assert np.max(np.abs(f1 - f2)) <= 1e-6 * scale

    def test_one_holed_tori_glue_to_closed_genus_two(self, rng):
        x1, x2, h = random_handle_data(2, rng)
        hb1 = close_handle(x1, x2, h, label="t1")
        x3 = h @ x1.T @ np.linalg.inv(h)
        hb2 = close_handle(x3.T, x2.T, np.linalg.inv(h), label="t2")
        closed = glue(hb1.graph, "t1", hb2.graph, "t2", np.eye(2))
        assert (closed.genus, closed.m) == (2, 0)
        assert closed.relation_residual <= 1e-7

    def test_label_collision_rejected(self, rng):
        p = random_pants_params(1, rng, tame=True)
        q = attached_params(p, 3, np.eye(1), rng)
        with pytest.raises(GraphInvalid, match=r"boundary labels collide: \[.a.\]"):
            glue_graphs(pants_graph(p, ("a", "b", "c")), "c",
                        pants_graph(q, ("a", "e", "f")), "e", np.eye(1))

    def test_unknown_label_and_mismatched_n_rejected(self, rng):
        p1, p2 = random_pants_params(1, rng, tame=True), random_pants_params(2, rng, tame=True)
        one, other = pants_graph(p1, ("a", "b", "c")), pants_graph(p1, ("d", "e", "f"))
        for args in ((one, "x", other, "d"), (one, "c", other, "x")):
            with pytest.raises(GraphInvalid, match="no boundary labelled 'x'"):
                glue_graphs(*args, np.eye(1))
        with pytest.raises(GraphInvalid, match="all nodes must share one matrix dimension"):
            glue_graphs(one, "c", pants_graph(p2, ("d", "e", "f")), "d", np.eye(1))

    def test_matches_the_hand_written_graph(self, rng):
        # two pants graphs glued along C3/D1 build, bit for bit, the graph
        # test_four_holed_sphere_graph writes by hand
        graph = four_holed_sphere_graph(rng)
        (p0, p1), (edge,) = graph.nodes, graph.edges
        glued_graph = glue_graphs(pants_graph(p0.params, ("C1", "C2", "C3"), "p0"), "C3",
                                  pants_graph(p1.params, ("D1", "D2", "D3"), "p1"), "D1", edge.twist)
        assert [nd.name for nd in glued_graph.nodes] == ["1.p0", "2.p1"]
        assert [b.label for b in glued_graph.boundaries] == ["C1", "C2", "D2", "D3"]
        glued, rep = build_from_graph(glued_graph), build_from_graph(graph)
        for a, b in zip(glued.generator_images().values(), rep.generator_images().values(), strict=True):
            assert np.array_equal(a.m, b.m)
        assert glued.relation_residual == rep.relation_residual

    @pytest.mark.parametrize("kind", [(0, 4), (1, 2)])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_lower_boundary_off_the_first_node(self, kind, n):
        # the lower side is a standard chain glued at port 3 of its last node;
        # the glued graph keeps each side's node order, and its one build,
        # which is the join of the two sides' builds, comes out as declared
        for signs in itertools.product((1, -1), repeat=2 * kind[0] + kind[1] - 1):
            lower = standard_sign_graph(*kind, n, signs)
            last = lower.nodes[-1]
            (glued_label,) = [b.label for b in lower.boundaries if b.port == (last.name, 3)]
            ell = slot_glue_length(last.params, 3).T
            upper = pants_graph(PantsParams(ell, 0.5 * np.eye(n), ell), ("u1", "u2", "u3"))
            graph = glue_graphs(upper, "u1", lower, glued_label, np.eye(n))
            assert [nd.name for nd in graph.nodes] == ["1.p", *(f"2.{nd.name}" for nd in lower.nodes)]
            rep = build_from_graph(graph)
            assert (rep.genus, rep.m) == (kind[0], kind[1] + 1)
            TestBraidMoves._check(graph, rep, 1e-6)

    @staticmethod
    def _random_chain_glue(seed, label, up_port):
        """(upper, upper label, lower, label, twist): a fresh pants glued at
        port up_port to boundary label of a random n = 2 (0, 4) chain."""
        rng = np.random.default_rng(seed)
        lower = four_holed_sphere_graph(rng)
        node, slot = {b.label: b.port for b in lower.boundaries}[label]
        g = random_invertible(2, rng)
        ell = g @ slot_glue_length(lower.nodes[lower.node_index(node)].params, slot).T @ np.linalg.inv(g)
        x2, x3, _ = derive_third_length(ell, rng)
        p = {1: PantsParams(ell, x2, x3), 2: PantsParams(x3, -ell, -x2),
             3: PantsParams(-x2, -x3, ell)}[up_port]
        assert np.array_equal(slot_glue_length(p, up_port), ell)
        return pants_graph(p, ("u1", "u2", "u3")), f"u{up_port}", lower, label, g

    @pytest.mark.parametrize("label", ["C3", "C4"])
    @pytest.mark.parametrize("up_port", [1, 2, 3])
    def test_random_chain_glued_off_the_first_node(self, label, up_port):
        # a fresh pants glued at port up_port to a boundary on the second node
        # of a random n = 2 (0, 4) chain.  The glued graph lists the new edge
        # last, so its build joins the chain's own build to the pants; grown
        # from the glued node instead, it lost up to five digits here
        for seed in range(10):
            upper, upper_label, lower, _, g = self._random_chain_glue(seed, label, up_port)
            rep = glue(upper, upper_label, lower, label, g)
            assert [nd.name for nd in rep.graph.nodes] == ["1.p", "2.p0", "2.p1"]
            assert rep.node_checks.values == (build_from_graph(upper).node_checks.values
                                              + build_from_graph(lower).node_checks.values)
            TestBraidMoves._check(rep.graph, rep, 1e-6)

    @pytest.mark.parametrize("label", ["C1", "C2", "C3", "C4"])
    @pytest.mark.parametrize("up_port", [1, 2, 3])
    def test_one_build_is_the_two_builds_joined(self, label, up_port):
        # the one build of the glued graph is, bit for bit, the two sides'
        # own builds joined along the new edge
        for seed in range(10):
            sides = self._random_chain_glue(seed, label, up_port)
            rep, ref = glue(*sides), glued_by_two_builds(*sides)
            for a, b in zip(rep.generator_images().values(), ref.generator_images().values(), strict=True):
                assert a.m.tobytes() == b.m.tobytes()
            assert rep.relation_residual == ref.relation_residual
            assert rep.labels == ref.labels
            assert rep.node_checks.values == ref.node_checks.values

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_library_reps_deform_and_sign_as_their_graphs(self, n):
        # a pants and a glued surface each carry their graph: deforming or
        # signing the representation is deforming or signing that graph
        rng = np.random.default_rng(40 + n)
        p = random_pants_params(n, rng, tame=True)
        g0 = random_invertible(n, rng)
        q = attached_params(p, 3, g0, rng)
        sides = (pants_graph(p, ("C1", "C2", "C3")), "C3", pants_graph(q, ("D1", "D2", "D3")), "D1", g0)
        glued = glue_graphs(*sides)
        for rep, graph in ((pants_surface_rep(p), pants_graph(p, ("1", "2", "3"))),
                           (build_from_graph(glued), glued)):
            assert component_signature(rep) == component_signature(graph)
            path, expected = deform_to_standard(rep, steps=10), deform_to_standard(graph, steps=10)
            assert path.signature == expected.signature
            for snap, ref in zip(path.snapshots, expected.snapshots, strict=True):
                for nd, nd_ref in zip(snap.nodes, ref.nodes, strict=True):
                    for a, b in zip(nd.params.matrices(), nd_ref.params.matrices()):
                        assert a.tobytes() == b.tobytes()
                for e, e_ref in zip(snap.edges, ref.edges, strict=True):
                    assert e.twist.tobytes() == e_ref.twist.tobytes()


def four_holed_sphere_graph(rng) -> GluingGraph:
    p = random_pants_params(2, rng, tame=True)
    g0 = random_invertible(2, rng)
    q = attached_params(p, 3, g0, rng)
    return GluingGraph(
        (PantsNode("p0", p), PantsNode("p1", q)),
        (GraphEdge(("p0", 3), ("p1", 1), g0),),
        (GraphBoundary(("p0", 1), "C1"), GraphBoundary(("p0", 2), "C2"),
         GraphBoundary(("p1", 2), "C3"), GraphBoundary(("p1", 3), "C4")))


class TestBuildFromGraph:
    def test_single_pants_matches_direct_build(self, rng):
        p = random_pants_params(2, rng)
        rep = build_from_graph(pants_graph(p, ("C1", "C2", "C3"), "p0"))
        direct = build_maximal(p)
        for img, c in zip(rep.c_imgs, direct.generators()):
            np.testing.assert_allclose(img.m, c.m, atol=1e-13)
        assert rep.labels == ("C1", "C2", "C3")

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_node_order_does_not_matter(self, n):
        # the build glues in edge order, so p2 listed before p1, which alone
        # joins it to p0, builds the ordered listing bit for bit
        graph = chain_graph(0, 5, n, np.random.default_rng(n))
        p0, p1, p2 = graph.nodes
        permuted = GluingGraph((p0, p2, p1), graph.edges, graph.boundaries)
        assert _gluing_plan(permuted)[1] == list(graph.edges)
        rep, ref = build_from_graph(permuted), build_from_graph(graph)
        for a, b in zip(rep.generator_images().values(), ref.generator_images().values(), strict=True):
            assert np.array_equal(a.m, b.m)
        assert rep.relation_residual == ref.relation_residual
        assert [rep.node_checks[i] for i in (0, 2, 1)] == [ref.node_checks[i] for i in range(3)]

    @pytest.mark.parametrize("kind", [(0, 3), (1, 1), (0, 5), (1, 3), "closed handle"], ids=str)
    def test_one_relation_gate_per_build(self, kind, rng, monkeypatch):
        # the surface relation is checked once, on the finished surface, and
        # not after each gluing step
        if kind == "closed handle":
            p = random_pants_params(2, rng, tame=True)
            mirror = PantsParams(p.X3.T, p.X2.T, p.X1.T)
            graph = close_graph(glue_graphs(pants_graph(p, ("a1", "a2", "a3")), "a3",
                                            pants_graph(mirror, ("b1", "b2", "b3")), "b1", np.eye(2)),
                                "b3", "a1", np.eye(2))
            assert _gluing_plan(graph)[2]
        else:
            graph = chain_graph(*kind, 2, rng)
        calls = []
        real = maxrep.gluing._surface_fault
        monkeypatch.setattr(maxrep.gluing, "_surface_fault",
                            lambda n, a, b, c, tol: calls.append(c) or real(n, a, b, c, tol))
        rep = build_from_graph(graph)
        # the one call gates the finished surface, its boundaries in declared order
        assert len(calls) == 1 and calls[0] is rep.c_imgs

    def test_four_holed_sphere_graph(self, rng):
        rep = build_from_graph(four_holed_sphere_graph(rng))
        assert (rep.genus, rep.m) == (0, 4)
        assert rep.relation_residual <= 1e-7
        assert rep.labels == ("C1", "C2", "C3", "C4")

    def test_two_holed_torus_graph(self, rng):
        x1, x2, h = random_handle_data(2, rng)
        hb = PantsParams(x1, x2, h @ x1.T @ np.linalg.inv(h))
        g0 = random_invertible(2, rng)
        q = attached_params(hb, 2, g0, rng)
        graph = GluingGraph(
            (PantsNode("p0", hb), PantsNode("p1", q)),
            (GraphEdge(("p0", 3), ("p0", 1), h),
             GraphEdge(("p0", 2), ("p1", 1), g0)),
            (GraphBoundary(("p1", 2), "C1"), GraphBoundary(("p1", 3), "C2")))
        rep = build_from_graph(graph)
        assert (rep.genus, rep.m) == (1, 2)
        assert rep.relation_residual <= 1e-7

    def test_parallel_edge_closed_genus_two(self, rng):
        # two pants joined by three parallel edges: one amalgam plus two
        # handle closures; the mirrored double gives compatible twists
        p = random_pants_params(2, rng, tame=True)
        mirror = PantsParams(p.X3.T, p.X2.T, p.X1.T)
        graph = GluingGraph(
            (PantsNode("p0", p), PantsNode("p1", mirror)),
            (GraphEdge(("p1", 3), ("p0", 1), np.eye(2)),
             GraphEdge(("p0", 3), ("p1", 1), np.eye(2)),
             GraphEdge(("p1", 2), ("p0", 2), np.eye(2))),
            ())
        rep = build_from_graph(graph)
        assert (rep.genus, rep.m) == (2, 0)
        assert rep.relation_residual <= 1e-7

    def test_unit_modulus_edge_refused(self, rng):
        # valid parameters whose third slot has circle spectrum: deriving the
        # first length from a positive shape datum keeps the product positive
        x3 = rotation(0.5)
        x2 = random_contracting(2, rng, rho_range=(0.2, 0.4))
        s = random_spd(2, rng)
        x1 = x2.T @ np.linalg.inv(x3) @ s
        scale = min(1.0, 0.8 / np.max(np.abs(np.linalg.eigvals(x1))))
        x1, s = scale * x1, scale * s
        p = PantsParams(x1, x2, x3)
        assert np.min(np.linalg.eigvalsh(pants_product(p))) > 0
        q = attached_params(p, 3, np.eye(2), rng)
        graph = GluingGraph(
            (PantsNode("p0", p), PantsNode("p1", q)),
            (GraphEdge(("p0", 3), ("p1", 1), np.eye(2)),),
            (GraphBoundary(("p0", 1), "C1"), GraphBoundary(("p0", 2), "C2"),
             GraphBoundary(("p1", 2), "C3"), GraphBoundary(("p1", 3), "C4")))
        with pytest.raises(CannotGlue):
            build_from_graph(graph)

    def test_invalid_graphs(self, rng):
        p = random_pants_params(1, rng)
        with pytest.raises(GraphInvalid):
            GluingGraph((PantsNode("p0", p),), (),
                        (GraphBoundary(("p0", 1), "C1"),
                         GraphBoundary(("p0", 1), "C2"),
                         GraphBoundary(("p0", 3), "C3"))).validate()
        with pytest.raises(GraphInvalid):
            GluingGraph((PantsNode("p0", p), PantsNode("p1", p)), (),
                        tuple(GraphBoundary((nm, s), f"C{i}")
                              for i, (nm, s) in enumerate(
                                  [(n, s) for n in ("p0", "p1") for s in (1, 2, 3)]))
                        ).validate()  # disconnected
        with pytest.raises(GraphInvalid):
            build_from_graph(GluingGraph(
                (PantsNode("p0", p),),
                (GraphEdge(("p0", 2), ("p0", 1), np.eye(1)),),
                (GraphBoundary(("p0", 3), "C1"),)))

    def test_validate_sorts_the_edges_the_plan_reads(self):
        # a chain of three pants closed into a loop, with a handle on p0: the
        # self edge, the two tree edges and the closure, each in edge order
        p = PantsParams(0.5, 0.5, 0.5)
        edges = (GraphEdge(("p0", 2), ("p1", 1), 1.0), GraphEdge(("p1", 2), ("p2", 1), 1.0),
                 GraphEdge(("p2", 2), ("p1", 3), 1.0), GraphEdge(("p0", 3), ("p0", 1), 1.0))
        graph = GluingGraph(tuple(PantsNode(f"p{i}", p) for i in range(3)), edges,
                            (GraphBoundary(("p2", 3), "C1"),))
        assert graph.validate() == ([edges[3]], [edges[0], edges[1]], [edges[2]])
        plan = _gluing_plan(graph)
        assert (plan[0], plan[1], plan[2]) == ({"p0": edges[3]}, [edges[0], edges[1]], [edges[2]])

    @pytest.mark.parametrize("names, edges, ports, message", [
        (("p0",), (), (("p0", 1), ("p0", 2), ("q", 3)), "unknown node 'q'"),
        ((), (), (), "graph has no pants nodes"),
        (("p0", "p0"), ((("p0", 3), ("p0", 1), 1),), (("p0", 2),), "duplicate node names"),
        (("p0",), (), (("p0", 1), ("p0", 2), ("p0", 4)), "port must be 1, 2 or 3, got 4"),
        (("p0",), ((("p0", 3), ("p0", 1), 2),), (("p0", 2),), "twist dimension mismatch"),
        (("p0",), (), (("p0", 1), ("p0", 2)), "every port must be used exactly once"),
        # a node has three ports, so a second self-edge reuses one
        (("p0",), ((("p0", 3), ("p0", 1), 1), (("p0", 2), ("p0", 1), 1)), (),
         "port ('p0', 1) used more than once"),
    ])
    def test_validate_refusals(self, names, edges, ports, message):
        p = PantsParams(0.5, 0.5, 0.5)
        graph = GluingGraph(tuple(PantsNode(name, p) for name in names),
                            tuple(GraphEdge(up, lo, np.eye(k)) for up, lo, k in edges),
                            tuple(GraphBoundary(port, f"C{i}") for i, port in enumerate(ports)))
        for check in (graph.validate, lambda: build_from_graph(graph)):
            with pytest.raises(GraphInvalid) as info:
                check()
            assert str(info.value) == message


class TestCloseGraph:
    def test_genus_increase(self, rng):
        # close two boundaries of the doubled pants: the mirrored copy makes
        # the first and last boundary lengths exact transposes of each other
        p = random_pants_params(2, rng, tame=True)
        mirror = PantsParams(p.X3.T, p.X2.T, p.X1.T)
        fh = glue_graphs(pants_graph(p, ("a1", "a2", "a3")), "a3",
                         pants_graph(mirror, ("b1", "b2", "b3")), "b1", np.eye(2))
        closed = build_from_graph(close_graph(fh, "b3", "a1", np.eye(2)))
        assert (closed.genus, closed.m) == (1, 2)
        assert closed.relation_residual <= 1e-6


class TestComponentSignature:
    def test_pants_four_classes(self, rng):
        seen = set()
        for s1, s2 in itertools.product((1, -1), repeat=2):
            x1 = random_contracting(2, rng, negative_det=(s1 < 0))
            x2 = random_contracting(2, rng, negative_det=(s2 < 0))
            s = random_spd(2, rng)
            x3 = s @ np.linalg.inv(x1) @ x2.T
            x3 *= min(1.0, 0.8 / np.max(np.abs(np.linalg.eigvals(x3))))
            rep = pants_surface_rep(PantsParams(x1, x2, x3))
            sig = component_signature(rep)
            assert sig == (s1, s2)
            seen.add(sig)
        assert len(seen) == 4

    def test_handle_example(self, rng):
        # positive length, negative twist gives (+, -)
        x1, x2, h = random_handle_data(2, rng)
        if np.linalg.det(x1) < 0:
            x1[0] = -x1[0]
            x1, x2, h = random_handle_data(2, rng)
        while np.linalg.det(x1) < 0:
            x1, x2, h = random_handle_data(2, rng)
        if np.linalg.det(h) > 0:
            h[0] = -h[0]
        rep = close_handle(x1, x2, h)
        assert component_signature(rep) == (1, -1)

    @staticmethod
    def genus_two_graph(n, rng):
        """Handle blocks h0 (positive determinants) and h1 (negative ones)
        joined through the pants p; h1 is glued on the upper side."""
        x1a, x2a, ha = random_handle_data(n, rng, length_negative_det=False,
                                          twist_negative_det=False)
        x1b, x2b, hb = random_handle_data(n, rng, length_negative_det=True,
                                          twist_negative_det=True)
        g1, g2 = random_invertible(n, rng), random_invertible(n, rng)
        # port 2 of a handle block exposes -X2; pick p's lengths to match
        y1 = (np.linalg.inv(g1) @ -x2a @ g1).T
        y2 = (np.linalg.inv(g2) @ x2b @ g2).T
        y3 = np.linalg.inv(y1) @ y2.T
        y3 *= 0.5 / np.max(np.abs(np.linalg.eigvals(y3)))
        nodes = (PantsNode("h0", PantsParams(x1a, x2a, ha @ x1a.T @ np.linalg.inv(ha))),
                 PantsNode("p", PantsParams(y1, y2, y3)),
                 PantsNode("h1", PantsParams(x1b, x2b, hb @ x1b.T @ np.linalg.inv(hb))))
        edges = (GraphEdge(("h0", 3), ("h0", 1), ha), GraphEdge(("h0", 2), ("p", 1), g1),
                 GraphEdge(("h1", 3), ("h1", 1), hb), GraphEdge(("h1", 2), ("p", 2), g2))
        return GluingGraph(nodes, edges, (GraphBoundary(("p", 3), "C1"),))

    @pytest.mark.parametrize("kind", [(0, 3), (1, 1), (0, 4), (1, 2), "genus two"], ids=str)
    @pytest.mark.parametrize("n", [1, 2])
    def test_graph_read_without_building(self, kind, n, rng, monkeypatch):
        if kind == "genus two":
            graph = self.genus_two_graph(n, rng)
        else:
            graph = chain_graph(*kind, n, rng)
        expected = component_signature(build_from_graph(graph))
        if kind == "genus two":
            assert expected == (1, 1, -1, -1)

        def no_build(*args, **kwargs):
            raise AssertionError("component_signature built the graph")

        monkeypatch.setattr(maxrep.gluing, "build_from_graph", no_build)
        assert component_signature(graph) == expected

    def test_closing_edge_follows_edge_order(self, monkeypatch):
        # a triangle of three pants (genus 1, m = 3): the edge listed last
        # closes the handle, so each listing's signature opens with the signs
        # of its closing edge's lower length and twist
        x = lambda d: np.diag([d, 0.5])
        nodes = tuple(PantsNode(name, PantsParams(x(d), x(0.5), x(d)))
                      for name, d in zip("abc", (0.5, 0.5, -0.5)))
        ab = GraphEdge(("a", 3), ("b", 1), np.eye(2))
        bc = GraphEdge(("b", 3), ("c", 1), np.diag([-1.0, 1.0]))
        ca = GraphEdge(("c", 3), ("a", 1), np.eye(2))
        bounds = tuple(GraphBoundary((name, 2), f"C{i}") for i, name in enumerate("abc", start=1))

        def no_build(*args, **kwargs):
            raise AssertionError("component_signature built the graph")

        monkeypatch.setattr(maxrep.gluing, "build_from_graph", no_build)
        # ca closes: lower length a.X1 and its twist; bc closes: c.X1 and its twist
        assert component_signature(GluingGraph(nodes, (ab, bc, ca), bounds)) == (1, 1, 1, 1)
        assert component_signature(GluingGraph(nodes, (ca, ab, bc), bounds)) == (-1, -1, 1, 1)

    def test_closed_surface_rejected(self, rng):
        x1, x2, h = random_handle_data(2, rng)
        hb1 = close_handle(x1, x2, h, label="t1")
        x3 = h @ x1.T @ np.linalg.inv(h)
        hb2 = close_handle(x3.T, x2.T, np.linalg.inv(h), label="t2")
        closed = glue(hb1.graph, "t1", hb2.graph, "t2", np.eye(2))
        with pytest.raises(GraphInvalid):
            component_signature(closed)


class TestEdgeConjugator:
    """The edge conjugator is used as formed, and only when it is finite."""

    def test_build_runs_no_commutation_operator_svd(self, rng, monkeypatch):
        # an n = 2 edge's (2n)^2 x (2n)^2 commutation operator is 16 x 16;
        # every other SVD of such a build is smaller
        real_svd = np.linalg.svd
        operator_sized = []

        def svd(a, *args, **kwargs):
            if np.shape(a)[-2:] == (16, 16):
                operator_sized.append(np.shape(a))
                raise np.linalg.LinAlgError("SVD did not converge")
            return real_svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", svd)
        rep = build_from_graph(chain_graph(0, 4, 2, rng))
        assert not operator_sized
        assert rep.relation_residual <= 1e-12

    def test_non_finite_conjugator_is_ill_conditioned(self, rng, monkeypatch):
        graph = chain_graph(0, 4, 2, rng)
        patch_nan_twist(monkeypatch)
        with pytest.raises(IllConditioned):
            build_from_graph(graph)

    def test_nan_declared_handle_length_is_ill_conditioned(self):
        # a handle node is built from its declared X3, so the forward map
        # refuses the NaN
        graph = chain_graph(1, 2, 2, np.random.default_rng(0))
        graph.nodes[0].params.X3[0, 0] = np.nan
        with pytest.raises(IllConditioned):
            build_from_graph(graph)

    @pytest.mark.parametrize("twist, message", [
        # the edge screen refuses a twist whose square overflows, in the
        # build and in deform alike
        (1e160, "twist parameter overflows"),
        # just below that bound the twist element's block-relation defect
        # overflows, ahead of the conjugation residual
        (1e154, "block-relation defect nan is not finite"),
    ])
    def test_overflowing_twist_is_ill_conditioned(self, twist, message):
        with pytest.raises(IllConditioned, match=message):
            close_handle([[0.5]], [[0.5]], [[twist]])
        if twist == 1e160:
            graph = GluingGraph((PantsNode("p0", PantsParams(0.5, 0.5, 0.5)),),
                                (GraphEdge(("p0", 3), ("p0", 1), np.array([[twist]])),),
                                (GraphBoundary(("p0", 2), "C1"),))
            with pytest.raises(IllConditioned, match=message):
                deform_to_standard(graph, steps=5)

    def test_non_finite_residual_refused(self, rng, monkeypatch):
        x1, x2, h = random_handle_data(2, rng)
        monkeypatch.setattr(maxrep.gluing, "relation_residual", lambda *args: np.nan)
        with pytest.raises(IllConditioned):
            close_handle(x1, x2, h)


FIXTURES = pathlib.Path(__file__).parent / "fixtures"


def exact_c_defect(rep) -> Fraction:
    """The defect of C_m ... C_1 against the identity on the stored images
    of a genus-0 representation: every float64 entry is a dyadic rational,
    so the Fraction product is exact."""
    exact_c = [np.vectorize(Fraction, otypes=[object])(c.m) for c in reversed(rep.c_imgs)]
    word = functools.reduce(np.matmul, exact_c) - np.eye(2 * rep.n, dtype=int).astype(object)
    return max(abs(x) for x in word.flat)


@pytest.mark.parametrize("name, exact, refused", [("random_chain_0_6_n2_seed29.mg", 1.0553e-6, True),
                                                  ("random_chain_0_6_n3_seed22.mg", 8.400e-7, False)])
def test_relation_gate_reads_the_whole_word(name, exact, refused, monkeypatch):
    # bench/inputs.random_chain (0, 6) at n = 2, seed 29 and n = 3, seed 22:
    # with the C-word multiplied in float64 the gate read 9.2e-7 and 4.3e-7
    # on images whose exact defects were 1.7e-6 and 1.1e-6, and passed them;
    # the whole word in extended precision reads the exact defect (exact
    # rational arithmetic on the same images) to three digits.  With each
    # image formed once from its frame, the n = 3 chain's defect is 8.4e-7
    # and it builds, while the n = 2 chain is still refused
    graph = parse_graph_file(str(FIXTURES / name))
    real, gates = maxrep.gluing._surface_fault, []
    monkeypatch.setattr(maxrep.gluing, "_surface_fault",
                        lambda *args: gates.append(real(*args)) or (gates[0][0], None))
    rep = build_from_graph(graph)
    (res, fault), = gates
    defect = exact_c_defect(rep)
    assert float(defect) == pytest.approx(exact, rel=1e-3)
    assert res == rep.relation_residual == pytest.approx(float(defect), rel=1e-3)
    if refused:
        assert fault.stage == "surface relation residual" and fault.bound == pytest.approx(1e-6)
        assert fault.measured == res
    else:
        assert fault is None


@pytest.mark.parametrize("seed", [0, 1, 3])
def test_overflowing_chain_is_staged(seed):
    # a random (0, 16) chain at n = 2 overflows the gauge balance of its
    # conjugators: refused without a warning, with stage, value and bound
    graph = chain_graph(0, 16, 2, np.random.default_rng(seed))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(IllConditioned) as exc:
            build_from_graph(graph)
    assert not caught
    assert (exc.value.stage, exc.value.measured, exc.value.bound) == (
        "matrix entry", np.inf, np.finfo(float).max)


@pytest.mark.parametrize("kind", [(0, 4), (1, 2)])
def test_envelope_n32(kind, rng):
    rep = build_from_graph(chain_graph(*kind, 32, rng))
    assert rep.relation_residual <= 1e-10


@pytest.mark.parametrize("kind", [(0, 4), (1, 2)])
def test_envelope_n64(kind, rng):
    rep = build_from_graph(chain_graph(*kind, 64, rng))
    assert rep.relation_residual <= 1e-11


def _unitary_symplectic(n, rng):
    """[[Re U, -Im U], [Im U, Re U]] for a random unitary U: orthogonal and symplectic."""
    u, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    return np.block([[u.real, -u.imag], [u.imag, u.real]])


class TestLdProduct:
    """The extended-precision kernel behind every gluing product is the
    sequential np.longdouble `@` chain, byte for byte."""

    @staticmethod
    def _factor(size, rng):
        # entries over +-6 decades
        return rng.standard_normal((size, size)) * 10.0 ** rng.uniform(-6, 6, (size, size))

    @pytest.mark.parametrize("size", [2, 4, 6, 24, 48, 128])
    def test_matches_the_matmul_chain(self, size):
        rng = np.random.default_rng(size)
        for count in range(2, 7):
            mats = [SpMat(self._factor(size, rng)) for _ in range(count)]
            before = [m.m.tobytes() for m in mats]
            got = maxrep.gluing._ld_product(*mats)
            assert got.m.tobytes() == ld_matmul_chain(*mats).tobytes(), count
            assert got.m.dtype == np.float64 and got.m.flags.c_contiguous
            assert [m.m.tobytes() for m in mats] == before

    @pytest.mark.parametrize("size", [4, 24])
    def test_views_and_inverses(self, size):
        rng = np.random.default_rng(size + 1)
        big = self._factor(2 * size, rng)
        x, y = self._factor(size, rng), self._factor(size, rng)
        views = [SpMat(x.T), SpMat(big[1::2, ::2]), sp_inverse(SpMat(y)), SpMat(big[:size, size:])]
        assert not any(v.m.flags.c_contiguous for v in views[:2])
        for mats in (views, views[::-1], [SpMat(y)] + views, views[1:] + [SpMat(x)]):
            before = [m.m.tobytes() for m in mats]
            got = maxrep.gluing._ld_product(*mats)
            assert got.m.tobytes() == ld_matmul_chain(*mats).tobytes()
            assert got.m.dtype == np.float64 and got.m.flags.c_contiguous
            assert [m.m.tobytes() for m in mats] == before


class TestPolarSplit:
    """The gauge balance of a gluing step: h1 is symplectic to rounding
    level in float64, h1^{-1} h2 = h, and both factors have condition
    sqrt(cond h)."""

    @pytest.mark.parametrize("n", [1, 2, 12, 64])
    @pytest.mark.parametrize("log_cond", [0.5, 3.0, 6.0])
    def test_factors(self, n, log_cond, rng):
        eps = np.finfo(float).eps
        j = np.block([[np.zeros((n, n)), np.eye(n)], [-np.eye(n), np.zeros((n, n))]])
        for _ in range(3):
            # K1 diag(D, D^{-1}) K2 with cond exactly 10^log_cond
            d = 10.0 ** rng.uniform(-log_cond / 2, log_cond / 2, n)
            d[0] = 10.0 ** (log_cond / 2)
            h = _unitary_symplectic(n, rng) @ np.diag(np.concatenate((d, 1 / d))) \
                @ _unitary_symplectic(n, rng)
            h1, h2 = maxrep.gluing._polar_split(SpMat(h))
            scale = max(1.0, np.abs(h1.m).max())
            assert np.abs(h1.m.T @ j @ h1.m - j).max() <= 1e-13 * scale ** 2
            assert np.abs(sp_inverse(h1).m @ h2.m - h).max() <= 16 * n * eps * scale ** 2 * np.abs(h).max()
            for g in (h1, h2):
                assert np.linalg.cond(g.m) <= 1.01 * 10.0 ** (log_cond / 2)


def _same(a, b):
    """Equal SpMats or PantsReps entry for entry, or refusals of one type and message."""
    if isinstance(a, Exception) or isinstance(b, Exception):
        return type(a) is type(b) and str(a) == str(b)
    if isinstance(a, (SpMat, np.ndarray)):
        return np.array_equal(getattr(a, "m", a), getattr(b, "m", b))
    return all(np.array_equal(x.m, y.m) for x, y in zip(a.generators(), b.generators())) \
        and a.relation_residual == b.relation_residual


def _outcome(f, *args):
    try:
        return f(*args)
    except MaxRepError as exc:
        return exc


def _local_edges(graph):
    """The (upper pants, upper slot, lower pants, lower slot, twist) of every
    edge as the build glues it: a self-edge joins port 3, upper, to port 1 of
    its declared pants, with its twist in the handle orientation."""
    params = {nd.name: nd.params for nd in graph.nodes}
    edges = []
    for e in graph.edges:
        if e.upper[0] == e.lower[0]:
            p = params[e.upper[0]]
            edges.append((p, 3, p, 1, _loop_twist(e.twist, e.upper[1])))
        else:
            edges.append((params[e.upper[0]], e.upper[1], params[e.lower[0]], e.lower[1], e.twist))
    return edges


def _stacked_graphs():
    rng = np.random.default_rng(14)
    for kind in [(0, 3), (1, 1), (0, 4), (1, 2), (0, 5)]:
        for n in (1, 2, 3):
            yield chain_graph(*kind, n, rng)
    yield standard_sign_graph(0, 8, 2, (1, -1, 1, 1, -1, -1, 1))


class TestStackedLocalData:
    """The stacked forward map and twist kernel the build calls agree with
    their one-slice wrappers, and the build refuses in gluing order."""

    @pytest.mark.parametrize("graph", list(_stacked_graphs()))
    def test_stacks_match_one_slice_wrappers(self, graph, monkeypatch):
        params = [nd.params for nd in graph.nodes]
        xs = np.array([p.matrices() for p in params])
        for p, rep in zip(params, outcomes(_build_maximal_stack(xs, DEFAULT_TOL)[2])):
            assert _same(rep, _outcome(build_maximal, p))
        # the stacked slot presentations of every edge, as the build forms them
        calls = []
        monkeypatch.setattr(maxrep.gluing, "_twist_elements",
                            lambda *args, **kwargs: calls.append(args) or _twist_elements(*args, **kwargs))
        stacked = outcomes(_edge_twists(_local_edges(graph), DEFAULT_TOL))
        assert len(calls) == (1 if graph.edges else 0)
        for k, tw in enumerate(stacked):
            assert isinstance(tw, np.ndarray)
            one = twist_element(*(a[k] for a in calls[0][:5]))
            assert _same(tw, one)
            assert _same(outcomes(_twist_elements(*(a[[k, k]] for a in calls[0][:5]), DEFAULT_TOL))[1], one)

    @pytest.mark.parametrize("obstruct", [False, True])
    def test_mixed_twist_stack_keeps_each_refusal(self, obstruct, rng):
        x = random_contracting(2, rng)
        g0 = random_invertible(2, rng)
        s, sbar = random_spd(2, rng), random_spd(2, rng)
        good = (x, s, g0 @ x.T @ np.linalg.inv(g0), sbar, g0)
        circle = x / np.max(np.abs(np.linalg.eigvals(x)))
        cases = [good,
                 (x, s, good[2] + 1e-3, sbar, g0),                  # NotCompatible
                 (2.0 * circle, s, good[2], sbar, g0),              # NotContracting
                 (x, s, good[2], sbar, np.zeros((2, 2))),           # Singular twist
                 (x, np.full((2, 2), np.nan), good[2], sbar, g0),   # IllConditioned
                 (np.full((2, 2), np.inf), s, good[2], sbar, g0),
                 good,
                 (circle, s, g0 @ circle.T @ np.linalg.inv(g0), sbar, g0),   # unit modulus
                 (x, s, np.full((2, 2), np.nan), sbar, g0)]

        def one_slice(*case):
            # the gluing step refuses a finite unit-modulus length first
            if obstruct and any(np.isfinite(m).all() and np.any(
                    np.abs(np.abs(np.linalg.eigvals(m)) - 1.0) <= DEFAULT_TOL.unit_circle_band)
                    for m in (case[0], case[2])):
                raise CannotGlue("unit-modulus boundary length obstructs gluing")
            return twist_element(*case)

        stacked = _twist_elements(*(np.array(c) for c in zip(*cases)), DEFAULT_TOL, obstruct=obstruct)
        assert_slices_match(stacked, one_slice, cases)
        assert [type(r).__name__ for r in outcomes(stacked)] == [
            "ndarray", "NotCompatible", "NotContracting", "Singular", "IllConditioned",
            "IllConditioned", "ndarray", "CannotGlue" if obstruct else "NotContracting", "IllConditioned"]

    @staticmethod
    def _faulty_chain(rng, kind, bad_node, bad_edges, nan_node=False):
        graph = chain_graph(*kind, 2, rng)
        nodes, edges = list(graph.nodes), list(graph.edges)
        if bad_node is not None:
            p = nodes[bad_node].params
            x2 = np.full((2, 2), np.nan) if nan_node else -p.X2   # product no longer positive
            nodes[bad_node] = PantsNode(nodes[bad_node].name, PantsParams(p.X1, x2, p.X3))
        for k in bad_edges:
            e = edges[k]
            edges[k] = GraphEdge(e.upper, e.lower, e.twist + 1e-3 * np.eye(2))
        return GluingGraph(tuple(nodes), tuple(edges), graph.boundaries)

    @staticmethod
    def _first_fault(graph):
        """build_maximal on each node in node order, then twist_element on each
        edge in gluing order."""
        self_edges, tree_edges, closures, _ = _gluing_plan(graph)
        edges = dict(zip(graph.edges, _local_edges(graph)))
        for nd in graph.nodes:
            fault = _outcome(build_maximal, nd.params)
            if isinstance(fault, MaxRepError):
                return fault
        for e in [*self_edges.values(), *tree_edges, *closures]:
            calls = []
            patched = lambda *args, **kwargs: calls.append(args) or _twist_elements(*args)
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(maxrep.gluing, "_twist_elements", patched)
                _edge_twists([edges[e]], DEFAULT_TOL)
            fault = _outcome(twist_element, *(a[0] for a in calls[0][:5]))
            if isinstance(fault, MaxRepError):
                return fault
        return None

    @pytest.mark.parametrize("kind, bad_node, bad_edges, nan_node", [
        ((0, 6), 3, (0,), False), ((0, 6), 1, (2,), False), ((0, 6), 2, (1,), False),
        ((0, 6), 1, (1,), False), ((0, 6), 3, (0,), True), ((0, 6), 1, (2,), True),
        # a bent self-edge: after a node fault, and ahead of a later tree edge
        ((1, 4), 2, (0,), False), ((1, 4), None, (2, 0), False)],
        ids=["3-0-False", "1-2-False", "2-1-False", "1-1-False", "3-0-True", "1-2-True",
             "handle-2-0-False", "handle-None-2,0-False"])
    def test_first_fault_in_gluing_order_wins(self, kind, bad_node, bad_edges, nan_node):
        seed = (bad_node or 0) + 7 * bad_edges[0]
        graph = self._faulty_chain(np.random.default_rng(seed), kind, bad_node, bad_edges, nan_node)
        expected = self._first_fault(graph)
        assert isinstance(expected, MaxRepError)
        with pytest.raises(type(expected)) as info:
            build_from_graph(graph)
        assert str(info.value) == str(expected)

    def test_one_forward_map_call_and_one_twist_call(self, rng, monkeypatch):
        calls = {"_build_maximal_stack": 0, "_twist_elements": 0}
        for name in calls:
            real = getattr(maxrep.gluing, name)

            def counted(*args, _real=real, _name=name, **kwargs):
                calls[_name] += 1
                return _real(*args, **kwargs)

            monkeypatch.setattr(maxrep.gluing, name, counted)
        p = random_pants_params(2, rng, tame=True)
        mirror = PantsParams(p.X3.T, p.X2.T, p.X1.T)
        closed = GluingGraph(
            (PantsNode("p0", p), PantsNode("p1", mirror)),
            (GraphEdge(("p1", 3), ("p0", 1), np.eye(2)),
             GraphEdge(("p0", 3), ("p1", 1), np.eye(2)),
             GraphEdge(("p1", 2), ("p0", 2), np.eye(2))),
            ())
        # self edge, tree edges, and closures
        for graph in (chain_graph(1, 3, 2, rng), closed):
            calls.update(dict.fromkeys(calls, 0))
            build_from_graph(graph)
            assert calls == {"_build_maximal_stack": 1, "_twist_elements": 1}

    def test_refused_build_leaves_no_reference_cycles(self):
        # a stored refusal must not hold a traceback, and so the frame of the
        # kernel that stored it, in a cycle only the cyclic collector frees
        graph = chain_graph(1, 1, 2, np.random.default_rng(0))
        e = graph.edges[0]
        bent = GraphEdge(e.upper, e.lower, e.twist + 0.3 * np.array([[0.0, 1.0], [0.0, 0.0]]))
        graph = GluingGraph(graph.nodes, (bent,), graph.boundaries)
        gc.collect()
        gc.disable()
        try:
            with pytest.raises(NotCompatible) as info:
                build_from_graph(graph)
            del info
            assert gc.collect() == 0
        finally:
            gc.enable()


def _spectrum_defect(g, length):
    """Relative distance from the spectrum of g to that of length together
    with its inverse, matching nearest eigenvalues first."""
    lam = np.linalg.eigvals(length)
    want = list(np.concatenate([lam, 1.0 / lam]))
    worst = 0.0
    for mu in sorted(np.linalg.eigvals(g), key=abs):
        i = min(range(len(want)), key=lambda t: abs(want[t] - mu))
        worst = max(worst, abs(want[i] - mu) / abs(want[i]))
        want.pop(i)
    return worst


class TestBraidMoves:
    """Boundaries declared out of gluing order, and a node attached through
    port 1 or 2 of the node before it, send the build through its braid
    moves; the boundaries still come out as declared."""

    @staticmethod
    def _build_counting_swaps(graph, monkeypatch):
        swaps = []
        real = maxrep.gluing._swap_adjacent_boundaries
        monkeypatch.setattr(maxrep.gluing, "_swap_adjacent_boundaries",
                            lambda rep, i: swaps.append(i) or real(rep, i))
        return build_from_graph(graph), len(swaps)

    @staticmethod
    def _check(graph, rep, bound):
        assert rep.labels == tuple(b.label for b in graph.boundaries)
        params = {nd.name: nd.params for nd in graph.nodes}
        for c, b in zip(rep.c_imgs, graph.boundaries, strict=True):
            assert _spectrum_defect(c.m, slot_glue_length(params[b.port[0]], b.port[1])) <= 1e-6
        assert component_signature(rep) == component_signature(graph)
        assert rep.relation_residual <= bound

    @pytest.mark.parametrize("kind, order, bound", [
        ((0, 4), (1, 0, 2, 3), 1e-10), ((0, 4), (0, 2, 3, 1), 1e-7), ((1, 2), (1, 0), 1e-10),
        ((0, 5), (1, 0, 2, 4, 3), 1e-8), ((0, 5), (0, 1, 3, 4, 2), 1e-6),
        # (1, 3) chains lose the most digits in their braid moves: on seeds
        # 0-39 at n = 1 and 2 the gate refuses 181 of their 480 orders and
        # the rest read up to 1e-6, so their bound is loose
        ((1, 3), (1, 0, 2), 1e-4), ((1, 3), (2, 0, 1), 1e-4)])
    def test_permuted_boundary_order(self, kind, order, bound, monkeypatch):
        graph = chain_graph(*kind, 2, np.random.default_rng(sum(kind) + 20))
        graph = GluingGraph(graph.nodes, graph.edges, tuple(graph.boundaries[i] for i in order))
        rep, swaps = self._build_counting_swaps(graph, monkeypatch)
        assert swaps >= 1
        self._check(graph, rep, bound)

    def test_every_declared_order(self):
        # every declared boundary order of one (0, 5) chain at n = 2 builds
        # with a residual that reads its exact defect, or the build's final
        # gate (_surface_fault) refuses it.
        # The extended-precision word rounds at about 1e-19 times the norms of
        # its partial products, so a defect below the gate's bound is read to
        # 1e-3 of that bound.  58 of the 120 orders build
        graph = chain_graph(0, 5, 2, np.random.default_rng(0))
        built = 0
        for order in itertools.permutations(graph.boundaries):
            try:
                rep = build_from_graph(GluingGraph(graph.nodes, graph.edges, order))
            except IllConditioned as exc:
                assert exc.stage in ("surface relation residual", "block-relation defect")
                continue
            built += 1
            defect = float(exact_c_defect(rep))
            assert rep.relation_residual <= 1e-6 and defect <= 1e-6
            assert abs(rep.relation_residual - defect) <= 1e-3 * max(defect, 1e-6)
        assert built == 58

    @pytest.mark.parametrize("kind, order, moves, closings", [
        ((0, 4), (0, 1, 2, 3), 0, 0), ((0, 4), (1, 0, 3, 2), 2, 0),
        ((1, 2), (0, 1), 0, 1), ((1, 2), (1, 0), 1, 1)])
    def test_each_image_formed_once(self, kind, order, moves, closings, monkeypatch):
        # the assembly forms one extended-precision product per edge
        # conjugator, polar split, braid move and handle closing's C_1, and
        # no generator image; the result forms each image once, then the
        # relation word
        graph = chain_graph(*kind, 2, np.random.default_rng(sum(kind) + 20))
        graph = GluingGraph(graph.nodes, graph.edges, tuple(graph.boundaries[i] for i in order))
        products, swaps = [], []
        real_ld, real_swap = maxrep.gluing._ld_product, maxrep.gluing._swap_adjacent_boundaries
        monkeypatch.setattr(maxrep.gluing, "_ld_product", lambda *mats: products.append(1) or real_ld(*mats))
        monkeypatch.setattr(maxrep.gluing, "_swap_adjacent_boundaries",
                            lambda piece, i: swaps.append(i) or real_swap(piece, i))
        piece, checks = maxrep.gluing._assemble(graph, DEFAULT_TOL)
        polar_splits = len(graph.nodes) - 1   # one per tree edge
        assert (len(swaps), len(products)) == (moves, len(graph.edges) + polar_splits + closings + moves)
        products.clear()
        rep = maxrep.gluing._surface_rep(piece, checks, graph, DEFAULT_TOL)
        assert len(products) == 2 * rep.genus + rep.m + 1
        ref = build_from_graph(graph)
        for a, b in zip(rep.generator_images().values(), ref.generator_images().values(), strict=True):
            assert a.m.tobytes() == b.m.tobytes()

    @pytest.mark.parametrize("slot, n", [(1, 1), (1, 2), (2, 2), (2, 3)])
    def test_node_attached_through_port_1_or_2(self, slot, n, monkeypatch):
        rng = np.random.default_rng(slot)
        p = random_pants_params(n, rng, tame=True)
        g = random_invertible(n, rng)
        x1 = (np.linalg.inv(g) @ slot_glue_length(p, slot) @ g).T
        x2, x3, _ = derive_third_length(x1, rng)
        ports = [("p0", s) for s in (1, 2, 3) if s != slot] + [("p1", 2), ("p1", 3)]
        graph = GluingGraph((PantsNode("p0", p), PantsNode("p1", PantsParams(x1, x2, x3))),
                            (GraphEdge(("p0", slot), ("p1", 1), g),),
                            tuple(GraphBoundary(port, f"C{j}") for j, port in enumerate(ports, start=1)))
        rep, swaps = self._build_counting_swaps(graph, monkeypatch)
        assert swaps >= 1
        self._check(graph, rep, 1e-10)
