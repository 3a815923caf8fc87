import itertools

import numpy as np
import pytest

import maxrep.gluing
from maxrep.errors import CannotGlue, GraphInvalid, IllConditioned, NotCompatible, NotContracting
from maxrep.gluing import (
    GlueStatus,
    GluingGraph,
    GraphBoundary,
    GraphEdge,
    PantsNode,
    build_from_graph,
    can_glue,
    close_handle,
    close_pair,
    component_signature,
    glue_reps,
    pants_surface_rep,
    slot_glue_length,
    standard_lower,
    standard_upper,
    twist_element,
)
from maxrep.matcore import norm_inf
from maxrep.pants import PantsParams, build_maximal, pants_product, toledo_signature_shortcut
from maxrep.sampling import (
    random_contracting,
    random_handle_data,
    random_invertible,
    random_orthogonal,
    random_pants_params,
    random_spd,
    derive_third_length,
)
from maxrep.symplectic import sp_inverse
from tests_support import chain_graph, patch_nan_twist


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


class TestTwistElement:
    def test_scalar_worked_value(self):
        g = twist_element([[0.5]], [[1.0]], [[0.5]], [[1.0]], [[1.0]])
        np.testing.assert_allclose(
            g.m, [[-34 / 9, -5 / 3], [-5 / 3, -1.0]], atol=1e-12)
        np.testing.assert_allclose(np.linalg.det(g.m), 1.0, atol=1e-12)

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
        prod = pants_product(rep.nodes[0])
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


class TestGlueReps:
    def test_four_holed_sphere(self, rng):
        for _ in range(10):
            n = int(rng.integers(1, 4))
            p = random_pants_params(n, rng, tame=True)
            g0 = random_invertible(n, rng)
            q = attached_params(p, 3, g0, rng)
            r1 = pants_surface_rep(p, labels=("a1", "a2", "a3"))
            r2 = pants_surface_rep(q, labels=("b1", "b2", "b3"))
            glued = glue_reps(r1, "a3", r2, "b1", g0)
            assert (glued.genus, glued.m) == (0, 4)
            assert glued.relation_residual <= 1e-8
            # characteristic number adds across the edge
            total = sum(toledo_signature_shortcut(p) for p in glued.nodes)
            assert total == 2 * n

    def test_double_of_pants(self, rng):
        # gluing a second copy of itself: mirrored parameters match exactly
        p = random_pants_params(2, rng, tame=True)
        mirror = PantsParams(p.X3.T, p.X2.T, p.X1.T)
        r1 = pants_surface_rep(p, labels=("a1", "a2", "a3"))
        r2 = pants_surface_rep(mirror, labels=("b1", "b2", "b3"))
        glued = glue_reps(r1, "a3", r2, "b1", np.eye(2))
        assert glued.relation_residual <= 1e-8
        assert sum(toledo_signature_shortcut(p) for p in glued.nodes) == 4

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
        glued1 = glue_reps(pants_surface_rep(p, labels=("a1", "a2", "a3")), "a3",
                           pants_surface_rep(q, labels=("b1", "b2", "b3")), "b1", g0)
        glued2 = glue_reps(pants_surface_rep(p2, labels=("a1", "a2", "a3")), "a3",
                           pants_surface_rep(q2, labels=("b1", "b2", "b3")), "b1", g2)
        f1 = word_trace_fingerprint(glued1)
        f2 = word_trace_fingerprint(glued2)
        scale = max(1.0, np.max(np.abs(f1)))
        assert np.max(np.abs(f1 - f2)) <= 1e-6 * scale

    def test_one_holed_tori_glue_to_closed_genus_two(self, rng):
        x1, x2, h = random_handle_data(2, rng)
        hb1 = close_handle(x1, x2, h, label="t1")
        x3 = h @ x1.T @ np.linalg.inv(h)
        hb2 = close_handle(x3.T, x2.T, np.linalg.inv(h), label="t2")
        closed = glue_reps(hb1, "t1", hb2, "t2", np.eye(2))
        assert (closed.genus, closed.m) == (2, 0)
        assert closed.relation_residual <= 1e-7

    def test_label_collision_rejected(self, rng):
        p = random_pants_params(1, rng, tame=True)
        q = attached_params(p, 3, np.eye(1), rng)
        r1 = pants_surface_rep(p, labels=("a", "b", "c"))
        r2 = pants_surface_rep(q, labels=("a", "e", "f"))
        with pytest.raises(ValueError):
            glue_reps(r1, "c", r2, "e", np.eye(1))


def single_pants_graph(p: PantsParams) -> GluingGraph:
    return GluingGraph(
        (PantsNode("p0", p),), (),
        (GraphBoundary(("p0", 1), "C1"), GraphBoundary(("p0", 2), "C2"),
         GraphBoundary(("p0", 3), "C3")))


class TestBuildFromGraph:
    def test_single_pants_matches_direct_build(self, rng):
        p = random_pants_params(2, rng)
        rep = build_from_graph(single_pants_graph(p))
        direct = build_maximal(p)
        for img, c in zip(rep.c_imgs, direct.generators()):
            np.testing.assert_allclose(img.m, c.m, atol=1e-13)
        assert rep.boundary_labels() == ("C1", "C2", "C3")

    def test_four_holed_sphere_graph(self, rng):
        p = random_pants_params(2, rng, tame=True)
        g0 = random_invertible(2, rng)
        q = attached_params(p, 3, g0, rng)
        graph = GluingGraph(
            (PantsNode("p0", p), PantsNode("p1", q)),
            (GraphEdge(("p0", 3), ("p1", 1), g0),),
            (GraphBoundary(("p0", 1), "C1"), GraphBoundary(("p0", 2), "C2"),
             GraphBoundary(("p1", 2), "C3"), GraphBoundary(("p1", 3), "C4")))
        rep = build_from_graph(graph)
        assert (rep.genus, rep.m) == (0, 4)
        assert rep.relation_residual <= 1e-7
        assert rep.boundary_labels() == ("C1", "C2", "C3", "C4")

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


class TestClosePair:
    def test_genus_increase(self, rng):
        # close two boundaries of the doubled pants: the mirrored copy makes
        # the first and last boundary lengths exact transposes of each other
        p = random_pants_params(2, rng, tame=True)
        mirror = PantsParams(p.X3.T, p.X2.T, p.X1.T)
        r1 = pants_surface_rep(p, labels=("a1", "a2", "a3"))
        r2 = pants_surface_rep(mirror, labels=("b1", "b2", "b3"))
        fh = glue_reps(r1, "a3", r2, "b1", np.eye(2))
        closed = close_pair(fh, "b3", "a1", np.eye(2))
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

    def test_closed_surface_rejected(self, rng):
        x1, x2, h = random_handle_data(2, rng)
        hb1 = close_handle(x1, x2, h, label="t1")
        x3 = h @ x1.T @ np.linalg.inv(h)
        hb2 = close_handle(x3.T, x2.T, np.linalg.inv(h), label="t2")
        closed = glue_reps(hb1, "t1", hb2, "t2", np.eye(2))
        with pytest.raises(ValueError):
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

    def test_non_finite_residual_refused(self, rng, monkeypatch):
        x1, x2, h = random_handle_data(2, rng)
        monkeypatch.setattr(maxrep.gluing, "relation_residual", lambda *args: np.nan)
        with pytest.raises(IllConditioned):
            close_handle(x1, x2, h)


@pytest.mark.parametrize("kind", [(0, 4), (1, 2)])
def test_envelope_n32(kind, rng):
    rep = build_from_graph(chain_graph(*kind, 32, rng))
    assert rep.relation_residual <= 1e-10
