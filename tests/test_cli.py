import io
import json
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import maxrep
from maxrep.cli import (
    ParseError,
    main,
    parse_graph_file,
    parse_points_file,
    parse_rep_file,
    write_graph_file,
    write_rep_file,
)
from maxrep.deform import deform_to_standard, standard_sign_graph
from maxrep.errors import IllConditioned, MaxRepError, NotCompatible
from maxrep.gluing import GluingGraph, GraphEdge, PantsNode, build_from_graph
from maxrep.matcore import Tolerance
from maxrep.pants import PantsParams
from tests_support import chain_graph, patch_nan_twist, random_handle_data

PANTS_FILE = """\
maxrep-graph 1
n 1
surface 0 3
node p0
  X1
  0.5
  X2
  0.5
  X3
  0.5
end
boundary p0 1 C1
boundary p0 2 C2
boundary p0 3 C3
"""

TORUS_FILE = """\
# one-holed torus, all-plus component
maxrep-graph 1
n 1
surface 1 1
node p0
  X1
  0.5
  X2
  0.5
  X3
  0.5
end
edge p0 3 p0 1
  1.0
end
boundary p0 2 C1
"""

# every boundary of this (0, 4) graph is nearly a cusp: each boundary length
# is within 1e-6 of 1 in modulus, so no word of length 1 has an attracting
# point contracting by the sampler's margin, and every such word is skipped
SKIPPED_WORDS_FILE = """\
maxrep-graph 1
n 1
surface 0 4
node p0
  X1
  0.999999
  X2
  0.999999
  X3
  0.5
end
node p1
  X1
  0.5
  X2
  -0.999999
  X3
  -0.999999
end
edge p0 3 p1 1
  1.0
end
boundary p0 1 C1
boundary p0 2 C2
boundary p1 2 C3
boundary p1 3 C4
"""

# a (0, 4) graph whose huge twist grows the generator entries to 3.5e7: its
# surface relation residual is 1.0, and the build refuses it
OVERGROWN_FILE = """\
maxrep-graph 1
n 1
surface 0 4
node p0
  X1
  -0.6753881184130398
  X2
  0.38933183097682367
  X3
  -0.6218860400699067
end
node p1
  X1
  -0.6218860400699067
  X2
  0.5286070215678386
  X3
  -0.8197241226133112
end
edge p0 3 p1 1
  -94302.2958605013
end
boundary p0 1 C1
boundary p0 2 C2
boundary p1 2 C3
boundary p1 3 C4
"""

POINTS_FILE = """\
maxrep-points 1
n 2
point zero
point identity
point inf
"""


@pytest.fixture
def pants_file(tmp_path):
    f = tmp_path / "pants.mg"
    f.write_text(PANTS_FILE)
    return str(f)


@pytest.fixture
def torus_file(tmp_path):
    f = tmp_path / "torus.mg"
    f.write_text(TORUS_FILE)
    return str(f)


def run_main(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


class TestBuild:
    def test_pants_build(self, pants_file, capsys):
        code, out, _ = run_main(["build", pants_file], capsys)
        assert code == 0
        assert "relation residual: 0.000000e+00" in out
        assert "node p0 class: in_r_star" in out

    def test_build_writes_rep(self, pants_file, tmp_path, capsys):
        out_file = str(tmp_path / "rep.mr")
        code, _, _ = run_main(["build", pants_file, "--out", out_file], capsys)
        assert code == 0
        text = open(out_file).read()
        assert text.startswith("maxrep-rep 1")
        assert "generator C1" in text

    def test_json_output(self, pants_file, capsys):
        import json

        code, out, _ = run_main(["build", pants_file, "--json"], capsys)
        assert code == 0
        data = json.loads(out)
        assert data["status"] == "ok"

    def test_malformed_matrix_row(self, tmp_path, capsys):
        f = tmp_path / "bad.mg"
        f.write_text(PANTS_FILE.replace("  0.5\n  X2", "  0.5 0.7\n  X2"))
        code, _, err = run_main(["build", str(f)], capsys)
        assert code == 2
        assert "line" in err

    def test_not_a_number(self, tmp_path, capsys):
        f = tmp_path / "bad.mg"
        f.write_text(PANTS_FILE.replace("  X1\n  0.5", "  X1\n  fish"))
        code, _, err = run_main(["build", str(f)], capsys)
        assert code == 2

    def test_invalid_params_exit_code(self, tmp_path, capsys):
        f = tmp_path / "neg.mg"
        f.write_text(PANTS_FILE.replace("  X2\n  0.5", "  X2\n  -0.5"))
        code, _, err = run_main(["build", str(f)], capsys)
        assert code == 3

    def test_unit_modulus_edge_exit_code(self, tmp_path, capsys):
        f = tmp_path / "circle.mg"
        f.write_text(TORUS_FILE.replace("  X1\n  0.5", "  X1\n  1.0"))
        code, _, err = run_main(["build", str(f)], capsys)
        assert code == 3

    @pytest.mark.parametrize("token", ["nan", "inf", "-inf", "1e400"])
    def test_non_finite_entry(self, tmp_path, capsys, token):
        f = tmp_path / "bad.mg"
        f.write_text(PANTS_FILE.replace("  X1\n  0.5", f"  X1\n  {token}"))
        code, _, err = run_main(["build", str(f)], capsys)
        assert code == 2
        assert "not a finite number" in err and "(line 6)" in err

    def test_overflow_is_breakdown(self, tmp_path, capsys):
        f = tmp_path / "big.mg"
        f.write_text(PANTS_FILE.replace("  X1\n  0.5", "  X1\n  1e308"))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, _, err = run_main(["build", str(f)], capsys)
        assert code == 4
        assert "IllConditioned" in err

    @pytest.mark.parametrize("log_twist", [3.5, 3.75, 4.0, 5.0])
    def test_overflowing_gauge_balance_is_staged(self, log_twist, tmp_path, capsys):
        # twists of 1e3.5 and more overflow the conjugator's gauge balance;
        # the library refuses without a warning, naming stage, value and bound
        f = tmp_path / "overgrown.mg"
        f.write_text(OVERGROWN_FILE.replace("-94302.2958605013", repr(-10.0 ** log_twist)))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(IllConditioned) as exc:
                build_from_graph(parse_graph_file(str(f)))
        assert not caught
        assert (exc.value.stage, exc.value.measured, exc.value.bound) == (
            "matrix entry", np.inf, np.finfo(float).max)
        # --json prints the refusal as strict JSON, the measured inf as a string
        code, out, _ = run_main(["build", str(f), "--json"], capsys)
        assert code == 4
        assert json.loads(out, parse_constant=pytest.fail)["measured"] == "inf"

    def test_non_symplectic_build_image_is_breakdown(self, tmp_path, capsys, monkeypatch):
        # at Tolerance(1e-3) the relation bound is 1.0, and twist -1e3.25 gives
        # an image the gauge balance failed to keep symplectic: the build calls
        # that a numerical breakdown (exit 4), with the block-relation gate's
        # fields; its rep file, written without the last gate, verifies suspect
        f = tmp_path / "overgrown.mg"
        f.write_text(OVERGROWN_FILE.replace("-94302.2958605013", repr(-10.0 ** 3.25)))
        with pytest.raises(IllConditioned) as exc:
            build_from_graph(parse_graph_file(str(f)), Tolerance(1e-3))
        assert exc.value.stage == "block-relation defect"
        assert exc.value.measured > exc.value.bound > 0
        code, _, err = run_main(["build", str(f), "--tol", "1e-3"], capsys)
        assert code == 4 and "IllConditioned" in err
        with monkeypatch.context() as m:
            m.setattr(maxrep.gluing, "_surface_fault", lambda n, a, b, c, tol: (0.0, None))
            assert run_main(["build", str(f), "--tol", "1e-3", "--out", str(tmp_path / "rep.mr")], capsys)[0] == 0
        code, out, _ = run_main(["verify", str(tmp_path / "rep.mr"), "--tol", "1e-3"], capsys)
        assert code == 0 and "status: suspect" in out

    def test_refusal_json(self, tmp_path, capsys):
        # the one-holed torus with twist 1e6: its twist conjugation residual is
        # above the band but at the rounding floor of its products
        import json

        f = tmp_path / "big_twist.mg"
        f.write_text(TORUS_FILE.replace("  1.0\nend", "  1000000.0\nend"))
        code, out, err = run_main(["build", str(f), "--json"], capsys)
        assert code == 4
        assert err.startswith("numerical breakdown: IllConditioned: twist conjugation residual")
        data = json.loads(out)
        assert (data["status"], data["error"], data["stage"]) == \
            ("numerical breakdown", "IllConditioned", "twist conjugation residual")
        assert data["measured"] > data["bound"] and data["message"] in err

    def test_unit_modulus_refusal_json(self, tmp_path, capsys):
        # the torus with X1 = X3 = 1: its glued length lies on the unit circle,
        # a mathematical refusal (exit 3) that --json prints with its stage
        import json

        f = tmp_path / "unit.mg"
        f.write_text(TORUS_FILE.replace("  X1\n  0.5", "  X1\n  1.0").replace("  X3\n  0.5", "  X3\n  1.0"))
        code, out, err = run_main(["build", str(f), "--json"], capsys)
        assert code == 3 and "CannotGlue" in err
        data = json.loads(out)
        assert (data["error"], data["stage"], data["measured"], data["bound"]) == \
            ("CannotGlue", "unit-circle obstruction", 0.0, 1e-8)

    def test_strict_mode(self, tmp_path, capsys):
        f = tmp_path / "loose.mg"
        f.write_text(PANTS_FILE.replace("  X1\n  0.5", "  X1\n  0.50"))
        code, _, _ = run_main(["build", str(f)], capsys)
        assert code == 0
        code, _, err = run_main(["build", str(f), "--strict"], capsys)
        assert code == 2
        assert "round-trip" in err


class TestVerifyRoundTrip:
    def test_bit_stable_residual(self, pants_file, tmp_path, capsys):
        out_file = str(tmp_path / "rep.mr")
        code, out1, _ = run_main(["build", pants_file, "--out", out_file], capsys)
        assert code == 0
        code, out2, _ = run_main(["verify", out_file], capsys)
        assert code == 0
        res1 = [l for l in out1.splitlines() if l.startswith("relation residual")]
        res2 = [l for l in out2.splitlines() if l.startswith("relation residual")]
        assert res1 == res2

    def test_verify_rep_file_gates_relation(self, torus_file, tmp_path, capsys):
        # every generator stays exactly symplectic, but the relation fails
        out_file = tmp_path / "torus.mr"
        code, _, _ = run_main(["build", torus_file, "--out", str(out_file)], capsys)
        assert code == 0
        code, out, _ = run_main(["verify", str(out_file)], capsys)
        assert code == 0 and "status: ok" in out
        text = out_file.read_text()
        head, tail = text.split("generator C1\n")
        body, rest = tail.split("end\n", 1)
        assert len(body.splitlines()) == 2
        out_file.write_text(head + "generator C1\n  1.0 0.0\n  0.0 1.0\nend\n" + rest)
        code, out, _ = run_main(["verify", str(out_file)], capsys)
        assert code == 0
        assert "status: ok" not in out and "status: suspect" in out
        assert "relation residual: 4.500000e+00" in out

    def test_verify_graph_file(self, torus_file, capsys):
        code, out, _ = run_main(["verify", torus_file], capsys)
        assert code == 0
        assert "status: ok" in out

    def test_build_and_verify_share_one_gate(self, torus_file, tmp_path, capsys, monkeypatch):
        # the rep file of a build without its last gate verifies "suspect"
        # exactly when the build refuses: these standard chains and the
        # overgrown file read relation residuals of 1.8e-4 to 4.4e9
        files = [torus_file, tmp_path / "overgrown.mg"]
        files[1].write_text(OVERGROWN_FILE)
        for kind in ((0, 7), (1, 4), (0, 8), (0, 10), (0, 12), (1, 6)):
            files.append(tmp_path / f"standard{kind}.mg")
            with open(files[-1], "w") as fh:
                write_graph_file(standard_sign_graph(*kind, 2, (1,) * (2 * kind[0] + kind[1] - 1)), fh)
        verdicts = []
        for f in files:
            code, _, err = run_main(["build", str(f)], capsys)
            verdicts.append(code)
            assert code == 0 or (code == 4 and "IllConditioned: surface relation residual" in err)
            with monkeypatch.context() as m:
                m.setattr(maxrep.gluing, "_surface_fault", lambda n, a, b, c, tol: (0.0, None))
                assert run_main(["build", str(f), "--out", str(tmp_path / "rep.mr")], capsys)[0] == 0
            code, out, _ = run_main(["verify", str(tmp_path / "rep.mr")], capsys)
            assert code == 0 and ("status: ok" in out) == (verdicts[-1] == 0)
        assert verdicts == [0, 4, 0, 0, 4, 4, 4, 4]


class TestCommands:
    def test_toledo(self, pants_file, capsys):
        code, out, _ = run_main(["toledo", pants_file], capsys)
        assert code == 0
        assert "T: 1" in out
        assert "node p0 T (signature route): 1" in out
        assert "node p0 T (index route): 1" in out

    def test_maslov(self, tmp_path, capsys):
        f = tmp_path / "pts.mp"
        f.write_text(POINTS_FILE)
        code, out, _ = run_main(["maslov", str(f)], capsys)
        assert code == 0
        assert "maslov: 2" in out

    def test_maslov_tol_checks_every_pair(self, tmp_path, capsys):
        # diag(1, 1e-3) is transverse to 0 at the default tolerance, not at 1e-2
        f = tmp_path / "pts.mp"
        f.write_text("maxrep-points 1\nn 2\npoint zero\npoint\n  1.0 0.0\n  0.0 0.001\npoint inf\n")
        code, out, _ = run_main(["maslov", str(f)], capsys)
        assert code == 0 and "maslov: 2" in out
        code, _, err = run_main(["maslov", str(f), "--tol", "1e-2"], capsys)
        assert code == 3
        assert "NotTransverse: points 1 and 2 are not transverse" in err

    def test_maslov_at_the_given_tolerance(self, tmp_path, capsys):
        # diag(1, 1e-10) is transverse to 0 at 1e-12, not at the default
        f = tmp_path / "pts.mp"
        f.write_text("maxrep-points 1\nn 2\npoint zero\npoint\n  1.0 0.0\n  0.0 1e-10\npoint inf\n")
        code, out, _ = run_main(["maslov", str(f), "--tol", "1e-12"], capsys)
        assert code == 0 and "maslov: 2" in out
        code, out, err = run_main(["maslov", str(f), "--json"], capsys)
        assert code == 3
        assert "NotTransverse: points 1 and 2 are not transverse" in err
        data = json.loads(out)
        assert (data["error"], data["stage"]) == ("NotTransverse", "pair transversality")
        assert (data["measured"], data["bound"]) == (1e-10, 1e-9)

    def test_cached_parser_keeps_no_state_between_calls(self, tmp_path, pants_file, capsys):
        # the parser is built once per process; each call must still read only
        # its own command and flags
        from maxrep.cli import _build_parser
        assert _build_parser() is _build_parser()
        pts = tmp_path / "pts.mp"
        pts.write_text("maxrep-points 1\nn 2\npoint zero\npoint\n  1.0 0.0\n  0.0 0.001\npoint inf\n")
        runs = [(["build", pants_file, "--json"], 0, '"status": "ok"'),
                (["build", pants_file], 0, "status: ok"),
                (["maslov", str(pts), "--tol", "1e-2"], 3, "NotTransverse"),
                (["maslov", str(pts)], 0, "maslov: 2"),
                (["maslov", str(pts), "--json"], 0, '"maslov": 2'),
                (["toledo", pants_file], 0, "T: 1")]
        for _ in range(2):
            for argv, want_code, want_text in runs:
                code, out, err = run_main(argv, capsys)
                assert code == want_code and want_text in out + err
                assert out.lstrip().startswith("{") == ("--json" in argv)

    @pytest.mark.parametrize("n", [1, 3])
    def test_node_report_matches_one_node_calls(self, n):
        # the report is read off the build's own membership check, which on a
        # handle node sees the pants (X1, X2, G X1^T G^{-1}) and not the
        # graph's X3; it still gives what the per-node calls give on the
        # graph's own parameters
        from maxrep.cli import _describe_build
        from maxrep.deform import enumerate_standard_graphs
        from maxrep.pants import classify_params, toledo_signature_shortcut
        rng = np.random.default_rng(3)
        graphs = [chain_graph(*kind, n, rng) for kind in [(1, 1), (0, 4), (0, 5)]]
        graphs += [graph for kind in [(0, 3), (1, 1), (0, 4), (1, 2)]
                   for _, graph in enumerate_standard_graphs(*kind, n)]
        # the last node's boundary lengths X2 and X3, scaled together, keep
        # its product: a spectral radius of 1 and of 1.5 gives in_r and
        # in_tilde_r beside in_r_star nodes
        *rest, last = graphs[1].nodes
        p = last.params
        radius = max(np.abs(np.linalg.eigvals(x)).max() for x in (p.X2, p.X3))
        graphs += [GluingGraph((*rest, PantsNode(last.name, PantsParams(p.X1, c * p.X2, c * p.X3))),
                               graphs[1].edges, graphs[1].boundaries) for c in (1 / radius, 1.5 / radius)]
        seen = set()
        for graph in graphs:
            report = dict(_describe_build(build_from_graph(graph)))
            assert len(report) == 4 + 2 * len(graph.nodes)
            for nd in graph.nodes:
                assert report[f"node {nd.name} class"] == classify_params(nd.params).value
                assert report[f"node {nd.name} toledo"] == str(toledo_signature_shortcut(nd.params))
                seen.add(report[f"node {nd.name} class"])
        assert seen == {"in_r_star", "in_r", "in_tilde_r"}

    @pytest.mark.parametrize("command, text", [("build", "node p1 toledo: 2"), ("verify", "node p1 toledo: 2"),
                                               ("toledo", "node p1 T (index route): 2")])
    def test_one_membership_check_per_graph_command(self, command, text, tmp_path, capsys, monkeypatch):
        import maxrep.pants
        calls = []
        real = maxrep.pants._check_stack

        def counted(*args, **kwargs):
            calls.append(args[0].shape)
            return real(*args, **kwargs)

        monkeypatch.setattr(maxrep.pants, "_check_stack", counted)
        f = tmp_path / "chain.mg"
        with open(f, "w") as fh:
            write_graph_file(chain_graph(1, 2, 2, np.random.default_rng(0)), fh)
        code, out, _ = run_main([command, str(f)], capsys)
        assert code == 0 and text in out and ("status: ok" in out) == (command != "toledo")
        assert calls == [(2, 3, 2, 2)]

    def test_components_torus(self, torus_file, capsys):
        code, out, _ = run_main(["components", torus_file], capsys)
        assert code == 0
        assert "signature: (+, +)" in out
        assert "components: 2^2 = 4" in out

    def test_glue(self, pants_file, tmp_path, capsys):
        other = tmp_path / "pants2.mg"
        # mirror double: transposed scalars glue with the identity twist
        other.write_text(PANTS_FILE.replace("surface 0 3", "surface 0 3")
                         .replace("C1", "D1").replace("C2", "D2").replace("C3", "D3"))
        tw = tmp_path / "twist.mt"
        tw.write_text("1.0\n")
        out_file = str(tmp_path / "glued.mr")
        code, out, _ = run_main(
            ["glue", pants_file, "C3", str(other), "D1",
             "--twist-file", str(tw), "--out", out_file], capsys)
        assert code == 0
        assert "genus 0, boundaries 4" in out

    def test_glue_is_one_build_of_the_union_graph(self, pants_file, tmp_path, capsys, monkeypatch):
        # the glued graph, upper's edges, lower's, then the new one, is built
        # once; neither file is built on its own
        calls = []
        real = maxrep.cli.build_from_graph
        monkeypatch.setattr(maxrep.cli, "build_from_graph",
                            lambda graph, tol: calls.append(graph) or real(graph, tol))
        other = tmp_path / "pants2.mg"
        other.write_text(PANTS_FILE.replace("C", "D"))
        tw = tmp_path / "twist.mt"
        tw.write_text("1.0\n")
        out_file = tmp_path / "glued.rep"
        code, out, _ = run_main(["glue", pants_file, "C3", str(other), "D1", "--twist-file", str(tw),
                                 "--out", str(out_file)], capsys)
        assert code == 0 and "genus 0, boundaries 4" in out
        (graph,) = calls
        assert [nd.name for nd in graph.nodes] == ["1.p0", "2.p0"]
        assert [(e.upper, e.lower) for e in graph.edges] == [(("1.p0", 3), ("2.p0", 1))]
        assert [b.label for b in graph.boundaries] == ["C1", "C2", "D2", "D3"]
        code, out, _ = run_main(["verify", str(out_file)], capsys)
        assert code == 0 and "status: ok" in out

    def test_glue_writes_the_build_of_the_union_file(self, pants_file, tmp_path, capsys):
        # a pants glued onto port 3 of the second node of a two-node file
        # writes the rep file that maxrep build writes for the hand-written
        # union graph, byte for byte
        node = "node {}\n  X1\n  0.5\n  X2\n  0.5\n  X3\n  0.5\nend\n"
        edge = "edge {} {}\n  1.0\nend\n"
        lower = tmp_path / "d.mg"
        lower.write_text("maxrep-graph 1\nn 1\nsurface 0 4\n" + node.format("q0") + node.format("q1")
                         + edge.format("q0 3", "q1 1")
                         + "boundary q0 1 D1\nboundary q0 2 D2\nboundary q1 2 D3\nboundary q1 3 D4\n")
        union = tmp_path / "u.mg"
        union.write_text("maxrep-graph 1\nn 1\nsurface 0 5\n" + node.format("1.p0") + node.format("2.q0")
                         + node.format("2.q1") + edge.format("2.q0 3", "2.q1 1")
                         + edge.format("1.p0 3", "2.q1 3")
                         + "boundary 1.p0 1 C1\nboundary 1.p0 2 C2\nboundary 2.q0 1 D1\n"
                           "boundary 2.q0 2 D2\nboundary 2.q1 2 D3\n")
        tw = tmp_path / "t.mt"
        tw.write_text("1.0\n")
        glued, built = tmp_path / "glued.rep", tmp_path / "built.rep"
        code, _, _ = run_main(["glue", pants_file, "C3", str(lower), "D4", "--twist-file", str(tw),
                               "--out", str(glued)], capsys)
        assert code == 0
        code, _, _ = run_main(["build", str(union), "--out", str(built)], capsys)
        assert code == 0
        assert glued.read_bytes() == built.read_bytes()

    def test_deform(self, torus_file, tmp_path, capsys):
        # writing the path reads every snapshot
        out_file = str(tmp_path / "path.mgs")
        for steps in (5, 100):
            code, out, _ = run_main(
                ["deform", torus_file, "--steps", str(steps), "--out", out_file], capsys)
            assert code == 0
            assert f"snapshots: {steps + 1}" in out
            assert "signature: (+, +)" in out
            text = open(out_file).read()
            assert text.count("maxrep-graph 1") == steps + 1

    def test_limits(self, pants_file, tmp_path, capsys):
        out_file = str(tmp_path / "pts.ml")
        code, out, _ = run_main(
            ["limits", pants_file, "--max-word-length", "2", "--out", out_file], capsys)
        assert code == 0
        assert "transverse fraction: 1.000000" in out
        text = open(out_file).read()
        assert text.startswith("maxrep-limits 1")

    @pytest.mark.parametrize("length", ["0", "-1"])
    def test_limits_word_length_below_one(self, pants_file, capsys, length):
        # an empty sample would otherwise report "ok" and fraction 1.000000
        code, out, err = run_main(
            ["limits", pants_file, "--max-word-length", length], capsys)
        assert code == 2
        assert "max_word_length must be at least 1" in err
        assert "transverse fraction" not in out

    def test_limits_word_length_checked_before_the_build(self, tmp_path, capsys):
        # the 1e6-twist torus does not build (exit 4); a bad argument is
        # still reported as bad input
        f = tmp_path / "big_twist.mg"
        f.write_text(TORUS_FILE.replace("  1.0\nend", "  1000000.0\nend"))
        code, _, err = run_main(["limits", str(f), "--max-word-length", "0"], capsys)
        assert code == 2
        assert "max_word_length must be at least 1" in err

    def test_limits_with_every_word_skipped_refuses(self, tmp_path, capsys):
        f = tmp_path / "skipped.mg"
        f.write_text(SKIPPED_WORDS_FILE)
        code, out, err = run_main(["limits", str(f), "--max-word-length", "1"], capsys)
        assert code == 3
        assert "NotSHyperbolic: all 8 words up to length 1 were skipped" in err
        assert "transverse fraction" not in out

    def test_limits_with_every_word_skipped_is_staged(self, tmp_path, capsys):
        f = tmp_path / "skipped.mg"
        f.write_text(SKIPPED_WORDS_FILE)
        code, out, _ = run_main(["limits", str(f), "--max-word-length", "1", "--json"], capsys)
        assert code == 3
        data = json.loads(out)
        assert (data["stage"], data["measured"], data["bound"]) == ("sampled words", 0, 1)

    @pytest.mark.parametrize("command", ["build", "deform"])
    def test_negative_product_is_staged(self, tmp_path, capsys, command):
        # X3 X2^-T X1 = -0.5 is not positive: the build and the path check both
        # refuse it at the product spectrum, with its least eigenvalue
        f = tmp_path / "negative.mg"
        f.write_text(PANTS_FILE.replace("X2\n  0.5", "X2\n  -0.5"))
        code, out, _ = run_main([command, str(f), "--json"], capsys)
        assert code == 3
        data = json.loads(out)
        assert (data["error"], data["stage"], data["measured"]) == ("NotValid", "product spectrum", -0.5)

    def test_seed_on_limits_only(self, pants_file, capsys):
        # the limit-set sampler is the only randomized probe left
        runs = [run_main(["limits", pants_file, "--max-word-length", "2", "--seed", "3"], capsys)
                for _ in range(2)]
        assert runs[0][0] == 0 and runs[0] == runs[1]
        with pytest.raises(SystemExit) as exc:
            main(["build", pants_file, "--seed", "1"])
        assert exc.value.code == 2

    def test_numerical_breakdown_exit_code(self, tmp_path, capsys):
        # a near-singular length matrix is a numerical breakdown, distinct
        # from the mathematical refusals
        f = tmp_path / "singular.mg"
        f.write_text(
            "maxrep-graph 1\nn 2\nsurface 0 3\nnode p0\n  X1\n  0.5 0.0\n  0.0 1e-12\n"
            "  X2\n  0.5 0.0\n  0.0 0.5\n  X3\n  0.5 0.0\n  0.0 0.5\nend\n"
            "boundary p0 1 C1\nboundary p0 2 C2\nboundary p0 3 C3\n")
        code, _, err = run_main(["build", str(f)], capsys)
        assert code == 4
        assert "Singular" in err

    def test_tol_env_override(self, pants_file, capsys, monkeypatch):
        monkeypatch.setenv("MAXREP_TOL", "1e-6")
        code, _, _ = run_main(["build", pants_file], capsys)
        assert code == 0

    @pytest.mark.parametrize("value", ["inf", "-inf", "nan", "0", "-1e-9"])
    def test_tol_must_be_finite_and_positive(self, tmp_path, capsys, monkeypatch, value):
        # the default refuses this torus with NotCompatible; an infinite
        # tolerance used to pass that gate and break down later (exit 4)
        f = tmp_path / "torus.mg"
        f.write_text(TORUS_FILE.replace("  X3\n  0.5", "  X3\n  0.6"))
        code, _, err = run_main(["build", str(f)], capsys)
        assert code == 3 and "NotCompatible" in err
        code, _, err = run_main(["build", str(f), f"--tol={value}"], capsys)
        assert code == 2 and "finite and greater than 0" in err
        monkeypatch.setenv("MAXREP_TOL", value)
        code, _, err = run_main(["build", str(f)], capsys)
        assert code == 2 and "finite and greater than 0" in err

    def test_non_finite_conjugator_exit_code(self, tmp_path, capsys, monkeypatch):
        patch_nan_twist(monkeypatch)
        f = tmp_path / "chain.mg"
        with open(f, "w") as fh:
            write_graph_file(chain_graph(0, 4, 2, np.random.default_rng(5)), fh)
        code, _, err = run_main(["build", str(f)], capsys)
        assert code == 4
        assert "IllConditioned" in err and "Traceback" not in err

    def test_nan_declared_handle_length_exit_code(self, tmp_path, capsys, monkeypatch):
        # the build itself refuses a handle node whose X3 holds NaN, before
        # any report is formed
        import maxrep.cli
        f = tmp_path / "torus.mg"
        with open(f, "w") as fh:
            write_graph_file(chain_graph(1, 2, 2, np.random.default_rng(0)), fh)

        def nan_x3(*args, **kwargs):
            graph = parse_graph_file(*args, **kwargs)
            graph.nodes[0].params.X3[0, 0] = np.nan
            return graph
        monkeypatch.setattr(maxrep.cli, "parse_graph_file", nan_x3)
        monkeypatch.setattr(maxrep.cli, "_describe_build", lambda *args: pytest.fail("reported"))
        code, _, err = run_main(["build", str(f)], capsys)
        assert code == 4
        assert "IllConditioned" in err and "Traceback" not in err

    def test_deform_incompatible_twist(self, tmp_path, capsys):
        # deform does not build its input: the edge screen that a build runs
        # ahead of its Stein solves (_edge_screen) refuses the twist
        graph = chain_graph(0, 4, 2, np.random.default_rng(5))
        e = graph.edges[0]
        bad = GluingGraph(graph.nodes,
                          (GraphEdge(e.upper, e.lower, e.twist + 1e-3 * np.eye(2)),)
                          + graph.edges[1:], graph.boundaries)
        with pytest.raises(NotCompatible):
            deform_to_standard(bad, steps=5)
        f = tmp_path / "bad.mg"
        with open(f, "w") as fh:
            write_graph_file(bad, fh)
        code, _, err = run_main(["deform", str(f), "--steps", "5"], capsys)
        assert code == 3
        assert "NotCompatible" in err

    # a one-holed torus with X1 = X3 = x1, X2 = x2 and the given twist body;
    # deform does not build it, and refuses it with the class the build gives
    @pytest.mark.parametrize("x1, x2, twist, cls, code", [
        ("0.5", "0.5", "0.0", "Singular", 4),
        ("0.5", "0.5", "nan", "IllConditioned", 4),
        ("0.5", "0.0", "1.0", "Singular", 4),
        ("1.0", "0.5", "1.0", "CannotGlue", 3),
        # the twist element's products would overflow
        ("0.5", "0.5", "1e160", "IllConditioned", 4),
    ], ids=["singular-twist", "nan-twist", "singular-length", "unit-circle-length", "overflow-twist"])
    def test_deform_refuses_graph_as_build_does(self, tmp_path, capsys, monkeypatch, x1, x2, twist, cls, code):
        import maxrep.cli
        import maxrep.errors
        # graph files hold finite numbers only, so a NaN twist is set after parsing
        body = "1.0" if twist == "nan" else twist
        f = tmp_path / "torus.mg"
        f.write_text(TORUS_FILE.replace("  X1\n  0.5", f"  X1\n  {x1}").replace("  X3\n  0.5", f"  X3\n  {x1}")
                     .replace("  X2\n  0.5", f"  X2\n  {x2}").replace("  1.0\nend", f"  {body}\nend"))
        if twist == "nan":
            def nan_twist(*args, **kwargs):
                graph = parse_graph_file(*args, **kwargs)
                graph.edges[0].twist[0, 0] = np.nan
                return graph
            monkeypatch.setattr(maxrep.cli, "parse_graph_file", nan_twist)
        graph = maxrep.cli.parse_graph_file(str(f), False)
        for run in (build_from_graph, deform_to_standard):
            with pytest.raises(getattr(maxrep.errors, cls)):
                run(graph)
        for command in ("build", "deform"):
            got, _, err = run_main([command, str(f)], capsys)
            assert got == code
            assert cls in err and "Traceback" not in err

    def test_deform_zero_steps(self, torus_file, capsys):
        code, _, err = run_main(["deform", torus_file, "--steps", "0"], capsys)
        assert code == 2
        assert "steps must be at least 1" in err


REP_FILE = "maxrep-rep 1\nn 1\nsurface 0 1\n"


class TestMalformedFiles:
    """A directive with a missing value is a parse error naming its line."""

    @pytest.mark.parametrize("old, new, line", [
        ("n 1\n", "n\n", 3),
        ("surface 0 3\n", "surface\n", 4),
        ("surface 0 3\n", "surface 0\n", 4),
        ("surface 0 3\n", "surface 0 3\ntol\n", 5),
        ("surface 0 3\n", "surface 0 3\nseed\n", 5),
        ("n 1\n", "n one\n", 3),
        ("surface 0 3\n", "surface 0 3\nn 1\n", 5),
    ])
    def test_graph_file(self, tmp_path, capsys, old, new, line):
        f = tmp_path / "bad.mg"
        f.write_text("# header comment\n" + PANTS_FILE.replace(old, new))
        code, _, err = run_main(["build", str(f)], capsys)
        assert code == 2
        assert f"(line {line})" in err

    # tolerance and seed come from --tol, MAXREP_TOL and --seed only
    @pytest.mark.parametrize("directive", ["tol 1e-6", "tol inf", "tol 0", "seed 3"])
    def test_tol_seed_directives_rejected(self, tmp_path, capsys, directive):
        f = tmp_path / "bad.mg"
        f.write_text(PANTS_FILE.replace("surface 0 3\n", f"surface 0 3\n{directive}\n"))
        code, _, err = run_main(["build", str(f)], capsys)
        assert code == 2
        assert "unknown directive" in err and "(line 4)" in err

    @pytest.mark.parametrize("old, new, line", [
        ("n 1\n", "n\n", 2),
        ("surface 0 1\n", "surface\n", 3),
        ("surface 0 1\n", "surface 0 1\ngenerator\n", 4),
        ("surface 0 1\n", "surface -1 -1\n", 3),
    ])
    def test_rep_file(self, tmp_path, capsys, old, new, line):
        f = tmp_path / "bad.mr"
        f.write_text(REP_FILE.replace(old, new))
        code, _, err = run_main(["verify", str(f)], capsys)
        assert code == 2
        assert f"(line {line})" in err

    def test_rep_file_missing_generator(self, tmp_path, capsys):
        f = tmp_path / "bad.mr"
        f.write_text("maxrep-rep 1\nn 1\nsurface 1 0\n"
                     "generator B1\n  1.0 0.0\n  0.0 1.0\nend\n")
        code, _, err = run_main(["verify", str(f)], capsys)
        assert code == 2
        assert "lacks generators A1" in err

    def test_points_file(self, tmp_path, capsys):
        f = tmp_path / "bad.mp"
        f.write_text(POINTS_FILE.replace("n 2\n", "n\n"))
        code, _, err = run_main(["maslov", str(f)], capsys)
        assert code == 2
        assert "(line 2)" in err

    # every other parse error of the readers, each with its line where it has one
    @pytest.mark.parametrize("command, name, text, message", [
        ("build", "bad.mg", PANTS_FILE.replace("n 1\n", ""), "'n' must come before nodes (line 3)"),
        ("build", "bad.mg", PANTS_FILE.replace("surface 0 3", "surface 1 1"),
         "declared surface (1, 1) but graph has type (0, 3)"),
        ("verify", "bad.mr", "maxrep-rep 1\nn 1\n", "rep file must declare n and surface"),
        ("maslov", "bad.mp", POINTS_FILE.replace("point identity", "point origin"),
         "unknown named point 'origin' (line 4)"),
        ("maslov", "bad.mp", POINTS_FILE.replace("point inf\n", ""), "need exactly three points, got 2"),
    ])
    def test_reader_errors(self, tmp_path, capsys, command, name, text, message):
        f = tmp_path / name
        f.write_text(text)
        code, out, err = run_main([command, str(f)], capsys)
        assert code == 2 and out == ""
        assert err == f"error: {message}\n"

    def test_points_of_two_sizes(self, tmp_path, capsys):
        f = tmp_path / "bad.mp"
        f.write_text(POINTS_FILE.replace("point identity\n", "n 1\npoint identity\n"))
        code, _, err = run_main(["maslov", str(f)], capsys)
        assert code == 2
        assert "'n' may be given only once (line 4)" in err


class TestModuleEntryPoint:
    def test_python_dash_m(self, pants_file):
        # the child imports the package this session imported, also when
        # pytest put src/ on sys.path itself (pytest.ini's pythonpath)
        src = os.path.dirname(os.path.dirname(maxrep.__file__))
        path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
        proc = subprocess.run(
            [sys.executable, "-m", "maxrep", "toledo", pants_file],
            capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path))
        assert proc.returncode == 0
        assert "T: 1" in proc.stdout


class TestGraphFileRoundTrip:
    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=0, max_value=2 ** 31 - 1))
    def test_write_parse_identity(self, tmp_path_factory, seed):
        # serialized graphs parse back to bit-identical matrices
        rng = np.random.default_rng(seed)
        graph = standard_sign_graph(1, 2, 2, tuple(rng.choice([-1, 1], size=3))
                                    if False else (1, -1, 1))
        # vary the entries so serialization sees non-trivial floats
        from maxrep.gluing import GluingGraph, PantsNode
        from maxrep.pants import PantsParams
        jitter = rng.uniform(0.9, 1.1)
        p0 = graph.nodes[0].params
        nodes = (PantsNode("p0", PantsParams(p0.X1 * jitter, p0.X2, p0.X3 * jitter)),) \
            + graph.nodes[1:]
        graph = GluingGraph(nodes, graph.edges, graph.boundaries)
        path = tmp_path_factory.mktemp("g") / "g.mg"
        with open(path, "w") as fh:
            write_graph_file(graph, fh)
        parsed = parse_graph_file(str(path), strict=True)
        for nd0, nd1 in zip(graph.nodes, parsed.nodes):
            for a, b in zip(nd0.params.matrices(), nd1.params.matrices()):
                assert np.array_equal(a, b)
        for e0, e1 in zip(graph.edges, parsed.edges):
            assert np.array_equal(np.asarray(e0.twist), np.asarray(e1.twist))


class TestExitBoundary:
    """main turns parse errors, refusals and breakdowns into exit codes 2, 3
    and 4; any other exception is a fault of the program and escapes."""

    def test_linalg_error_is_not_a_parse_error(self, pants_file, monkeypatch):
        def broken(*args, **kwargs):
            raise np.linalg.LinAlgError("internal fault")

        monkeypatch.setattr(maxrep.cli, "build_from_graph", broken)
        with pytest.raises(np.linalg.LinAlgError):
            main(["build", pants_file])

    @pytest.mark.parametrize("labels, message", [
        (("NOPE", "D1"), "pants.mg has no boundary labelled 'NOPE'"),
        (("C3", "NOPE"), "pants2.mg has no boundary labelled 'NOPE'"),
        (("C3", "C1"), "boundary labels collide: ['C2']"),
    ])
    def test_glue_labels(self, pants_file, tmp_path, capsys, labels, message):
        other = tmp_path / "pants2.mg"
        other.write_text(PANTS_FILE.replace("C", "D") if labels[1] != "C1" else PANTS_FILE)
        tw = tmp_path / "twist.mt"
        tw.write_text("1.0\n")
        code, out, err = run_main(
            ["glue", pants_file, labels[0], str(other), labels[1], "--twist-file", str(tw)],
            capsys)
        assert code == 2 and out == ""
        assert message in err and "Traceback" not in err

    def test_glue_files_of_different_n(self, pants_file, tmp_path, capsys):
        other = tmp_path / "pants2.mg"
        other.write_text(PANTS_FILE.replace("C", "D").replace("n 1\n", "n 2\n")
                         .replace("  0.5\n", "  0.5 0\n  0 0.5\n"))
        tw = tmp_path / "twist.mt"
        tw.write_text("1.0\n")
        code, out, err = run_main(
            ["glue", pants_file, "C3", str(other), "D1", "--twist-file", str(tw)], capsys)
        assert code == 2 and out == ""
        assert f"cannot glue files of different n: {pants_file} has n 1, {other} has n 2" in err

    def test_glue_label_checked_before_any_build(self, pants_file, tmp_path, capsys):
        # the torus's singular twist would refuse its build (exit 4), but the
        # label the file lacks is bad input and is found first
        torus = tmp_path / "torus.mg"
        torus.write_text(TORUS_FILE.replace("  1.0\nend", "  0.0\nend"))
        tw = tmp_path / "twist.mt"
        tw.write_text("1.0\n")
        code, out, err = run_main(
            ["glue", str(torus), "NOPE", pants_file, "C1", "--twist-file", str(tw)], capsys)
        assert code == 2 and out == ""
        assert "torus.mg has no boundary labelled 'NOPE'" in err

    def test_twist_file_with_extra_rows(self, pants_file, tmp_path, capsys):
        other = tmp_path / "pants2.mg"
        other.write_text(PANTS_FILE.replace("C", "D"))
        tw = tmp_path / "twist.mt"
        tw.write_text("1.0\n2.0\n")
        code, out, err = run_main(
            ["glue", pants_file, "C3", str(other), "D1", "--twist-file", str(tw)], capsys)
        assert code == 2 and out == ""
        assert "expected end of file after the twist matrix (line 2)" in err

    def test_tol_env_not_a_number(self, pants_file, capsys, monkeypatch):
        monkeypatch.setenv("MAXREP_TOL", "abc")
        code, _, err = run_main(["build", pants_file], capsys)
        assert code == 2
        assert "MAXREP_TOL must be a number, got 'abc'" in err

    def test_points_file_not_symmetric(self, tmp_path, capsys):
        f = tmp_path / "pts.mp"
        f.write_text("maxrep-points 1\nn 2\npoint zero\npoint\n  1.0 0.5\n  0.4 -1.0\n"
                     "point inf\n")
        code, _, err = run_main(["maslov", str(f)], capsys)
        assert code == 2
        assert "not symmetric" in err and "(line 4)" in err

    def test_port_not_a_number(self, torus_file, tmp_path, capsys):
        f = tmp_path / "bad.mg"
        f.write_text(TORUS_FILE.replace("edge p0 3 p0 1", "edge p0 x p0 1"))
        code, _, err = run_main(["build", str(f)], capsys)
        assert code == 2
        assert "bad value for 'edge': 'p0 x p0 1' (line 13)" in err

    def test_n_below_one(self, tmp_path, capsys):
        f = tmp_path / "bad.mg"
        f.write_text(PANTS_FILE.replace("n 1\n", "n 0\n"))
        code, _, err = run_main(["build", str(f)], capsys)
        assert code == 2
        assert "'n' must be at least 1 (line 2)" in err

    def test_singular_handle_twist(self, tmp_path, capsys):
        f = tmp_path / "bad.mg"
        f.write_text(TORUS_FILE.replace("  1.0\nend", "  0.0\nend"))
        code, _, err = run_main(["build", str(f)], capsys)
        assert code == 4
        assert "Singular: twist parameter is singular" in err and "Traceback" not in err

    def test_singular_twist_on_self_edge_listed_from_port_1(self, tmp_path, capsys):
        # read from port 1 the twist is inverted; an exactly singular one has
        # no inverse and is refused as singular all the same
        f = tmp_path / "bad.mg"
        f.write_text(TORUS_FILE.replace("edge p0 3 p0 1", "edge p0 1 p0 3").replace("  1.0\nend", "  0.0\nend"))
        code, _, err = run_main(["build", str(f)], capsys)
        assert code == 4
        assert "Singular: twist parameter is singular" in err and "Traceback" not in err

    def test_components_of_closed_surface_refused(self, tmp_path, capsys):
        # two handles glued along their remaining boundaries: genus 2, m = 0
        x1, x2, h = random_handle_data(1, np.random.default_rng(0))
        x3 = h @ x1.T @ np.linalg.inv(h)
        hi = np.linalg.inv(h)
        graph = GluingGraph(
            (PantsNode("p0", PantsParams(x1, x2, x3)),
             PantsNode("p1", PantsParams(x3.T, x2.T, hi @ x3 @ h))),
            (GraphEdge(("p0", 3), ("p0", 1), h), GraphEdge(("p1", 3), ("p1", 1), hi),
             GraphEdge(("p0", 2), ("p1", 2), np.eye(1))), ())
        f = tmp_path / "closed.mg"
        with open(f, "w") as fh:
            write_graph_file(graph, fh)
        code, _, _ = run_main(["build", str(f)], capsys)
        assert code == 0
        code, out, err = run_main(["components", str(f)], capsys)
        assert code == 3 and out == ""
        assert "GraphInvalid: component signatures are defined for surfaces with boundary" in err

    def test_missing_file(self, tmp_path, capsys):
        missing = str(tmp_path / "missing.mr")
        code, _, err = run_main(["verify", missing], capsys)
        assert code == 2
        assert f"cannot read {missing}" in err

    def test_out_written_before_report(self, pants_file, tmp_path, capsys):
        code, out, err = run_main(
            ["build", pants_file, "--out", str(tmp_path / "no" / "rep.mr")], capsys)
        assert code == 2 and out == ""
        assert "No such file or directory" in err


class TestExitCodeFuzz:
    """Seeded mutations of graph, rep and points files.

    Each mutation scales, zeroes or perturbs one matrix entry, puts a
    non-number in its place, or drops one token of any line.  Every run
    exits 0, 2, 3 or 4 with no exception or warning escaping main, and exits
    2 exactly when the parser rejects the file.
    """

    COMMANDS = {
        "graph": [["build"], ["components"], ["deform", "--steps", "10"],
                  ["limits", "--max-word-length", "2"], ["toledo"]],
        "rep": [["verify"]],
        "points": [["maslov"]],
    }
    PARSERS = {"graph": parse_graph_file, "rep": parse_rep_file, "points": parse_points_file}

    @staticmethod
    def base_files():
        files = []
        for k, (g, m, n) in enumerate([(0, 3, 1), (1, 1, 1), (0, 4, 1), (1, 2, 1),
                                       (0, 3, 2), (1, 1, 2), (0, 4, 2), (1, 2, 2)]):
            graph = chain_graph(g, m, n, np.random.default_rng(k))
            for kind, write, obj in (("graph", write_graph_file, graph),
                                     ("rep", write_rep_file, build_from_graph(graph))):
                buf = io.StringIO()
                write(obj, buf)
                files.append((kind, buf.getvalue()))
        def rows(m):
            return "".join("  " + " ".join(map(repr, r)) + "\n" for r in m.tolist())

        rng = np.random.default_rng(9)
        for n in (1, 2, 3):
            s = rng.normal(size=(n, n))
            files.append(("points", f"maxrep-points 1\nn {n}\npoint zero\npoint\n"
                                    f"{rows(s + s.T)}point identity\n"))
            files.append(("points", f"maxrep-points 1\nn {n}\npoint\n{rows(-np.eye(n))}"
                                    f"point\n{rows(2 * np.eye(n))}point inf\n"))
        return files

    @staticmethod
    def mutate(text, rng):
        def numeric(line):
            try:
                return [float(t) for t in line.split()] != []
            except ValueError:
                return False

        lines = text.split("\n")
        op = int(rng.integers(5))
        rows = [i for i, line in enumerate(lines) if (line.strip() if op == 4 else numeric(line))]
        i = int(rng.choice(rows))
        toks = lines[i].split()
        j = int(rng.integers(len(toks)))
        if op == 0:
            toks[j] = repr(float(toks[j]) * 10.0 ** rng.choice([-300, -12, -6, 6, 12, 300]))
        elif op == 1:
            toks[j] = "0.0"
        elif op == 2:
            toks[j] = repr(float(toks[j]) * (1 + 1e-3 * rng.normal()))
        elif op == 3:
            toks[j] = str(rng.choice(["fish", "1e", "0,5", "+-1"]))
        else:
            del toks[j]
        lines[i] = "  " + " ".join(toks)
        return "\n".join(lines)

    def rejected(self, kind, path):
        try:
            parsed = self.PARSERS[kind](path)
        except ParseError:
            return True
        except MaxRepError:
            return False
        return kind == "points" and len(parsed[1]) != 3

    def test_exit_codes(self, tmp_path, capsys):
        rng = np.random.default_rng(0)
        bases = self.base_files()
        seen, wrong = set(), []
        for r in range(120):
            kind, text = bases[r % len(bases)]
            path = tmp_path / f"f{r}.{kind}"
            path.write_text(self.mutate(text, rng))
            rejected = self.rejected(kind, str(path))
            for command in self.COMMANDS[kind]:
                argv = [command[0], str(path), *command[1:]]
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    code = main(argv)
                capsys.readouterr()
                seen.add(code)
                if code not in (0, 2, 3, 4) or (code == 2) != rejected:
                    wrong.append((argv, code, rejected, path.read_text()))
        assert not wrong, wrong[0]
        assert seen == {0, 2, 3, 4}
