import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import maxrep
from maxrep.cli import main, parse_graph_file, write_graph_file
from maxrep.deform import deform_to_standard, standard_sign_graph
from maxrep.errors import NotCompatible
from maxrep.gluing import GluingGraph, GraphEdge
from tests_support import chain_graph, patch_nan_twist

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

    def test_deform(self, torus_file, tmp_path, capsys):
        out_file = str(tmp_path / "path.mgs")
        code, out, _ = run_main(
            ["deform", torus_file, "--steps", "5", "--out", out_file], capsys)
        assert code == 0
        assert "snapshots: 6" in out
        assert "signature: (+, +)" in out
        text = open(out_file).read()
        assert text.count("maxrep-graph 1") == 6

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
        # the default refuses this torus with CannotGlue; an infinite
        # tolerance used to pass that gate and break down later (exit 4)
        f = tmp_path / "torus.mg"
        f.write_text(TORUS_FILE.replace("  X3\n  0.5", "  X3\n  0.6"))
        code, _, err = run_main(["build", str(f)], capsys)
        assert code == 3 and "CannotGlue" in err
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

    def test_deform_incompatible_twist(self, tmp_path, capsys):
        # deform builds its input to check edge compatibility; without that
        # the path would start from rebuilt lengths, not from the input
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
