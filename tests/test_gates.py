"""The one residual gate (errors.gate) and every check that refuses through it."""

import copy

import numpy as np
import pytest

import maxrep.gluing as gluing
import maxrep.matcore as matcore
import maxrep.normalform as normalform
import maxrep.pants as pants
import maxrep.symplectic as symplectic
from maxrep.cli import main, write_rep_file
from maxrep.deform import enumerate_standard_graphs, standard_sign_graph
from maxrep.errors import (
    IllConditioned,
    NotCompatible,
    NotFixed,
    NotValid,
    NumericalBreakdown,
    Slices,
    gate,
)
from maxrep.gluing import build_from_graph, close_handle, pants_surface_rep
from maxrep.matcore import DEFAULT_TOL
from maxrep.normalform import StandardBoundary, differential_at
from maxrep.pants import GeneralPantsParams, PantsParams, build_general
from maxrep.symplectic import BoundaryPoint, moebius_act, sp_identity


class TestGate:
    def test_classes(self):
        # within the band; above it and above the floor 2 * 2 * 2^-53 * 1e8^2
        # = 4.4e-16 * 1e16 = 4.4; above the band at or below that floor; not finite
        big = np.array([[1e8, 0.0], [0.0, 1.0]])
        got = gate("stage", [1e-3, 10.0, 1.0, np.nan, np.inf], 1e-2, NotValid, "defect {:.1e}", (big, big))
        assert got[0] is None
        assert type(got[1]) is NotValid and str(got[1]) == "defect 1.0e+01"
        assert type(got[2]) is IllConditioned and str(got[2]).startswith("defect 1.0e+00, at or below")
        assert [type(f) for f in got[3:]] == [IllConditioned] * 2
        assert str(got[3]) == "stage nan is not finite"

    def test_fields_and_one_value(self):
        fault = gate("twist defect", 2.0, 1.0, NotCompatible, "defect {:.1f}")
        assert (fault.stage, fault.measured, fault.bound) == ("twist defect", 2.0, 1.0)
        assert str(fault) == "defect 2.0"
        assert gate("twist defect", 0.5, 1.0, NotCompatible, "defect {:.1f}") is None
        # one message per slice, and a refusal read back from a Slices keeps its fields
        out = Slices(2)
        out.refuse(gate("s", [3.0, 0.0], [1.0, 1.0], NotCompatible, ["first {:.0f}", "second {:.0f}"]))
        with pytest.raises(NotCompatible, match="first 3") as exc:
            out[0]
        assert (exc.value.stage, exc.value.measured, exc.value.bound) == ("s", 3.0, 1.0)
        assert copy.copy(exc.value).stage == "s"

    def test_overflowing_factors_give_breakdown(self):
        huge = np.full((2, 2), 1e300)
        assert type(gate("s", 1e10, 1.0, NotValid, "{}", (huge, huge))) is IllConditioned


class TestSlicesFinish:
    """finish spreads the live slices' values over the whole stack: an array
    stack with zeros at refused slices, a list stack with None there."""

    @staticmethod
    def _refused(k, refused):
        out = Slices(k)
        out.refuse([NotValid(f"slice {i}") if i in refused else None for i in range(k)])
        return out

    @pytest.mark.parametrize("dtype", [float, bool, np.intp, np.longdouble])
    @pytest.mark.parametrize("refused", [{0}, {3}, {6}, {0, 3, 6}])
    def test_array_stack_matches_per_slice(self, dtype, refused):
        k = 7
        out = self._refused(k, refused)
        values = np.random.default_rng(k).standard_normal((len(out.live), 2, 3)).astype(dtype)
        want = np.zeros((k, 2, 3), dtype)
        for j, i in enumerate(out.live):
            want[i] = values[j]
        out.finish(values)
        assert (out.values.dtype, out.values.shape) == (want.dtype, want.shape)
        assert np.array_equal(out.values, want)
        for i in range(k):
            if i in refused:
                with pytest.raises(NotValid, match=f"slice {i}"):
                    out[i]
            else:
                assert np.array_equal(out[i], values[out.live.index(i)])

    def test_list_stack(self):
        out = self._refused(5, {0, 2, 4})
        values = ["b", "d"]
        assert out.finish(values).values == [None, "b", None, "d", None]

    def test_every_slice_refused(self):
        out = self._refused(3, {0, 1, 2})
        out.finish(np.zeros((0, 2), np.intp))
        assert (out.values.dtype, out.values.shape) == (np.intp, (3, 2)) and not out.values.any()
        assert self._refused(3, {0, 1, 2}).finish([]).values == [None] * 3

    def test_nothing_refused_keeps_the_stack(self):
        values = np.arange(6.0).reshape(3, 2)
        assert Slices(3).finish(values).values is values


def _nan_first(monkeypatch, module, stage):
    """Make gate see a NaN as the first measured value of stage, in module."""
    real = module.gate

    def patched(name, measured, *args, **kwargs):
        if name == stage:
            measured = np.array(measured, dtype=float)
            measured.flat[0] = np.nan
        return real(name, measured, *args, **kwargs)

    monkeypatch.setattr(module, "gate", patched)


def _pair(m):
    return np.array([m, m], dtype=float)


_EYE, _ZERO, _HALF = np.eye(2), np.zeros((2, 2)), 0.5 * np.eye(2)
_LENGTHS = _pair([_HALF, _HALF, _HALF])
_TOL = DEFAULT_TOL


# each stacked gate: (module, stage, the kernel's refusals on a two-slice stack)
_STACKED = {
    "make_symplectics": (symplectic, "block-relation defect", lambda: symplectic._make_symplectics(
        _pair(_EYE), _pair(_ZERO), _pair(_ZERO), _pair(_EYE), _TOL).refusals),
    "assemble_reps": (pants, "group relation residual",
                      lambda: pants._build_maximal_stack(_LENGTHS, _TOL)[2].refusals),
    "check_stack": (pants, "product asymmetry", lambda: pants._check_stack(_LENGTHS, _TOL)[0].refusals),
    "stein_solves": (matcore, "Stein residual",
                     lambda: matcore._stein_solves(_pair(_HALF), _pair(-_EYE), _TOL).refusals),
    "twist_elements": (gluing, "twist conjugation residual", lambda: gluing._twist_elements(
        _pair(_HALF), _pair(_EYE), _pair(_HALF), _pair(_EYE), _pair(_EYE), _TOL).refusals),
    "edge_screen": (gluing, "twist defect",
                    lambda: gluing._edge_screen(_pair(_EYE), _pair(_HALF), _pair(_HALF), _TOL).refusals),
}


@pytest.mark.parametrize("site", sorted(_STACKED))
def test_nan_refuses_its_slice_alone(site, monkeypatch):
    module, stage, run = _STACKED[site]
    assert run() == [None, None]
    _nan_first(monkeypatch, module, stage)
    first, second = run()
    assert type(first) is IllConditioned and first.stage == stage and second is None


def _verify_status(path, capsys):
    capsys.readouterr()
    assert main(["verify", str(path)]) == 0
    return capsys.readouterr().out.splitlines()[-1]


# each one-slice gate: (module, stage, a call that passes the gate)
_SINGLE = {
    "surface_fault": (gluing, "surface relation residual",
                      lambda: pants_surface_rep(PantsParams(0.5, 0.5, 0.5))),
    "moebius_act": (symplectic, "action result asymmetry",
                    lambda: moebius_act(sp_identity(2), BoundaryPoint(_EYE))),
    "require_fixed": (normalform, "fixed-point displacement", lambda: differential_at(
        StandardBoundary(_HALF, _EYE).element(), BoundaryPoint(_ZERO))),
    "build_general": (pants, "product asymmetry",
                      lambda: build_general(GeneralPantsParams(1, _HALF, _HALF, _HALF))),
}


@pytest.mark.parametrize("site", sorted(_SINGLE))
def test_nan_refused_in_one_slice_code(site, monkeypatch):
    module, stage, run = _SINGLE[site]
    run()
    _nan_first(monkeypatch, module, stage)
    with pytest.raises(IllConditioned) as exc:
        run()
    assert exc.value.stage == stage


def test_nan_relation_makes_verify_suspect(tmp_path, capsys, monkeypatch):
    f = tmp_path / "pants.mr"
    with open(f, "w") as fh:
        write_rep_file(pants_surface_rep(PantsParams(0.5, 0.5, 0.5)), fh)
    assert _verify_status(f, capsys) == "status: ok"
    _nan_first(monkeypatch, gluing, "surface relation residual")
    assert _verify_status(f, capsys) == "status: suspect"


def test_not_fixed_stays_a_refusal():
    # a point the element moves, finitely or to infinity, is not fixed: the
    # mathematical refusal, not a breakdown
    sb = StandardBoundary(_HALF, _EYE)
    for y in (37.0 * np.eye(2), -0.8 * np.eye(2)):
        with pytest.raises(NotFixed):
            differential_at(sb.element(), BoundaryPoint(y))


def test_large_handle_twists_are_breakdowns():
    # an n = 1 twist always fits; from 1e4 on the products lose the digits
    # that decide, so each twist builds or is a numerical breakdown
    outcomes = set()
    for e in np.arange(4.0, 160.001, 0.25):
        try:
            close_handle([[0.5]], [[0.5]], [[10.0 ** e]])
            outcomes.add("built")
        except NumericalBreakdown as exc:
            outcomes.add(exc.stage)
    assert "twist conjugation residual" in outcomes and "built" in outcomes


def test_standard_representatives_build_or_are_refused():
    # every standard representative up to (0, 7) and (1, 4) builds; longer
    # chains grow their entries until the relation residual passes 1e-6
    for kind in [(0, m) for m in range(3, 8)] + [(1, m) for m in range(1, 5)]:
        for n in (1, 2, 3):
            for _, graph in enumerate_standard_graphs(*kind, n):
                assert build_from_graph(graph).relation_residual <= 1e-6
    for kind in ((0, 8), (0, 10), (0, 12), (1, 6)):
        with pytest.raises(IllConditioned, match="surface relation residual") as exc:
            build_from_graph(standard_sign_graph(*kind, 2, (1,) * (2 * kind[0] + kind[1] - 1)))
        assert exc.value.measured > exc.value.bound == 1e3 * DEFAULT_TOL.eq_tol
