"""Every numerical refusal in the library names its stage, measured value and bound."""

import ast
import pathlib

import numpy as np
import pytest

import maxrep
import maxrep.errors as errors
from maxrep.deform import deform_to_standard
from maxrep.errors import NotSHyperbolic, NotValid, Slices
from maxrep.gluing import (
    GluingGraph,
    GraphBoundary,
    PantsNode,
    _det_sign,
    build_from_graph,
    can_glue,
    pants_surface_rep,
)
from maxrep.limits import limit_set_sample
from maxrep.matcore import DEFAULT_TOL
from maxrep.normalform import _ATTRACT_MARGIN, _attracting, attracting_point
from maxrep.pants import PantsParams
from maxrep.symplectic import diag_symplectic

SRC = pathlib.Path(maxrep.__file__).parent
FIELDS = ("stage", "measured", "bound")


def _refusal_classes() -> set[str]:
    """Names of every MaxRepError subclass, GraphInvalid (structural) excepted."""
    found, todo = set(), [errors.MaxRepError]
    while todo:
        for sub in todo.pop().__subclasses__():
            found.add(sub.__name__)
            todo.append(sub)
    return found - {"GraphInvalid"}


def unstaged_refusals(src: pathlib.Path) -> list[str]:
    """file:line of each construction of a refusal class in src that does not pass
    stage, measured and bound: positionally after the message, as a starred
    tuple or by keyword; a refusal class raised bare counts too."""
    names, out = _refusal_classes(), []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Name) and node.exc.id in names:
                out.append(f"{path.name}:{node.lineno}")
            if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id in names):
                continue
            if any(isinstance(a, ast.Starred) for a in node.args) or any(k.arg is None for k in node.keywords):
                continue
            given = set(FIELDS[:max(0, len(node.args) - 1)]) | {k.arg for k in node.keywords}
            if not set(FIELDS) <= given:
                out.append(f"{path.name}:{node.lineno}")
    return sorted(out, key=lambda site: (site.split(":")[0], int(site.split(":")[1])))


def test_every_numerical_refusal_is_staged():
    assert unstaged_refusals(SRC) == []


def test_scan_sees_each_way_of_passing_the_fields(tmp_path):
    (tmp_path / "m.py").write_text(
        "NotValid('a', 's', 1.0, 2.0)\nNotValid('a', *fields)\n"
        "NotValid('a', stage='s', measured=1.0, bound=2.0)\nGraphInvalid('a')\n"
        "NotValid('a')\nIllConditioned('a', 's', 1.0)\nraise NotMaximal\n")
    assert unstaged_refusals(tmp_path) == ["m.py:5", "m.py:6", "m.py:7"]


def _one_node(x1, x2, x3) -> GluingGraph:
    params = PantsParams(*(np.array([[v]]) for v in (x1, x2, x3)))
    return GluingGraph((PantsNode("p0", params),), (),
                       tuple(GraphBoundary(("p0", k), f"C{k}") for k in (1, 2, 3)))


@pytest.mark.parametrize("run", [build_from_graph, deform_to_standard])
def test_negative_product_is_staged(run):
    # X3 X2^-T X1 = -0.5: the product spectrum decides NOT_VALID for the build
    # and for the path check alike
    with pytest.raises(NotValid) as info:
        run(_one_node(0.5, -0.5, 0.5))
    assert (info.value.stage, info.value.measured, info.value.bound) == ("product spectrum", -0.5,
                                                                         DEFAULT_TOL.eq_tol)


def test_length_outside_the_disc_is_staged():
    # a positive product with |X1| = 2: IN_TILDE_R, which the path refuses
    with pytest.raises(NotValid, match="snapshot 0 leaves the valid cone") as info:
        deform_to_standard(_one_node(2.0, 1.0, 0.25))
    assert (info.value.stage, info.value.measured, info.value.bound) == (
        "length spectrum", 2.0, 1.0 + DEFAULT_TOL.unit_circle_band)


def test_gluing_refusals_are_staged():
    with pytest.raises(NotValid) as info:
        can_glue(np.array([[0.5]]), np.array([[-1.5]]))
    assert (info.value.stage, info.value.measured, info.value.bound) == (
        "length spectrum", 1.5, 1.0 + DEFAULT_TOL.unit_circle_band)
    with pytest.raises(NotValid) as info:
        _det_sign(np.zeros((2, 2)), "handle twist")
    assert (info.value.stage, info.value.measured, info.value.bound) == ("determinant sign", 0.0, 0.0)


def test_unit_modulus_boundary_is_staged():
    th = 0.4
    x3 = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
    rep = pants_surface_rep(PantsParams(0.5 * x3.T, 0.5 * np.eye(2), x3))
    with pytest.raises(NotSHyperbolic, match="unit-modulus spectrum") as info:
        limit_set_sample(rep, max_word_length=2)
    assert info.value.stage == "unit-circle obstruction"
    assert 0.0 <= info.value.measured <= info.value.bound == DEFAULT_TOL.unit_circle_band


def test_attracting_refusals_are_staged():
    # a fixed point whose differential does not contract, through attracting_point
    with pytest.raises(NotSHyperbolic) as info:
        attracting_point(diag_symplectic(np.diag([-2.0, 0.5])))
    limit = 1.0 - max(DEFAULT_TOL.unit_circle_band, _ATTRACT_MARGIN)
    assert (info.value.stage, info.value.measured, info.value.bound) == ("differential spectral radius", 2.0, limit)
    # the kernel's three verdicts: a moved point, an untrusted one, a contracting fixed one
    points = Slices(3).finish(np.zeros((3, 1, 1)))
    _attracting(points, np.array([1.0, 0.0, 0.0]), np.full(3, 0.5), np.full(3, 0.25), DEFAULT_TOL,
                np.array([True, False, True]))
    assert [(f.stage, f.measured, f.bound) for f in points.refusals[:2]] == [
        ("fixed-point displacement", 1.0, 0.5), ("fixed-point displacement", 0.0, 0.5)]
    assert points.refusals[2] is None and points.live == [2]
