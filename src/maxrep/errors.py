"""Exception hierarchy and the one residual gate.

Every failure mode a caller can act on gets its own class.  The CLI maps
subclasses of :class:`MathematicalRefusal` to exit code 3 (the input is
well-formed but the requested construction does not exist) and subclasses of
:class:`NumericalBreakdown` to exit code 4 (the construction may exist but
floating point could not decide safely).
"""

import copy

import numpy as np


class MaxRepError(Exception):
    """Base class for all library errors; gate's refusals name stage, measured and bound."""

    def __init__(self, message: str = "", stage=None, measured=None, bound=None):
        super().__init__(message)
        self.stage, self.measured, self.bound = stage, measured, bound


class MathematicalRefusal(MaxRepError):
    """The requested object does not exist for these inputs."""


class NumericalBreakdown(MaxRepError):
    """Floating point tolerance bands were violated; result withheld."""


# -- refusals ---------------------------------------------------------------

class NotSymplectic(MathematicalRefusal):
    """Block relations of the symplectic group fail beyond tolerance."""


class NotTransverse(MathematicalRefusal):
    """Boundary points are not transverse."""


class NotMaximal(MathematicalRefusal):
    """A triple or representation fails maximality."""


class NotFixed(MathematicalRefusal):
    """A point claimed fixed is not fixed by the given element."""


class NotValid(MathematicalRefusal):
    """Parameters violate the membership conditions of the parameter space."""


class NotContracting(MathematicalRefusal):
    """A matrix required to have spectrum inside the unit disc does not."""


class NotCompatible(MathematicalRefusal):
    """Twist compatibility (conjugacy of transposed lengths) fails."""


class CannotGlue(MathematicalRefusal):
    """Gluing condition fails along an edge."""


class GraphInvalid(MathematicalRefusal):
    """A gluing graph violates structural invariants."""


class NotSHyperbolic(MathematicalRefusal):
    """An element required to have a transverse fixed-point pair does not."""


# -- numerical breakdowns ---------------------------------------------------

class Singular(NumericalBreakdown):
    """Determinant within tolerance of zero."""


class NearSingular(NumericalBreakdown):
    """A symmetric spectrum has an eigenvalue inside the zero band."""


class ResonantSpectrum(NumericalBreakdown):
    """Eigenvalue products hit 1: the linear matrix equation is ill posed."""


class IllConditioned(NumericalBreakdown):
    """A result falls into the ambiguous band between finite and infinite,
    or a computation overflowed to NaN or Inf."""


class NoCanonicalFixedPoint(NumericalBreakdown):
    """No canonical fixed point could be computed for this element."""


class DefectiveSplit(NumericalBreakdown):
    """Spectral splitting along the unit circle is too unstable to trust."""


def gate(stage: str, measured, band, refusal: type, message, factors=()):
    """None for a measured value within its band, else its refusal: IllConditioned
    when the value is not finite or at most the rounding floor k d u prod(max|F_i|)
    of the product F_1 ... F_k of factors, (d x d) matrices or stacks, u = 2^-53
    (Higham, Accuracy and Stability of Numerical Algorithms, 2002, ch. 3), else
    refusal.  One value gives one result, one per slice a list; band broadcasts
    against it, and message, one or one per slice, is formatted with the value."""
    r = np.asarray(measured, dtype=float)
    if (r <= band).all():
        return [None] * r.size if r.ndim else None
    with np.errstate(over="ignore", invalid="ignore"):
        floor = len(factors) * factors[0].shape[-1] * 2.0 ** -53 * np.prod(
            [np.abs(f).max(axis=(-2, -1)) for f in factors], axis=0) if factors else 0.0
    values, bounds, floors = (np.broadcast_to(x, r.shape).reshape(-1).tolist() for x in (r, band, floor))
    texts = [message] * len(values) if isinstance(message, str) else message
    out = [None if v <= b
           else IllConditioned(f"{stage} {v:.3e} is not finite", stage, v, b) if not np.isfinite(v)
           else refusal(text.format(v), stage, v, b) if v > f
           else IllConditioned(f"{text.format(v)}, at or below the rounding floor {f:.3e}", stage, v, b)
           for v, b, f, text in zip(values, bounds, floors, texts)]
    return out if r.ndim else out[0]


def _non_finite() -> IllConditioned:
    """The refusal of a NaN or Inf entry, the trace of an overflow."""
    return IllConditioned("matrix contains NaN or Inf entries", "matrix entry", np.inf, np.finfo(float).max)


class Slices:
    """The outcome of a stacked kernel, slice by slice.

    refusals[i] is the MaxRepError refusing slice i, or None; live lists the
    slices not refused, in order; values is the kernel's result stack, and
    values[i] means something only for a live slice.  A kernel works on its
    stacks cut to the live slices.  The one rule: a slice keeps the first
    refusal recorded for it, so a stack refuses each slice as the one-slice
    call would, in the kernel's check order.
    """

    __slots__ = ("refusals", "live", "values")

    def __init__(self, k: int):
        self.refusals: list = [None] * k
        self.live = list(range(k))
        self.values = None

    def refuse(self, faults, *stacks):
        """Record faults[j], a MaxRepError or None, against slice live[j]; return
        stacks (arrays or lists aligned with live) cut to the slices still live,
        one stack as itself."""
        keep = [j for j, f in enumerate(faults) if f is None]
        if len(keep) < len(self.live):
            for i, f in zip(self.live, faults):
                if f is not None:
                    self.refusals[i] = f.with_traceback(None)
            self.live = [self.live[j] for j in keep]
            stacks = tuple(s[keep] if hasattr(s, "shape") else [s[j] for j in keep] for s in stacks)
        return stacks[0] if len(stacks) == 1 else stacks

    def screen(self, checked, *stacks):
        """refuse, with IllConditioned, each live slice of checked that holds a
        NaN or Inf; return checked and stacks cut to the slices still live."""
        ok = np.isfinite(checked)
        if ok.all():
            return (checked, *stacks) if stacks else checked
        return self.refuse([None if f else _non_finite()
                            for f in ok.all(axis=tuple(range(1, ok.ndim))).tolist()], checked, *stacks)

    def first_of(self, parts: int) -> list:
        """Each slice's first refusal, for a kernel run on parts stacks of m
        slices joined end to end: slice j is refused by slices j, j + m, ..."""
        m = len(self.refusals) // parts
        return [next((r for r in self.refusals[j::m] if r is not None), None) for j in range(m)]

    def finish(self, values) -> "Slices":
        """Set values from those of the live slices, in live order."""
        k = len(self.refusals)
        if len(self.live) < k:
            full = np.zeros((k,) + values.shape[1:], values.dtype) if hasattr(values, "shape") else [None] * k
            if isinstance(full, list):
                for j, i in enumerate(self.live):
                    full[i] = values[j]
            else:
                full[self.live] = values
            values = full
        self.values = values
        return self

    def __getitem__(self, i):
        """The value of slice i; a copy of its refusal is raised, so no traceback is stored."""
        if self.refusals[i] is not None:
            raise copy.copy(self.refusals[i])
        return self.values[i]
