"""Exception hierarchy.

Every failure mode a caller can act on gets its own class.  The CLI maps
subclasses of :class:`MathematicalRefusal` to exit code 3 (the input is
well-formed but the requested construction does not exist) and subclasses of
:class:`NumericalBreakdown` to exit code 4 (the construction may exist but
floating point could not decide safely).
"""


class MaxRepError(Exception):
    """Base class for all library errors."""


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

    def __init__(self, msg, edge=None):
        super().__init__(msg)
        self.edge = edge


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


def unwrap(result):
    """result, unless it is the MaxRepError a stacked kernel holds in its place."""
    if isinstance(result, MaxRepError):
        raise result
    return result


def first_fault(results):
    """The first MaxRepError among results, or None."""
    return next((r for r in results if isinstance(r, MaxRepError)), None)
