"""Exception taxonomy shared by the exponent algebra and the inequality kit."""


class NavierNormsError(Exception):
    """Base class for all library errors."""


class ExponentError(NavierNormsError, ValueError):
    """Invalid input to an exponent-algebra operation."""


class OutOfRange(ExponentError):
    pass


class Degenerate(ExponentError):
    pass


class AlphaOutOfRange(ExponentError):
    pass


class Pole(ExponentError):
    """Rational family evaluated where its denominator vanishes."""


class NoBranch(ExponentError):
    """No curve branch covers the requested exponent."""


class BranchMismatch(NavierNormsError):
    """Two branches share a closed breakpoint but disagree there."""


class UndefinedExtendedValue(NavierNormsError, ArithmeticError):
    """Extended-rational arithmetic hit an indeterminate form (inf-inf, 0*inf, ...)."""


class GridMismatch(NavierNormsError, ValueError):
    """Two grid functions do not share the same grid."""


class SingularityAtEndpoint(NavierNormsError, ValueError):
    pass


class HypothesisFailed(NavierNormsError):
    """The strict integral-inequality hypothesis fails at a grid node."""

    def __init__(self, node: int, lhs: float, rhs: float):
        self.node = node
        self.lhs = lhs
        self.rhs = rhs
        super().__init__(f"hypothesis fails at node {node}: {lhs} >= {rhs}")


class NoConvergence(NavierNormsError):
    """Fixed-point iteration hit its iteration cap."""

    def __init__(self, residual: float, iterations: int):
        self.residual = residual
        self.iterations = iterations
        super().__init__(f"no convergence after {iterations} iterations (residual {residual:g})")


class BoundViolated(NavierNormsError, ArithmeticError):
    """A computed value exceeds a closed-form bound it must satisfy."""


class ExponentInadmissible(NavierNormsError, ValueError):
    pass


class NonIntegrable(NavierNormsError, ValueError):
    pass


class NotFound(NavierNormsError, KeyError):
    """A lookup by name or key found nothing."""

    def __str__(self) -> str:
        return Exception.__str__(self)  # KeyError.__str__ would quote the message


class MissingSamples(NotFound):
    pass


class UnknownFamily(NotFound):
    """No rational family of the exponent algebra has the requested name."""


class NonFinite(NavierNormsError, FloatingPointError):
    """A simulation coefficient became non-finite (discrete blow-up)."""

    def __init__(self, time: float, step: int):
        self.time = time
        self.step = step
        super().__init__(f"non-finite coefficient at t={time:g} (step {step})")


class CFLViolation(NavierNormsError, RuntimeWarning):
    """Advisory: the convective CFL number exceeded its safe threshold."""
