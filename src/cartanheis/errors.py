"""Exception taxonomy shared across the toolkit."""

import numpy as np


class GeometryError(Exception):
    """Base for all toolkit errors."""


class DimensionMismatch(GeometryError):
    pass


class InvalidFrame(GeometryError):
    pass


class DomainError(GeometryError):
    """Evaluation left the domain of ln/sqrt/division.

    ``location`` is the batch index of the first offending point, which is
    the grid index when a chart lattice is evaluated (None for a scalar).
    """

    def __init__(self, msg, location=None):
        super().__init__(msg if location is None else f"{msg} at grid index {location}")
        self.location = location

    @classmethod
    def where(cls, msg, bad):
        """The error located at the first entry where the mask ``bad`` holds."""
        bad = np.asarray(bad)
        if bad.ndim == 0 or not bad.any():
            return cls(msg)
        return cls(msg, tuple(int(i) for i in np.argwhere(bad)[0]))


class OutOfChart(GeometryError):
    pass


class NotImmersed(GeometryError):
    """Jacobian rank fell below the chart dimension."""

    def __init__(self, msg, location=None):
        super().__init__(msg)
        self.location = location


class SingularPoint(GeometryError):
    """dim(TM ∩ ker Θ) differs from 2m at some chart point."""

    def __init__(self, msg, location=None):
        super().__init__(msg)
        self.location = location


class NotCRInvariant(GeometryError):
    """TM ∩ ker Θ is not invariant under the ambient complex structure."""

    def __init__(self, msg, location=None, residual=None):
        super().__init__(msg)
        self.location = location
        self.residual = residual


class IllConditionedCoframe(GeometryError):
    pass


class WrongClass(GeometryError):
    """Operation restricted to vertical / completely non-vertical inputs."""


class NotFlat(GeometryError):
    pass


class NotTorsionFree(GeometryError):
    pass


class DegeneratePoint(GeometryError):
    pass


class IntegrabilityFailure(GeometryError):
    pass


class ProjectionDrift(GeometryError):
    pass


class DslError(GeometryError):
    """Base for surface-language errors; carries a source location."""

    def __init__(self, msg, line=None, col=None):
        loc = f" (line {line}, col {col})" if line is not None else ""
        super().__init__(msg + loc)
        self.line = line
        self.col = col


class DslSyntaxError(DslError):
    pass


class UndeclaredParameter(DslError):
    pass


class DslDimensionMismatch(DslError):
    pass


class UnknownBuiltin(GeometryError):
    pass
