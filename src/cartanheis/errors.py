"""Exception taxonomy shared across the toolkit.

Each class declares how the command line reports it, by its ``exit_code``
and the ``prefix`` of its message: a fault of the input (``InputFault``)
exits 2, a failed verdict (``VerdictFailure``) and any other error 1.
"""

import numpy as np


class GeometryError(Exception):
    """Base for all toolkit errors."""

    exit_code, prefix = 1, "error"


class InputFault(GeometryError):
    """The surface, its chart or a builtin's arguments are not valid input;
    ``location`` is the grid index of the fault where it has one."""

    exit_code, prefix = 2, "input error"

    def __init__(self, msg, location=None):
        super().__init__(msg)
        self.location = location


class VerdictFailure(GeometryError):
    """A rigidity precondition or an integrability check failed."""

    prefix = "verdict failure"


class InputError(ValueError):
    """A malformed command-line argument or argument file (exit code 2)."""


class DimensionMismatch(GeometryError):
    pass


class InvalidFrame(GeometryError):
    pass


class DomainError(InputFault):
    """Evaluation left the domain of ln/sqrt/division.

    ``location`` is the batch index of the first offending point, which is
    the grid index when a chart lattice is evaluated (None for a scalar);
    ``msg`` is the message without it.
    """

    def __init__(self, msg, location=None):
        super().__init__(msg if location is None else f"{msg} at grid index {location}",
                         location)
        self.msg = msg

    @classmethod
    def where(cls, msg, bad):
        """The error located at the first entry where the mask ``bad`` holds."""
        bad = np.asarray(bad)
        if bad.ndim == 0 or not bad.any():
            return cls(msg)
        return cls(msg, tuple(int(i) for i in np.argwhere(bad)[0]))


class NotImmersed(InputFault):
    """Jacobian rank fell below the chart dimension."""


class SingularPoint(InputFault):
    """dim(TM ∩ ker Θ) differs from 2m at some chart point."""


class NotCRInvariant(InputFault):
    """TM ∩ ker Θ is not invariant under the ambient complex structure."""

    def __init__(self, msg, location=None, residual=None):
        super().__init__(msg, location)
        self.residual = residual


class IllConditionedCoframe(GeometryError):
    pass


class WrongClass(VerdictFailure):
    """Operation restricted to vertical / completely non-vertical inputs."""


class NotFlat(VerdictFailure):
    pass


class NotTorsionFree(VerdictFailure):
    pass


class DegeneratePoint(GeometryError):
    pass


class IntegrabilityFailure(VerdictFailure):
    pass


class ProjectionDrift(GeometryError):
    pass


class DslError(InputFault):
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


class UnknownBuiltin(InputFault):
    pass
