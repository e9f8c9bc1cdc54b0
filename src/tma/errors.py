"""Error taxonomy shared by every module.

All failures raised by this package derive from :class:`TmaError`, so callers
can catch the package's own errors without swallowing genuine bugs
(``TypeError`` etc. propagate untouched).
"""


class TmaError(Exception):
    """Base class for all package errors."""


class DomainViolation(TmaError):
    """An atom was evaluated outside its domain (e.g. log of a non-positive argument), or a point is not finite."""


class DimensionMismatch(TmaError):
    """Incompatible dimensions: odd real dimension for a complex pairing, undeclared blocks, unsupported grid shape."""


class UnknownAtom(TmaError):
    """A function-spec file names an atom this package does not implement."""


class ParseError(TmaError):
    """A function/config file failed to parse; the message carries line/field diagnostics."""


class NotPositiveDefinite(TmaError):
    """A Hessian block had the wrong sign: the function left its convexity class."""


class IllConditioned(TmaError):
    """A matrix inverse/log-det was requested below the conditioning guard."""


class AmplitudeTooLarge(TmaError):
    """Ensemble perturbation amplitude would break the guaranteed class membership."""


class NoConvergence(TmaError):
    """An iteration (Newton, gradient inversion) hit its cap without meeting tolerance."""


class DomainExceeded(TmaError):
    """An iterate or a rescaled domain left the declared box."""


class ClassExit(TmaError):
    """A flow or Newton iterate lost block definiteness: it left the convexity class."""


class CFLViolation(TmaError):
    """Requested explicit timestep exceeds the stability bound dt <= c h^2 lambda/Lambda."""


class EmptyCylinder(TmaError):
    """A parabolic cylinder contains no grid nodes."""


class DegenerateLadder(TmaError):
    """An oscillation ladder cannot support an exponent fit (fewer than 3 points)."""


class ConfigInvalid(TmaError):
    """An experiment config failed validation; the message names the offending field."""
