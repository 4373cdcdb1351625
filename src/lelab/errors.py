"""Exception hierarchy shared by all lelab modules."""


class LelabError(Exception):
    """Base class for all errors raised by lelab."""


class InvalidParamsError(LelabError, ValueError):
    """Exponent triple violates p >= q >= 1, pq > 1 or d >= 3."""


class InvalidInputError(LelabError, ValueError):
    """An operation argument violates its documented precondition."""


class UndefinedSingularError(LelabError, ValueError):
    """Singular-solution amplitudes requested where lambda <= 0 or mu <= 0."""


class InvalidMoserExponentError(LelabError, ValueError):
    """Moser exponent a below the admissible threshold (q+1)/2."""


class NoRealRootError(LelabError, RuntimeError):
    """Root isolation found no real root; cannot occur for valid params."""


class EmptyTraceError(LelabError, ValueError):
    """Curve trace produced no admissible point in the requested range."""


class BadBracketError(LelabError, ValueError):
    """Shooting bracket endpoints do not separate the target trajectory."""


class InsufficientWindowError(LelabError, ValueError):
    """Fitting window too narrow or not covered by the solution grid."""


class InsufficientDecayWindowError(LelabError, ValueError):
    """Growth-rate check requested beyond the positive part of a solution."""


class WindowNotCoveredError(LelabError, ValueError):
    """Requested rescaling window falls outside the sampled grid."""
