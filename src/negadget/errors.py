"""Exception hierarchy shared by all negadget modules."""


class GadgetError(Exception):
    """Base class for all errors raised by this package."""


class ShapeError(GadgetError):
    """Dimension mismatch between games, profiles, or vectors."""


class ValidationError(GadgetError):
    """Input violates a structural requirement (e.g. not a distribution)."""


class PreconditionError(ValidationError):
    """A documented operation precondition does not hold."""


class ParameterError(GadgetError):
    """A numeric parameter is outside its admissible range."""


class FormatError(GadgetError):
    """Malformed text input (.bgm/.fgm/.prof/DIMACS)."""


class ResourceError(GadgetError):
    """An enumeration would exceed its configured budget."""


class InvariantError(GadgetError):
    """An internal invariant failed; indicates a bug, not bad input."""


class StageError(GadgetError):
    """Pipeline stage failure carrying the stage name."""

    def __init__(self, stage: str, cause: Exception):
        super().__init__(f"stage {stage!r} failed: {cause}")
        self.stage = stage
        self.cause = cause


def count_text(n: int) -> str:
    """An exact count for an error message: ``str(n)``, or ``at least 2^b``
    (b + 1 being n's bit length) when n has more digits than ``str`` prints
    (4,300 by default), so that building the message cannot fail."""
    try:
        return str(n)
    except ValueError:
        return f"at least 2^{n.bit_length() - 1}"
