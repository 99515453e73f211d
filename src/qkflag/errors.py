"""Exception types shared across the package, and its one named-argument int refusal."""


class QKFlagError(Exception):
    """Base class for all qkflag errors."""


class InvalidRank(QKFlagError, ValueError):
    """Ambient dimension n is not an integer >= 3."""


class InvalidIndex(QKFlagError, ValueError):
    """A pair (i, j) does not name a Schubert class for this n."""


class RankMismatch(QKFlagError, ValueError):
    """Operands were built for different ambient dimensions."""


class MalformedTable(QKFlagError, ValueError):
    """A cached multiplication table is not a complete, well-formed table."""


class UnsupportedDegree(QKFlagError, ValueError):
    """No closed form is available for this correlator degree."""


class DegenerateTarget(QKFlagError, ValueError):
    """A translation map produced a pair with equal components."""


class ShapeMismatch(QKFlagError, ValueError):
    """Flag shape and sequence/degree data do not line up."""


class NonUniqueMinimizer(QKFlagError, RuntimeError):
    """Exhaustive search found more than one spread-minimizing set."""


class BoundExceeded(QKFlagError, ValueError):
    """Input is larger than the enumeration guard allows."""


def _ints(error: type, **values) -> None:
    """Raise ``error`` naming the first of ``values`` whose type is not int (so a bool is not one)."""
    for name, v in values.items():
        if type(v) is not int:
            raise error(f"{name} must be an int, got {v!r}")
