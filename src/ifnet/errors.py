"""Exception types shared across the package.

Each class carries the exit code and the label the CLI reports it with;
`cli.main` reads them from the class, so this table is the one place they
are decided:

    class                                   exit  label
    RejectConfig, ParseError                2     config error
    HypothesisViolated                      3     hypothesis violated
    NumericalStall                          4     numerical stall
    IfnetError, PreconditionFailed,         1     error
    InsufficientSamples, NoFixedPoint

A MemoryError or an OSError (a failed write under --out) is reported with
IfnetError's code and label; `sized` makes NumPy's refusal of an array size
past its index range such a MemoryError.  Every failure is one stderr line,
"label: message": the class name stands for an empty message, and each line
break inside the message (one from a path or a command-line argument) is
written as the two characters \\n.
"""


class IfnetError(Exception):
    """Base class for all package errors."""
    exit_code, label = 1, "error"


class RejectConfig(IfnetError):
    """Network parameters violate a standing model assumption."""
    exit_code, label = 2, "config error"


class ParseError(RejectConfig):
    """Config document or params.network value malformed; message names the field."""


class PreconditionFailed(IfnetError):
    """An operation was called outside its documented domain."""


class HypothesisViolated(IfnetError):
    """The network does not satisfy the hypotheses the operation requires."""
    exit_code, label = 3, "hypothesis violated"


class InsufficientSamples(IfnetError):
    """Rejection sampling could not produce enough admissible samples."""


class NoFixedPoint(IfnetError):
    """Bisection found no sign change in the admissible bracket."""


class NumericalStall(IfnetError):
    """A solved cycle has no dominant real eigenvector or fails its certificate."""
    exit_code, label = 4, "numerical stall"


def sized(make, *args, **kwargs):
    """make(*args, **kwargs) for an array maker, with NumPy's refusal of a size
    past its index range (a ValueError, raised before anything is allocated)
    raised as the MemoryError of an allocation too large to make.  Every
    caller passes a size already checked to be positive, so that refusal is
    the one ValueError left."""
    try:
        return make(*args, **kwargs)
    except ValueError as exc:
        raise MemoryError(str(exc)) from None
