"""Exception types shared across the package.

Exit-code mapping used by the CLI: configuration problems (RejectConfig,
ParseError) exit 2, HypothesisViolated exits 3, NumericalStall exits 4,
every other operation error exits 1.
"""


class IfnetError(Exception):
    """Base class for all package errors."""


class RejectConfig(IfnetError):
    """Network parameters violate a standing model assumption."""


class ParseError(RejectConfig):
    """Config document or params.network value malformed; message names the field."""


class PreconditionFailed(IfnetError):
    """An operation was called outside its documented domain."""


class HypothesisViolated(IfnetError):
    """The network does not satisfy the hypotheses the operation requires."""


class InsufficientSamples(IfnetError):
    """Rejection sampling could not produce enough admissible samples."""


class NoFixedPoint(IfnetError):
    """Bisection found no sign change in the admissible bracket."""


class NumericalStall(IfnetError):
    """A solved cycle has no dominant real eigenvector or fails its certificate."""
