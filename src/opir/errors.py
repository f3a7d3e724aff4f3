"""Exception hierarchy shared by every module in the package."""


class OpirError(Exception):
    """Base class for all errors raised by this package."""


class SingularMatrix(OpirError):
    """A square system has no unique solution (rank-deficient matrix)."""


class RoundOutOfRange(OpirError):
    """A round index beyond the column budget of the coding matrix."""


class InvalidParams(OpirError):
    """Parameters violate the protocol's standing assumptions."""


class FieldTooSmall(InvalidParams):
    """The field modulus cannot accommodate the requested point sets."""


class DemandKnown(OpirError):
    """The requested message is already known to the client."""


class ProtocolOrder(OpirError):
    """A protocol step was attempted out of sequence."""


class RoundsExhausted(OpirError):
    """No further rounds are possible for these parameters."""


class MalformedQuery(OpirError):
    """A query violates the partition invariants for its round."""


class AnswerMismatch(OpirError):
    """An answer does not match the outstanding query's shape or round."""


class SingularSystem(OpirError):
    """Decoding hit a singular system, which the partitions and coding points
    fix, not the packets: a valid session at an explicit small q, on
    uncertified points or past round 3 can end here on an unlucky partition."""


class InconsistentTranscript(OpirError):
    """No admissible hypothesis explains the observed transcript."""


class DecodeError(OpirError):
    """Wire bytes could not be parsed into a valid message."""


class ParamMismatch(OpirError):
    """Client and server disagree on session parameters."""
