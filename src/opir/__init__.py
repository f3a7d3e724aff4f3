"""Multi-round single-server private retrieval with hidden side information.

A client who already knows M of the server's K messages can fetch a new
message each round without the server ever learning, for any round, which
message was wanted or which were known: every demand posterior stays
exactly 1/K.  Downloads shrink geometrically as knowledge accumulates.

Layers: field (prime-field arithmetic and linear algebra), cauchy (the
coding matrix), protocol (client/server state machines), audit (exact
posterior, rate, and rank verification), wire + net (binary formats and
TCP transport), cli (command line).
"""

from .audit import (
    capacity,
    enumerate_hypotheses,
    measured_rate,
    posterior,
    rank_profile,
)
from .cauchy import (
    build_cauchy,
    round_column_indices,
)
from .errors import (
    AnswerMismatch,
    DecodeError,
    DemandKnown,
    FieldTooSmall,
    InconsistentTranscript,
    InvalidParams,
    MalformedQuery,
    OpirError,
    ParamMismatch,
    ProtocolOrder,
    RoundOutOfRange,
    RoundsExhausted,
    SingularMatrix,
    SingularSystem,
)
from .field import is_prime, matrix_rank
from .net import create_server, run_remote_session
from .protocol import (
    Client,
    Database,
    PartitionQuery,
    ProtocolParams,
    Server,
    SideInformation,
    run_session,
)

__version__ = "0.1.0"

# The names the README documents and the acceptance tests import, plus
# every exception class; everything else is imported from its module.
__all__ = [
    "AnswerMismatch",
    "Client",
    "Database",
    "DecodeError",
    "DemandKnown",
    "FieldTooSmall",
    "InconsistentTranscript",
    "InvalidParams",
    "MalformedQuery",
    "OpirError",
    "ParamMismatch",
    "PartitionQuery",
    "ProtocolOrder",
    "ProtocolParams",
    "RoundOutOfRange",
    "RoundsExhausted",
    "Server",
    "SideInformation",
    "SingularMatrix",
    "SingularSystem",
    "build_cauchy",
    "capacity",
    "create_server",
    "enumerate_hypotheses",
    "is_prime",
    "matrix_rank",
    "measured_rate",
    "posterior",
    "rank_profile",
    "round_column_indices",
    "run_remote_session",
    "run_session",
]
