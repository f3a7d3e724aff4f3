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
    Hypothesis,
    PosteriorTable,
    capacity,
    capacity_table,
    enumerate_hypotheses,
    measured_rate,
    posterior,
    rank_profile,
)
from .cauchy import (
    CauchyMatrix,
    all_merge_systems_invertible,
    build_cauchy,
    canonical_points,
    round_column_indices,
)
from .errors import (
    AnswerMismatch,
    DecodeError,
    DemandKnown,
    DivisionByZero,
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
from .field import (
    FieldMatrix,
    PrimeField,
    is_prime,
    matrix_rank,
    next_prime,
    solve_linear_system,
)
from .net import (
    RemoteSession,
    SessionConfig,
    create_server,
    run_remote_session,
    server_from_config,
)
from .protocol import (
    SESSION_PRIME,
    Client,
    Database,
    PartitionQuery,
    ProtocolParams,
    RoundAnswer,
    Server,
    SessionResult,
    SideInformation,
    Transcript,
    TranscriptRound,
    run_session,
    session_cauchy,
    validate_query,
)

__version__ = "0.1.0"

__all__ = [
    "SESSION_PRIME",
    "AnswerMismatch",
    "CauchyMatrix",
    "Client",
    "Database",
    "DecodeError",
    "DemandKnown",
    "DivisionByZero",
    "FieldMatrix",
    "FieldTooSmall",
    "Hypothesis",
    "InconsistentTranscript",
    "InvalidParams",
    "MalformedQuery",
    "OpirError",
    "ParamMismatch",
    "PartitionQuery",
    "PosteriorTable",
    "PrimeField",
    "ProtocolOrder",
    "ProtocolParams",
    "RemoteSession",
    "RoundAnswer",
    "RoundOutOfRange",
    "RoundsExhausted",
    "Server",
    "SessionConfig",
    "SessionResult",
    "SideInformation",
    "SingularMatrix",
    "SingularSystem",
    "Transcript",
    "TranscriptRound",
    "all_merge_systems_invertible",
    "build_cauchy",
    "canonical_points",
    "capacity",
    "capacity_table",
    "create_server",
    "enumerate_hypotheses",
    "is_prime",
    "matrix_rank",
    "measured_rate",
    "next_prime",
    "posterior",
    "rank_profile",
    "round_column_indices",
    "run_remote_session",
    "run_session",
    "server_from_config",
    "session_cauchy",
    "solve_linear_system",
    "validate_query",
]
