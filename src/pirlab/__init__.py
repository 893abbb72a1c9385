"""Laboratory for two-message, two-database private information retrieval.

Implements a two-round non-linear retrieval scheme with split coded storage,
a single-round linear scheme, exact-rational privacy auditing, entropy and
binning coders, and closed-form capacity oracles.
"""

from .capacity import PirParameters, check_rate_admissible, mtpir_capacity, storage_overhead
from .coding import CodecConfig, SourceModel, SwBin, entropy_decode, entropy_encode, sw_decode, sw_encode
from .descriptor import SchemeDescriptor, SessionRecord
from .dist import ExactDist, conditional_entropy, entropy, marginal, total_variation
from .linear import asymmetric_toy_descriptor, linear_descriptor, linear_store, replicated_descriptor, symmetrize
from .multiround import CellTable, MessagePair, Transcript, decode, derive_cells, multiround_descriptor, run_session
from .seeds import derive_seed

__all__ = [
    "CellTable",
    "CodecConfig",
    "ExactDist",
    "MessagePair",
    "PirParameters",
    "SchemeDescriptor",
    "SessionRecord",
    "SourceModel",
    "SwBin",
    "Transcript",
    "asymmetric_toy_descriptor",
    "check_rate_admissible",
    "conditional_entropy",
    "decode",
    "derive_cells",
    "derive_seed",
    "entropy",
    "entropy_decode",
    "entropy_encode",
    "linear_descriptor",
    "linear_store",
    "marginal",
    "mtpir_capacity",
    "multiround_descriptor",
    "replicated_descriptor",
    "run_session",
    "storage_overhead",
    "sw_decode",
    "sw_encode",
    "symmetrize",
    "total_variation",
]
