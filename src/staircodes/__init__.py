"""Erasure coding for combined device and sector failures.

The codec tolerates m whole-device failures per stripe plus a configurable
pattern of per-device sector failures given by a vector e, at a cost of
m parity chunks and sum(e) parity sectors.  Alongside the codec the
package ships the encoding cost model, an analytical reliability suite
(stripe/array loss probabilities and MTTDL) and Monte-Carlo validation,
plus a container-file CLI (``stair``).
"""

from .gf import Field, field_init
from .stair import (
    FailurePattern,
    StairConfig,
    Step,
    UnrecoverableError,
    build_canonical,
    cell_role,
    choose_method,
    config_new,
    data_cells,
    decode,
    decoding_steps,
    encode,
    encoding_steps,
    parity_cells,
    parity_dependents,
    pattern_within_coverage,
    random_stripe,
    update_penalty,
    worst_case_pattern,
    xor_count,
)

__version__ = "0.1.0"

__all__ = [
    "FailurePattern",
    "Field",
    "StairConfig",
    "Step",
    "UnrecoverableError",
    "build_canonical",
    "cell_role",
    "choose_method",
    "config_new",
    "data_cells",
    "decode",
    "decoding_steps",
    "encode",
    "encoding_steps",
    "field_init",
    "parity_cells",
    "parity_dependents",
    "pattern_within_coverage",
    "random_stripe",
    "update_penalty",
    "worst_case_pattern",
    "xor_count",
]
