"""Memory budget and range segmentation.

All range computations run segment by segment.  Peak memory is estimated as
bytes-per-integer times the largest live array span and checked against a
budget in MB, taken from the OMEGA_PROXIMITY_BUDGET environment variable
(default 2048).  The estimate is deliberately coarse; it exists to turn
runaway requests into a clean CapacityError instead of an OOM kill.
"""

from __future__ import annotations

import os
from typing import Iterator

from .errors import CapacityError

BUDGET_ENV_VAR = "OMEGA_PROXIMITY_BUDGET"
DEFAULT_BUDGET_MB = 2048
DEFAULT_SEGMENT_SIZE = 1 << 20

# Working set of one segment, per integer: the sieve kernel's uint32 word, a
# uint32 shift of it and uint8 omega, big_omega and compares, about 12 B; then
# the certificate's uint8 hits, want and levels, uint16 g values and bincount's
# int64 copy of levels, about 14 B.  The cap of 32 also covers numpy temporaries.
WORKING_BYTES_PER_N = 32


def memory_budget_mb() -> int:
    raw = os.environ.get(BUDGET_ENV_VAR)
    if raw is None:
        return DEFAULT_BUDGET_MB
    try:
        mb = int(raw)
    except ValueError:
        raise ValueError(f"{BUDGET_ENV_VAR} must be an integer (MB), got {raw!r}")
    if mb <= 0:
        raise ValueError(f"{BUDGET_ENV_VAR} must be positive, got {mb}")
    return mb


def require_budget(nbytes: int, what: str) -> None:
    """Raise CapacityError if nbytes exceeds the configured budget."""
    budget = memory_budget_mb()
    if nbytes > budget * (1 << 20):
        need = (nbytes + (1 << 20) - 1) >> 20
        raise CapacityError(
            f"{what} needs about {need} MB but the budget is {budget} MB"
            f" (set {BUDGET_ENV_VAR} to raise it)"
        )


def iter_ranges(lo: int, hi: int, segment_size: int) -> Iterator[tuple[int, int]]:
    """Split [lo, hi) into consecutive [a, b) spans of at most segment_size."""
    a = lo
    while a < hi:
        b = min(a + segment_size, hi)
        yield a, b
        a = b
