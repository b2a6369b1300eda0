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

# Working set of one sieve segment: the int64 product of found prime powers
# and the int64 arange it is compared with (8 B each), the uint8 omega, extra
# and big_omega arrays and the bool comparison (1 B each), about 20 B in all.
# The cap stays at 32 to cover numpy temporaries and the callers' own arrays.
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
