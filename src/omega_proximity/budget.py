"""Memory budget.

All range computations run segment by segment.  Peak memory is estimated as
bytes-per-integer times the largest live array span, plus the tables a
computation sizes by its bound (a prime sieve's flags, prime_pi's int64
tables of sqrt(x) entries, phi's sums for at most pi(x)/64 + 1 leaves),
and checked against a budget in MB, taken from the OMEGA_PROXIMITY_BUDGET
environment variable (default 2048).  The estimate is deliberately coarse;
it exists to turn runaway requests into a clean CapacityError instead of
an OOM kill.
"""

from __future__ import annotations

import os

from .errors import CapacityError

BUDGET_ENV_VAR = "OMEGA_PROXIMITY_BUDGET"
DEFAULT_BUDGET_MB = 2048
DEFAULT_SEGMENT_SIZE = 1 << 20

# Working set of one segment, per entry (n, or odd n in a step-2 sweep): the
# sieve kernel's uint16 word and its uint8 f, 3 B; then the certificate's uint16
# marks and g values and uint8 levels and compares, about 8 B (bincount's int64
# copies are chunked to 2**16 values).  The cap of 32 also covers temporaries.
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
