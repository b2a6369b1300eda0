"""Memory budget.

All range computations run segment by segment.  Peak memory is estimated as
bytes-per-integer times the largest live array span, plus the tables a
computation sizes by its bound (a prime sieve's flags, the 2 sqrt(x) rows of
the prime count's and the level tables, phi's 2 pi(x)/4096 + 1 tree nodes),
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
DEFAULT_SEGMENT_SIZE = 1 << 18  # entries per sieve block: 0.75 MiB of kernel word and f

# Working set of one sieve block, per entry (n, or odd n in a step-2 sweep): the
# kernel's uint16 word and uint8 f, 3 B; consumers read it in views of 2**17
# entries, up to about 7 B per view entry, and drop them before the next block:
# traced peaks are 3.8-4.9 B per entry at 2**18-entry blocks (3.0-3.3 at 2**20); the cap is 32.
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
