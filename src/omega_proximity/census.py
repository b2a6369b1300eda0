"""Level censuses of factor counts.

Responsibility: tabulate how many n <= x have omega(n) or big_omega(n)
equal to each level k, optionally restricted to integers coprime to a
prime set; locate the modal level; measure how often omega(n) strays far
from log log n; and carve the concentration window around log log x.
All logarithms are natural.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .budget import DEFAULT_SEGMENT_SIZE
from .primeset import PrimeSetS, coprime_mask
from .sieve import F_TAGS, LEVEL_CEILING, FactorCensus, iter_factor_segments, prime_power_level


def normalize_f(tag: str) -> str:
    t = tag.strip().lower().replace("-", "_")
    if t == "bigomega":
        t = "big_omega"
    if t not in F_TAGS:
        raise ValueError(f"f must be one of {F_TAGS}, got {tag!r}")
    return t


@dataclass(frozen=True)
class CensusTable:
    """Counts of n <= x at each factor-count level.

    counts maps level k to #{n <= x : f(n) = k}; absent levels are zero.
    When restricted_to is set only n coprime to every member are counted,
    and the level totals add up to that coprime count instead of x.
    """

    x: int
    f_tag: str
    restricted_to: PrimeSetS | None
    counts: dict[int, int]

    def total(self) -> int:
        return sum(self.counts.values())

    def get(self, k: int) -> int:
        return self.counts.get(k, 0)


@dataclass(frozen=True)
class ConcentrationInterval:
    """Window [lo, hi] around center = log log x with halfwidth center**(1/2 + eps)."""

    center: float
    halfwidth: float
    lo: float
    hi: float


def add_level_counts(acc: np.ndarray, values: np.ndarray) -> None:
    """acc[k] += #{i : values[i] == k} for each k < len(acc); values past acc
    (parked entries) are not counted.  One count_nonzero pass per level up to
    the last counted one, if that is below 16 (omega), else bincount by 2**16
    (int64 copies of 512 KB) for the levels still left."""
    top = int(values.max(initial=0))
    left = len(values) - (int(np.count_nonzero(values >= len(acc))) if top >= len(acc) else 0)
    low = 0  # levels below low are counted; parked entries never force bincount
    while left and low < 16 and not 16 <= top < len(acc):
        c = int(np.count_nonzero(values == low))
        acc[low] += c
        left, low = left - c, low + 1
    for i in range(0, len(values) if left else 0, 1 << 16):
        acc[low:] += np.bincount(values[i : i + (1 << 16)], minlength=len(acc))[low : len(acc)]


def add_level_snapshots(hist: np.ndarray, seg: FactorCensus, levels: np.ndarray, cutoffs: list[int],
                        snapshots: dict[int, np.ndarray]) -> None:
    """Add levels, one per entry of seg, to hist, and copy hist into
    snapshots[y] once every entry n <= y is in, for each ascending cutoff y
    not yet taken; entries past the last are skipped."""
    start = 0
    for y in cutoffs[len(snapshots) :]:
        end = min((y - seg.lo) // seg.step + 1, len(levels))  # entries n <= y
        add_level_counts(hist, levels[start:end])
        if y >= seg.hi:
            break
        snapshots[y], start = hist.copy(), end


def lift_odd_levels(snapshots: dict[int, np.ndarray], x: int, f_tag: str) -> np.ndarray:
    """Level histogram over 1..x from snapshots[x >> a], those over odd m <= x >> a.

    f is additive, so for a >= 1 n = 2**a m sits f(2**a) levels above m; as
    f(n) < LEVEL_CEILING, nothing is shifted past a histogram that wide.
    """
    acc = np.zeros_like(snapshots[x])
    for a in range(x.bit_length()):
        shift = prime_power_level(a, f_tag)
        acc[shift:] += snapshots[x >> a][: len(acc) - shift]
    return acc


def census(
    x: int,
    f_tag: str,
    restrict: PrimeSetS | None = None,
    segment_size: int = DEFAULT_SEGMENT_SIZE,
    threads: int = 1,
) -> CensusTable:
    """Exact level census of f over 1..x, from one sweep of the odd n.

    Parameters
    ----------
    x : int
        Inclusive bound, >= 1.
    f_tag : str
        "omega" or "big_omega".
    restrict : PrimeSetS, optional
        Count only n coprime to every member.  Members above x are
        harmless; they exclude nothing.

    Returns
    -------
    CensusTable
    """
    if x < 1:
        raise ValueError(f"census requires x >= 1, got {x}")
    tag = normalize_f(f_tag)
    members = restrict.members if restrict is not None else ()
    # A set with 2 admits odd n only; a member of any other divides 2**a m iff it divides m.
    lift = 2 not in members
    cutoffs, snapshots = sorted(x >> a for a in range(x.bit_length() if lift else 1)), {}
    hist = np.zeros(LEVEL_CEILING, dtype=np.int64)
    for seg in iter_factor_segments(1, x + 1, segment_size, threads, tag, 2):
        levels = seg.values(tag)
        if members:  # park members' multiples past the histogram, as the certificate does
            hit = coprime_mask(seg.lo, seg.hi, members, 2).view(np.uint8)
            hit -= 1  # 255 where a member divides n, else 0
            hit &= LEVEL_CEILING
            levels += hit
        add_level_snapshots(hist, seg, levels, cutoffs, snapshots)
    acc = lift_odd_levels(snapshots, x, tag) if lift else snapshots[x]
    counts = {int(k): int(c) for k, c in enumerate(acc) if c}
    return CensusTable(x, tag, restrict, counts)


def mode_k(table: CensusTable) -> tuple[int, int]:
    """Level with the largest count, ties resolved toward the smaller level."""
    if not table.counts:
        raise ValueError("mode_k requires a nonempty census")
    best = max(table.counts.values())
    k_star = min(k for k, c in table.counts.items() if c == best)
    return k_star, best


def concentration_tail(
    x: int,
    delta: float,
    segment_size: int = DEFAULT_SEGMENT_SIZE,
    threads: int = 1,
) -> int:
    """#{2 <= n <= x : |omega(n) - log log n| > (log log x)**(1 + delta)}.

    n = 1 is excluded (log log 1 is undefined); n = 2 is included, where
    log log 2 is negative.  Requires x >= 3 so the threshold base is
    positive.

    With T = (log log x)**(1 + delta), an n at level omega(n) = k is in the
    tail exactly when n < exp(exp(k - T)) or n > exp(exp(k + T)), so whole
    levels enter and leave the count at those boundaries and tail(x)/x is
    not monotone in x (33/10^4 but 74619/10^7 at delta = 0.1).  What is
    guaranteed is the Chebyshev bound
    tail(x) <= sum over 2 <= n <= x of (omega(n) - log log n)**2 / T**2,
    which the Turan-Kubilius inequality makes O(x (log log x)**(-1 - 2 delta)).
    """
    if x < 3:
        raise ValueError(f"concentration_tail requires x >= 3, got {x}")
    if delta <= 0:
        raise ValueError(f"delta must be positive, got {delta}")
    threshold = math.log(math.log(x)) ** (1.0 + delta)
    total = 0
    for seg in iter_factor_segments(2, x + 1, segment_size, threads, "omega"):
        n = np.arange(seg.lo, seg.hi, dtype=np.float64)
        dev = np.abs(seg.values("omega") - np.log(np.log(n)))
        total += int((dev > threshold).sum())
    return total


def interval_from_center(center: float, eps: float) -> ConcentrationInterval:
    """Window with halfwidth center**(1/2 + eps); center must be positive."""
    if center <= 0:
        raise ValueError(f"center must be positive, got {center}")
    if eps <= 0:
        raise ValueError(f"eps must be positive, got {eps}")
    halfwidth = center ** (0.5 + eps)
    return ConcentrationInterval(center, halfwidth, center - halfwidth, center + halfwidth)


def concentration_interval(x: int, eps: float) -> ConcentrationInterval:
    """Window around log log x for x >= 16."""
    if x < 16:
        raise ValueError(f"concentration_interval requires x >= 16, got {x}")
    return interval_from_center(math.log(math.log(x)), eps)


def levels_in_interval(table: CensusTable, window: ConcentrationInterval) -> int:
    """Sum of census counts over integer levels k >= 0 inside the window."""
    lo = max(math.ceil(window.lo), 0)
    hi = math.floor(window.hi)
    return sum(table.counts.get(k, 0) for k in range(lo, hi + 1))


def census_csv_lines(table: CensusTable) -> list[str]:
    """CSV with header k,count; one row per occupied level, ascending."""
    lines = ["k,count"]
    for k in sorted(table.counts):
        lines.append(f"{k},{table.counts[k]}")
    return lines


def census_metadata(table: CensusTable, csv_name: str, config_hash: str) -> dict:
    k_star, best = mode_k(table)
    return {
        "x": table.x,
        "f": table.f_tag,
        "restricted": table.restricted_to is not None,
        "set": table.restricted_to.to_json_dict() if table.restricted_to else None,
        "total": table.total(),
        "levels": len(table.counts),
        "mode_k": k_star,
        "mode_count": best,
        "csv": csv_name,
        "config_hash": config_hash,
    }
