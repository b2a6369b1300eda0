"""Level censuses of factor counts.

Responsibility: tabulate how many n <= x have omega(n) or big_omega(n)
equal to each level k, optionally restricted to integers coprime to a
prime set; locate the modal level; and count how often omega(n) strays
far from log log n.  All logarithms are natural.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .budget import DEFAULT_SEGMENT_SIZE
from .primeset import PrimeSetS, coprime_mask
from .sieve import LEVEL_CEILING, FactorCensus, iter_factor_segments, level_tables, prime_power_level


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


def add_level_counts(acc: np.ndarray, values: np.ndarray) -> None:
    """acc[k] += #{i : values[i] == k} for each k < len(acc); values past acc
    (parked entries) are not counted.  One count_nonzero pass per level up to
    the last counted one; the parked entries are counted first, in one pass,
    if the max shows there are any (so a view with none skips it)."""
    top = int(values.max(initial=0))
    left = len(values) - (int(np.count_nonzero(values >= len(acc))) if top >= len(acc) else 0)
    level = 0
    while left:
        acc[level] += (c := int(np.count_nonzero(values == level)))
        left, level = left - c, level + 1


class LevelSnapshots:
    """Level histograms of the n <= y at each cutoff y in ys, from one ascending
    sweep of the odd n: add(seg, levels) takes each segment's levels in order
    (LEVEL_CEILING and up are parked, not counted), and at(y) reads the
    histogram over every counted n <= y.  A counted set holding 2 admits odd n
    only (odd_only): no lift.  Otherwise n = 2**a m sits f(2**a) levels above
    the odd m <= y >> a, as f is additive, so at(y) shifts and adds the
    snapshots at each y >> a; as f(n) < LEVEL_CEILING, none passes the top.
    """

    def __init__(self, ys: Iterable[int], f_tag: str, odd_only: bool):
        self.f_tag, self.odd_only = f_tag, odd_only
        self.cutoffs = sorted({y >> a for y in ys for a in range(1 if odd_only else y.bit_length())})
        self.snapshots: dict[int, np.ndarray] = {}
        self.hist = np.zeros(LEVEL_CEILING, dtype=np.int64)

    def add(self, seg: FactorCensus, levels: np.ndarray) -> None:
        """Count levels and copy the histogram at each cutoff the segment passes;
        entries past the last cutoff are skipped."""
        start = 0
        for y in self.cutoffs[len(self.snapshots) :]:
            end = min((y - seg.lo) // seg.step + 1, len(levels))  # entries n <= y
            add_level_counts(self.hist, levels[start:end])
            if y >= seg.hi:
                break
            self.snapshots[y], start = self.hist.copy(), end

    def at(self, y: int) -> np.ndarray:
        if self.odd_only:
            return self.snapshots[y]
        acc = np.zeros(LEVEL_CEILING, dtype=np.int64)
        for a in range(y.bit_length()):
            shift = prime_power_level(a, self.f_tag)
            acc[shift:] += self.snapshots[y >> a][: LEVEL_CEILING - shift]
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
    segments = iter_factor_segments(1, x + 1, segment_size, threads, f_tag, 2)  # checks the tag first
    members = restrict.members if restrict is not None else ()
    # A member other than 2 divides 2**a m iff it divides m.
    hists = LevelSnapshots([x], f_tag, 2 in members)
    for seg in segments:
        levels = seg.f
        if members:  # park members' multiples (mask 0, minus 1 wraps to 255) past the histogram
            levels += (coprime_mask(seg.lo, seg.hi, members, 2).view(np.uint8) - 1) & LEVEL_CEILING
        hists.add(seg, levels)
        del seg, levels  # the view holds its block, which goes before the next is sieved
    counts = {int(k): int(c) for k, c in enumerate(hists.at(x)) if c}
    return CensusTable(x, f_tag, restrict, counts)


def mode_k(table: CensusTable) -> tuple[int, int]:
    """Level with the largest count, ties resolved toward the smaller level."""
    if not table.counts:
        raise ValueError("mode_k requires a nonempty census")
    best = max(table.counts.values())
    k_star = min(k for k, c in table.counts.items() if c == best)
    return k_star, best


def concentration_tail(x: int, delta: float) -> int:
    """#{2 <= n <= x : |omega(n) - log log n| > (log log x)**(1 + delta)}.

    n = 1 is excluded (log log 1 is undefined); n = 2 is included, where
    log log 2 is negative.  Requires x >= 3 so the threshold base is
    positive.

    With T = (log log x)**(1 + delta), the float test abs(k - log(log(n))) > T
    is false, as log log n grows, for the n at level k >= 1 in a band
    [a_k, b_k]: each cut is a bisection over 2..x of the test, computed as for
    one n (the closed form exp(exp(k -+ T)) overflows).  The tail is the sum
    over k of pi_k(x) - (pi_k(b_k) - pi_k(a_k - 1)), read with no sweep from
    the last row of the level tables at each cut, one table at a time.  Whole
    levels enter and leave the count at the cuts, so
    tail(x)/x is not monotone in x (33/10^4 but 74619/10^7 at delta = 0.1).
    What is guaranteed is the Chebyshev bound
    tail(x) <= sum over 2 <= n <= x of (omega(n) - log log n)**2 / T**2,
    which the Turan-Kubilius inequality makes O(x (log log x)**(-1 - 2 delta)).
    """
    if x < 3:
        raise ValueError(f"concentration_tail requires x >= 3, got {x}")
    if not 0 < delta < math.inf:
        raise ValueError(f"delta must be positive and finite, got {delta}")
    threshold = math.log(math.log(x)) ** (1.0 + delta)
    ns = range(2, x + 1)
    bands = {}  # k: (a_k, b_k)
    for k in range(1, x.bit_length()):  # omega(n) <= log2 n
        # log log n - k is -(k - log log n) exactly, as the per-n test computes it, so
        # abs(k - log log n) > threshold holds below a_k and above b_k.
        rise = lambda n: np.log(np.log(np.float64(n))) - k
        bands[k] = (2 + bisect.bisect_left(ns, -threshold, key=rise),
                    1 + bisect.bisect_right(ns, threshold, key=rise))
    ys = {x, *(y for a, b in bands.values() for y in (a - 1, b))}
    pi = {y: level_tables(y, "omega")[1][-1].tolist() + [0] * x.bit_length() for y in ys}  # 0 past the top
    return sum(pi[x][k] - pi[b][k] + pi[a - 1][k] for k, (a, b) in bands.items())


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
