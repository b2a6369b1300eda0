"""Coincidence counting and certified lower bounds.

Responsibility: count how often an additive factor count agrees with a
constructed strongly multiplicative g; enumerate the disjoint witness
families n = r * p**a (r coprime to the set) that certify a lower bound
on that count; tabulate the growth ratio across a grid of x; and compute
the prime-power moment sums whose ratio controls how large any level of
an additive function can get.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .budget import DEFAULT_SEGMENT_SIZE, WORKING_BYTES_PER_N, require_budget
from .census import LevelSnapshots
from .errors import CertificateError
from .gfunction import GFunction
from .sieve import (
    LEVEL_CEILING, FactorCensus, first_index, iter_factor_segments, prime_pi, prime_power_level, primes_up_to,
)


@dataclass(frozen=True)
class ReportRow:
    x: int
    e_count: int
    l_count: int
    loglogx: float
    ratio_e: float
    ratio_l: float


@dataclass(frozen=True)
class PhiDiagnostics:
    """Prime-power moment sums at scale x.

    a_sum weights f(p**a) by (1 - 1/p) over prime powers p**a <= x; b_sum
    is the second moment f(p**a)**2 / p**a; phi is their ratio b/a.
    k_of_x = x / max_level_count grows when no single level dominates.
    """

    x: int
    f_tag: str
    a_sum: float
    b_sum: float
    phi: float
    max_level_count: int
    k_of_x: float


def _g_segment_values(g: GFunction, lo: int, hi: int, step: int = 1) -> np.ndarray:
    """min(g(n), LEVEL_CEILING) at n = lo + step * i in [lo, hi) as uint16,
    by stepping the multiples of each table prime (with step 2 the prime 2
    divides no n, as in coprime_mask).  No f(n) reaches the cap, so a capped
    value never matches, and a product of two capped values (at most 4096)
    fits in uint16 before it is capped again."""
    out = np.ones(len(range(lo, hi, step)), dtype=np.uint16)
    for entry in g.entries:
        if step % entry.prime:
            sl = out[first_index(entry.prime, lo, step) :: entry.prime]
            sl *= min(entry.value, LEVEL_CEILING)
            np.minimum(sl, LEVEL_CEILING, out=sl)
    return out


def _even_matches(d: np.ndarray, seg: FactorCensus, x: int, tag: str) -> int:
    """#{(b, i) : b >= 1, 2**b m <= x, d[i] = f(2**b)} over the odd m = seg.lo + 2i:
    with d = target - f(m), the even n = 2**b m <= x at their target level."""
    # b runs while 2**b seg.lo <= x; entries up to m = x >> b take part.
    return sum(int(np.count_nonzero(d[: ((x >> b) - seg.lo) // 2 + 1] == prime_power_level(b, tag)))
               for b in range(1, (x // seg.lo).bit_length()))


def coincidence_count(
    x: int,
    f_tag: str,
    g: GFunction,
    segment_size: int = DEFAULT_SEGMENT_SIZE,
    threads: int = 1,
) -> int:
    """#{n <= x : f(n) = g(n)} exactly, from one sweep of the odd m <= x:
    n = 2**b m has f(n) = f(m) + f(2**b), and g(n) = g(m) at b = 0 and
    g(2) g(m) at b >= 1 as g is strongly multiplicative.  n = 1 never
    matches: f(1) = 0 while g(1) = 1 (empty product)."""
    if x < 0:
        raise ValueError(f"coincidence_count requires x >= 0, got {x}")
    if x == 0:
        return 0
    g2 = min(g.table.get(2, 1), LEVEL_CEILING)
    total = 0
    for seg in iter_factor_segments(1, x + 1, segment_size, threads, f_tag, 2):
        f = seg.f
        gv = _g_segment_values(g, seg.lo, seg.hi, 2)
        total += int(np.count_nonzero(gv == f))
        gv *= g2  # g(2**b m), b >= 1: at most 64 * 64, and 64 and up match no f(n)
        gv -= f  # wraps below zero to values no level reaches
        total += _even_matches(gv, seg, x, f_tag)
        del seg, f, gv  # the view holds its block, which goes before the next is sieved
    return total


def certificate_count(
    x: int,
    g: GFunction,
    f_tag: str = "big_omega",
    segment_size: int = DEFAULT_SEGMENT_SIZE,
    threads: int = 1,
) -> tuple[int, int]:
    """Certified lower bound for coincidence_count(x, f, g), counted two ways.

    The witnesses are n = r * p**a for each member p <= x of g.prime_set
    (none without a set) and exponent a >= 1, where r <= x // p**a is
    coprime to every member and sits at the level that forces f(n) = g(n):
    big_omega(r) = g(p) - a for f = big_omega, omega(r) = g(p) - 1 for f =
    omega.  Distinct (p, a, r) give distinct n because r carries no member
    prime, so the families are disjoint and the total is a true lower bound.

    One sweep of the odd m <= x.  The r route reads a histogram of the odd m
    no member divides at each x // p**a, lifted to every r unless 2 is a
    member.  The n route counts the n = 2**b m with f(n) = g(p) for the one
    member p dividing n (odd, or 2 at b >= 1), and checks each against the
    whole g table.  Returns (count, witnesses_checked); a failed check
    (with the odd segment [lo, hi) of its m) or routes that disagree raise
    CertificateError.
    """
    members = [p for p in g.prime_set.members if p <= x] if g.prime_set else []
    if not members:
        return 0, 0
    table = g.table
    for p in members:
        if p not in table:
            raise ValueError(f"g has no value for set member {p}")
    has2 = members[0] == 2
    odd_marks = [(p, 256 + min(table[p], LEVEL_CEILING)) for p in members[has2:]]
    g2 = min(table.get(2, 1), LEVEL_CEILING)

    # (cutoff, level of r) per family; no f reaches LEVEL_CEILING.
    families = []
    for p in members:
        power, a = p, 1
        while power <= x:
            target = table[p] - prime_power_level(a, f_tag)
            if 0 <= target < LEVEL_CEILING:
                families.append((x // power, target))
            power, a = power * p, a + 1
    segments = iter_factor_segments(1, x + 1, segment_size, threads, f_tag, 2)  # checks the tag first
    hists = LevelSnapshots({y for y, _ in families}, f_tag, has2)
    found = confirmed = 0
    for seg in segments:
        f = seg.f
        marks = np.zeros(len(f), dtype=np.uint16)  # 256 + capped g(p) per odd member p | m
        for p, mark in odd_marks:
            marks[first_index(p, seg.lo, 2) :: p] += mark
        levels = np.greater_equal(marks, 256).view(np.uint8)  # r route: park members' multiples
        levels *= LEVEL_CEILING
        levels += f
        hists.add(seg, levels)
        # n route: marks - 256 - f(m) < 64 only where one odd member divides m (at
        # least 193 where two do, past 65000 where none); marks + g(2) - f(m) where none.
        marks -= f
        marks -= 256
        witness = np.equal(marks, 0, out=levels.view(bool))  # levels are read no more
        found += int(np.count_nonzero(witness))
        gv = _g_segment_values(g, seg.lo, seg.hi, 2)
        witness &= gv == f
        confirmed += int(np.count_nonzero(witness))
        if has2:
            marks += 256 + g2
        found += _even_matches(marks, seg, x, f_tag)
        gv *= g2  # g(2**b m) - f(m) at b >= 1, as in coincidence_count
        gv -= f
        gv ^= marks  # 0 where g(n) agrees; move the other entries past every level
        np.minimum(gv, 1, out=gv)
        gv <<= 8
        marks |= gv
        confirmed += _even_matches(marks, seg, x, f_tag)
        if confirmed != found:
            raise CertificateError(f"certificate witness failed in [{seg.lo}, {seg.hi})")
        del seg, f, marks, levels, witness, gv  # all freed before the next block is sieved

    count = sum(int(hists.at(y)[level]) for y, level in families)
    if count != found:
        raise CertificateError(f"certificate routes disagree: {count} by r, {found} by n")
    return count, found


def report_grid(x_grid: list[int], eps: float) -> list[int]:
    """The grid ascending without repeats, once eps > 0 is finite, every x >= 16
    and the rows' scale (log log x)**(1/2 + eps) is a float."""
    if not 0 < eps < math.inf:
        raise ValueError(f"eps must be positive and finite, got {eps}")
    grid = sorted({int(v) for v in x_grid})
    if grid and grid[0] < 16:
        raise ValueError(f"grid values must be >= 16, got {grid[0]}")
    try:  # log log x > 1 from x = 16, so the largest x has the largest scale
        grid and math.log(math.log(grid[-1])) ** (0.5 + eps)
    except OverflowError:
        raise ValueError(f"eps = {eps} overflows (log log x)**(1/2 + eps) at x = {grid[-1]}") from None
    return grid


def growth_report(
    x_grid: list[int],
    eps: float,
    f_tag: str,
    g: GFunction,
    segment_size: int = DEFAULT_SEGMENT_SIZE,
    threads: int = 1,
) -> tuple[ReportRow, ...]:
    """Coincidence and certificate counts with growth ratios, one row per x
    of the ascending grid.

    ratio_e = E * (log log x)**(1/2 + eps) / x, and likewise ratio_l; a
    ratio that stays bounded away from zero as x grows is the empirical
    signature the construction aims for.  g stays fixed across the grid,
    and L counts the witnesses over g.prime_set (0 without one).
    """
    rows = []
    for x in report_grid(x_grid, eps):
        e_count = coincidence_count(x, f_tag, g, segment_size, threads)
        l_count, _ = certificate_count(x, g, f_tag, segment_size, threads)
        loglogx = math.log(math.log(x))
        scale = loglogx ** (0.5 + eps) / x
        rows.append(ReportRow(x, e_count, l_count, loglogx, e_count * scale, l_count * scale))
    return tuple(rows)


def report_csv_lines(rows: tuple[ReportRow, ...], f_tag: str, eps: float) -> list[str]:
    lines = ["x,f,E,L,loglogx,eps,ratio_E,ratio_L"]
    for r in rows:
        lines.append(
            f"{r.x},{f_tag},{r.e_count},{r.l_count},"
            f"{r.loglogx!r},{eps!r},{r.ratio_e!r},{r.ratio_l!r}"
        )
    return lines


def report_json_dict(
    rows: tuple[ReportRow, ...], f_tag: str, eps: float, g: GFunction, config_hash: str
) -> dict:
    return {
        "f": f_tag,
        "eps": eps,
        "set": g.prime_set.to_json_dict() if g.prime_set else None,
        "g": g.to_json_dict(),
        "rows": [
            {
                "x": r.x,
                "E": r.e_count,
                "L": r.l_count,
                "loglogx": r.loglogx,
                "ratio_E": r.ratio_e,
                "ratio_L": r.ratio_l,
            }
            for r in rows
        ],
        "config_hash": config_hash,
    }


class _PairwiseSum:
    """np.sum over n float64 values v and over 1 - v, bit for bit, from v fed
    in ascending chunks, keeping one pair of sums per node of numpy's
    summation tree that holds at most NODE values: numpy sums m > 128 values
    as the sum of the first floor(m/2), rounded down to a multiple of 8, plus
    the sum of the rest, so every node is np.sum of its own contiguous values
    and is summed as soon as they are in.  Every node of an n > NODE holds at
    least NODE / 2 values, so there are at most 2 n / NODE + 1 nodes.
    """

    NODE = 1 << 12

    def __init__(self, n: int) -> None:
        lens, self.splits = np.array([n]), []  # per level, in array order, the nodes that split
        while (split := lens > self.NODE).any():
            self.splits.append(split)
            half = lens[split] // 2 & -8
            right = np.cumsum(split + 1)[split] - 1  # where each split node's right half lands
            lens = np.repeat(lens, split + 1)
            lens[right - 1] = half
            lens[right] -= half
        self.lens = lens  # the nodes in array order
        self.sums = np.empty((2, len(lens)))
        self.fed = self.done = 0
        self.carry = np.empty(0)  # the first values of node done, fewer than it holds

    def add(self, values: np.ndarray) -> None:
        self.fed += len(values)
        while self.done < len(self.lens) and len(self.carry) + len(values) >= self.lens[self.done]:
            take = self.lens[self.done] - len(self.carry)
            node, values = np.concatenate((self.carry, values[:take])), values[take:]
            self.sums[:, self.done] = node.sum(), np.subtract(1.0, node, out=node).sum()
            self.carry, self.done = np.empty(0), self.done + 1
        if self.done < len(self.lens):  # past the last node only a miscount feeds more
            self.carry = np.concatenate((self.carry, values))

    def totals(self) -> tuple[float, float]:
        """(sum of v, sum of 1 - v) once all n values are in, level by level up the tree."""
        v = self.sums
        for split in reversed(self.splits):
            v = np.add.reduceat(v, np.cumsum(split + 1) - (split + 1), axis=1)
        return float(v[0, 0]), float(v[1, 0])


def phi_diagnostics(
    x: int,
    f_tag: str,
    segment_size: int = DEFAULT_SEGMENT_SIZE,
    threads: int = 1,
) -> PhiDiagnostics:
    """Moment sums over prime powers p**a <= x, plus the busiest level.

    f(p**a) is 1 for omega and a for big_omega.  A falling phi alongside a
    rising k_of_x is the empirical trend that keeps every single level a
    vanishing share of the integers.

    One sweep of the odd n <= x fills a level histogram, lifted to 1..x by
    census.LevelSnapshots, and streams 1/p for each prime (2, then each odd
    n with f(n) == 1 that is no prime power p**a, a >= 2, listed first),
    ascending whatever the segments or threads, into the nodes of np.sum's
    tree over n = prime_pi(x) values: A and B match a prime table's floats
    with no such table held; math.fsum would round, and print them, otherwise.
    A sweep that finds other than n primes raises CertificateError.
    """
    if x < 2:
        raise ValueError(f"phi_diagnostics requires x >= 2, got {x}")
    segments = iter_factor_segments(1, x + 1, segment_size, threads, f_tag, 2)  # checks x first
    # At most 2 pi(x) / NODE + 1 nodes, as pi(x) < 1.25506 x / ln x (Rosser-Schoenfeld).  Per node,
    # the tree holds int64 lengths while it is built (traced 34 B), then two float sums, a length
    # and a split flag (25 B), and 39 B as they are combined; prime_pi's tables go before the nodes.
    nodes = 2 * int(1.25506 * x / math.log(x)) // _PairwiseSum.NODE + 1
    require_budget(40 * nodes + WORKING_BYTES_PER_N * min(segment_size, x), "phi diagnostics")
    n = prime_pi(x)
    stream = _PairwiseSum(n)
    stream.add(np.array([0.5]))  # the one even prime
    roots = primes_up_to(max(2, math.isqrt(x))).primes.tolist()
    # The float log may fall one short at an exact power, hence + 2 and the test.
    powers = [(p, a, p**a) for p in roots for a in range(2, int(math.log(x, p)) + 2) if p**a <= x]
    odd_powers = np.sort(np.array([q for p, _, q in powers if p > 2], dtype=np.int64))
    hists = LevelSnapshots([x], f_tag, False)
    for seg in segments:
        f = seg.f
        hists.add(seg, f)
        ones = np.equal(f, 1, out=f.view(bool))  # f is read no more: reuse its bytes
        i, j = np.searchsorted(odd_powers, (seg.lo, seg.hi))
        ones[(odd_powers[i:j] - seg.lo) >> 1] = False
        ps = np.flatnonzero(ones)
        ps *= 2
        ps += seg.lo
        stream.add(np.divide(1.0, ps))
        del seg, f, ones, ps  # the view holds its block, which goes before the next is sieved
        if stream.fed > n:
            break
    if stream.fed != n:
        raise CertificateError(f"phi's sweep found {stream.fed} primes up to {x}, but pi(x) = {n}")
    # Exponent 1 terms: f(p) = 1 for both tags.
    b_sum, a_sum = stream.totals()
    for p, a, power in powers:
        fv = prime_power_level(a, f_tag)
        a_sum += fv * (1.0 - 1.0 / p)
        b_sum += (fv * fv) / power
    max_count = int(hists.at(x).max())
    return PhiDiagnostics(x, f_tag, a_sum, b_sum, b_sum / a_sum, max_count, x / max_count)


def phi_json_dict(d: PhiDiagnostics, config_hash: str) -> dict:
    return {
        "x": d.x,
        "f": d.f_tag,
        "A": d.a_sum,
        "B": d.b_sum,
        "phi": d.phi,
        "max_level_count": d.max_level_count,
        "K_of_x": d.k_of_x,
        "config_hash": config_hash,
    }
