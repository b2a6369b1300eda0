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
from .sieve import LEVEL_CEILING, FactorCensus, iter_factor_segments, prime_power_level, primes_up_to


@dataclass(frozen=True)
class ReportRow:
    x: int
    e_count: int
    l_count: int
    loglogx: float
    ratio_e: float
    ratio_l: float


@dataclass(frozen=True)
class ProximityReport:
    """Growth table for one g over an ascending grid of x."""

    f_tag: str
    eps: float
    g: GFunction
    rows: tuple[ReportRow, ...]


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
            sl = out[(entry.prime - lo) % (step * entry.prime) // step :: entry.prime]
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
            marks[(p - seg.lo) % (2 * p) // 2 :: p] += mark
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
        del marks, gv  # 4 B per entry, freed before the next segment is sieved

    count = sum(int(hists.at(y)[level]) for y, level in families)
    if count != found:
        raise CertificateError(f"certificate routes disagree: {count} by r, {found} by n")
    return count, found


def growth_report(
    x_grid: list[int],
    eps: float,
    f_tag: str,
    g: GFunction,
    segment_size: int = DEFAULT_SEGMENT_SIZE,
    threads: int = 1,
) -> ProximityReport:
    """Coincidence and certificate counts with growth ratios over a grid.

    ratio_e = E * (log log x)**(1/2 + eps) / x, and likewise ratio_l; a
    ratio that stays bounded away from zero as x grows is the empirical
    signature the construction aims for.  g stays fixed across the grid,
    and L counts the witnesses over g.prime_set (0 without one).
    """
    if not 0 < eps < math.inf:
        raise ValueError(f"eps must be positive and finite, got {eps}")
    grid = sorted({int(v) for v in x_grid})
    for v in grid:
        if v < 16:
            raise ValueError(f"grid values must be >= 16, got {v}")
    rows = []
    for x in grid:
        e_count = coincidence_count(x, f_tag, g, segment_size, threads)
        l_count, _ = certificate_count(x, g, f_tag, segment_size, threads)
        loglogx = math.log(math.log(x))
        scale = loglogx ** (0.5 + eps) / x
        rows.append(ReportRow(x, e_count, l_count, loglogx, e_count * scale, l_count * scale))
    return ProximityReport(f_tag, eps, g, tuple(rows))


def report_csv_lines(report: ProximityReport) -> list[str]:
    lines = ["x,f,E,L,loglogx,eps,ratio_E,ratio_L"]
    for r in report.rows:
        lines.append(
            f"{r.x},{report.f_tag},{r.e_count},{r.l_count},"
            f"{r.loglogx!r},{report.eps!r},{r.ratio_e!r},{r.ratio_l!r}"
        )
    return lines


def report_json_dict(report: ProximityReport, config_hash: str) -> dict:
    return {
        "f": report.f_tag,
        "eps": report.eps,
        "set": report.g.prime_set.to_json_dict() if report.g.prime_set else None,
        "g": report.g.to_json_dict(),
        "rows": [
            {
                "x": r.x,
                "E": r.e_count,
                "L": r.l_count,
                "loglogx": r.loglogx,
                "ratio_E": r.ratio_e,
                "ratio_L": r.ratio_l,
            }
            for r in report.rows
        ],
        "config_hash": config_hash,
    }


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
    census.LevelSnapshots, and writes 1/p for each prime (2, then each odd
    n with f(n) == 1 that is no prime power p**a, a >= 2, listed first) into
    a buffer sized by pi(x) < 1.25506 x / ln x (Rosser-Schoenfeld), ascending
    whatever the segments or threads.  The exponent-1 terms are np.sum over
    it: the pairwise summation tree depends only on the length, so the floats
    match a prime table's; math.fsum would round, and print A and B, otherwise.
    """
    if x < 2:
        raise ValueError(f"phi_diagnostics requires x >= 2, got {x}")
    segments = iter_factor_segments(1, x + 1, segment_size, threads, f_tag, 2)  # checks x first
    cap = int(1.25506 * x / math.log(x)) + 1
    require_budget(8 * cap + WORKING_BYTES_PER_N * min(segment_size, x), "phi diagnostics")
    roots = primes_up_to(max(2, math.isqrt(x))).primes.tolist()
    # The float log may fall one short at an exact power, hence + 2 and the test.
    powers = [(p, a, p**a) for p in roots for a in range(2, int(math.log(x, p)) + 2) if p**a <= x]
    odd_powers = np.sort(np.array([q for p, _, q in powers if p > 2], dtype=np.int64))
    recips = np.empty(cap, dtype=np.float64)  # unwritten pages are never faulted in
    recips[0], k = 0.5, 1  # the one even prime
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
        np.divide(1.0, ps, out=recips[k : k + len(ps)])
        k += len(ps)
    recips = recips[:k]
    # Exponent 1 terms: f(p) = 1 for both tags.
    b_sum = float(np.sum(recips))
    np.subtract(1.0, recips, out=recips)
    a_sum = float(np.sum(recips))
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
