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
from .census import add_level_snapshots, lift_odd_levels, normalize_f
from .errors import CertificateError
from .gfunction import GFunction
from .primeset import PrimeSetS
from .sieve import LEVEL_CEILING, iter_factor_segments, prime_power_level, primes_up_to


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
    prime_set: PrimeSetS | None
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


def _g_segment_values(g: GFunction, lo: int, hi: int) -> np.ndarray:
    """min(g(n), LEVEL_CEILING) for n in [lo, hi) as uint16.

    Built by stepping the multiples of each table prime.  No f(n) reaches
    the cap, so a capped value never matches, and a product of two capped
    values (at most 4096) fits in uint16 before it is capped again.
    """
    out = np.ones(hi - lo, dtype=np.uint16)
    for entry in g.entries:
        sl = out[-lo % entry.prime :: entry.prime]
        sl *= min(entry.value, LEVEL_CEILING)
        np.minimum(sl, LEVEL_CEILING, out=sl)
    return out


def coincidence_count(
    x: int,
    f_tag: str,
    g: GFunction,
    segment_size: int = DEFAULT_SEGMENT_SIZE,
    threads: int = 1,
) -> int:
    """#{n <= x : f(n) = g(n)} exactly.

    n = 1 never matches: f(1) = 0 while g(1) = 1 (empty product).
    """
    if x < 0:
        raise ValueError(f"coincidence_count requires x >= 0, got {x}")
    if x == 0:
        return 0
    tag = normalize_f(f_tag)
    total = 0
    for seg in iter_factor_segments(1, x + 1, segment_size, threads, tag):
        gv = _g_segment_values(g, seg.lo, seg.hi)
        total += int((seg.values(tag) == gv).sum())
    return total


def certificate_count(
    x: int,
    prime_set: PrimeSetS,
    g: GFunction,
    f_tag: str = "big_omega",
    segment_size: int = DEFAULT_SEGMENT_SIZE,
    threads: int = 1,
) -> tuple[int, int]:
    """Certified lower bound for coincidence_count(x, f, g), counted two ways.

    The witnesses are n = r * p**a for each member p <= x and exponent
    a >= 1, where r <= x // p**a is coprime to every member and sits at the
    level that forces f(n) = g(n): big_omega(r) = g(p) - a for f =
    big_omega, omega(r) = g(p) - 1 for f = omega.  Distinct (p, a, r) give
    distinct n because r carries no member prime, so the families are
    disjoint and the total is a true lower bound.

    One sweep of [1, x] keeps only per-segment arrays.  The r route reads a
    level histogram of the integers no member divides at each cutoff
    x // p**a.  The n route counts the n that exactly one member p divides
    with f(n) = g(p); v_p(n) = a since r is coprime to every member, so
    these are the same witnesses, and each is checked against f(n) = g(n)
    over the whole g table.  Returns (count, witnesses_checked); a failed
    check or routes that disagree raise CertificateError.
    """
    tag = normalize_f(f_tag)
    members = [p for p in prime_set.members if p <= x]
    if not members:
        return 0, 0
    table = g.table
    for p in members:
        if p not in table:
            raise ValueError(f"g has no value for set member {p}")

    # (cutoff, level of r) per family; no f reaches LEVEL_CEILING.
    families = []
    for p in members:
        power, a = p, 1
        while power <= x:
            target = table[p] - prime_power_level(a, tag)
            if 0 <= target < LEVEL_CEILING:
                families.append((x // power, target))
            power, a = power * p, a + 1
    cutoffs = sorted({y for y, _ in families})
    snapshots: dict[int, np.ndarray] = {}
    hist = np.zeros(LEVEL_CEILING, dtype=np.int64)
    checked = 0
    for seg in iter_factor_segments(1, x + 1, segment_size, threads, tag):
        f = seg.values(tag)
        hits = np.zeros(len(f), dtype=np.uint8)  # members dividing n
        want = np.zeros(len(f), dtype=np.uint8)  # capped g(p) of such a member p
        for p in members:
            hits[-seg.lo % p :: p] += 1
            want[-seg.lo % p :: p] = min(table[p], LEVEL_CEILING)
        # r route: park members' multiples past the histogram; snapshot at cutoffs.
        levels = np.minimum(hits, 1)  # one temporary, then in place
        levels *= LEVEL_CEILING
        levels += f
        add_level_snapshots(hist, seg, levels, cutoffs, snapshots)
        # n route, with every witness checked against the full g table.
        witness = (hits == 1) & (f == want)
        found = int(np.count_nonzero(witness))
        if np.count_nonzero(witness & (f == _g_segment_values(g, seg.lo, seg.hi))) != found:
            raise CertificateError(f"certificate witness failed in [{seg.lo}, {seg.hi})")
        checked += found

    count = sum(int(snapshots[y][level]) for y, level in families)
    if count != checked:
        raise CertificateError(f"certificate routes disagree: {count} by r, {checked} by n")
    return count, checked


def growth_report(
    x_grid: list[int],
    eps: float,
    f_tag: str,
    prime_set: PrimeSetS | None,
    g: GFunction,
    segment_size: int = DEFAULT_SEGMENT_SIZE,
    threads: int = 1,
) -> ProximityReport:
    """Coincidence and certificate counts with growth ratios over a grid.

    ratio_e = E * (log log x)**(1/2 + eps) / x, and likewise ratio_l; a
    ratio that stays bounded away from zero as x grows is the empirical
    signature the construction aims for.  g stays fixed across the grid.
    """
    if eps <= 0:
        raise ValueError(f"eps must be positive, got {eps}")
    tag = normalize_f(f_tag)
    grid = sorted({int(v) for v in x_grid})
    for v in grid:
        if v < 16:
            raise ValueError(f"grid values must be >= 16, got {v}")
    rows = []
    for x in grid:
        e_count = coincidence_count(x, tag, g, segment_size, threads)
        if prime_set is not None and prime_set.members:
            l_count, _ = certificate_count(x, prime_set, g, tag, segment_size, threads)
        else:
            l_count = 0
        loglogx = math.log(math.log(x))
        scale = loglogx ** (0.5 + eps) / x
        rows.append(ReportRow(x, e_count, l_count, loglogx, e_count * scale, l_count * scale))
    return ProximityReport(tag, eps, prime_set, g, tuple(rows))


REPORT_CSV_HEADER = "x,f,E,L,loglogx,eps,ratio_E,ratio_L"


def report_csv_lines(report: ProximityReport) -> list[str]:
    lines = [REPORT_CSV_HEADER]
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
        "set": report.prime_set.to_json_dict() if report.prime_set else None,
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
    census.lift_odd_levels, and writes 1/p for each prime (2, then each odd
    n with f(n) == 1 that is no prime power p**a, a >= 2, listed first) into
    a buffer sized by pi(x) < 1.25506 x / ln x (Rosser-Schoenfeld), ascending
    whatever the segments or threads.  The exponent-1 terms are np.sum over
    it: the pairwise summation tree depends only on the length, so the floats
    match a prime table's; math.fsum would round, and print A and B, otherwise.
    """
    if x < 2:
        raise ValueError(f"phi_diagnostics requires x >= 2, got {x}")
    tag = normalize_f(f_tag)
    segments = iter_factor_segments(1, x + 1, segment_size, threads, tag, 2)  # checks x first
    cap = int(1.25506 * x / math.log(x)) + 1
    require_budget(8 * cap + WORKING_BYTES_PER_N * min(segment_size, x), "phi diagnostics")
    roots = primes_up_to(max(2, math.isqrt(x))).primes.tolist()
    # The float log may fall one short at an exact power, hence + 2 and the test.
    powers = [(p, a, p**a) for p in roots for a in range(2, int(math.log(x, p)) + 2) if p**a <= x]
    odd_powers = np.sort(np.array([q for p, _, q in powers if p > 2], dtype=np.int64))
    recips = np.empty(cap, dtype=np.float64)  # unwritten pages are never faulted in
    recips[0], k = 0.5, 1  # the one even prime
    cutoffs, snapshots = sorted(x >> a for a in range(x.bit_length())), {}
    levels = np.zeros(LEVEL_CEILING, dtype=np.int64)
    for seg in segments:
        f = seg.values(tag)
        add_level_snapshots(levels, seg, f, cutoffs, snapshots)
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
        fv = prime_power_level(a, tag)
        a_sum += fv * (1.0 - 1.0 / p)
        b_sum += (fv * fv) / power
    max_count = int(lift_odd_levels(snapshots, x, tag).max())
    return PhiDiagnostics(x, tag, a_sum, b_sum, b_sum / a_sum, max_count, x / max_count)


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
