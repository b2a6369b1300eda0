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
from .census import add_level_counts, normalize_f
from .errors import CertificateError
from .gfunction import GFunction
from .primeset import PrimeSetS
from .sieve import iter_factor_segments, primes_up_to


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


# f(n) <= 63 for every n < 2**63, so g values are capped here: a capped
# value never matches, and a product of two capped values (at most 4096)
# fits in uint16 before it is capped again.
G_SATURATION = 64


def _g_segment_values(g: GFunction, lo: int, hi: int) -> np.ndarray:
    """min(g(n), G_SATURATION) for n in [lo, hi) as uint16.

    Built by stepping the multiples of each table prime.
    """
    out = np.ones(hi - lo, dtype=np.uint16)
    for entry in g.entries:
        sl = out[-lo % entry.prime :: entry.prime]
        sl *= min(entry.value, G_SATURATION)
        np.minimum(sl, G_SATURATION, out=sl)
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
    for seg in iter_factor_segments(1, x + 1, segment_size, threads):
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

    # (cutoff, level of r) per family; f <= 63 never reaches G_SATURATION.
    families = []
    for p in members:
        power, a = p, 1
        while power <= x:
            target = table[p] - a if tag == "big_omega" else table[p] - 1
            if 0 <= target < G_SATURATION:
                families.append((x // power, target))
            power, a = power * p, a + 1
    cutoffs = sorted({y for y, _ in families})
    snapshots: dict[int, np.ndarray] = {}
    hist = np.zeros(G_SATURATION, dtype=np.int64)
    checked = 0
    for seg in iter_factor_segments(1, x + 1, segment_size, threads):
        f = seg.values(tag)
        hits = np.zeros(len(f), dtype=np.uint8)  # members dividing n
        want = np.zeros(len(f), dtype=np.uint8)  # capped g(p) of such a member p
        for p in members:
            hits[-seg.lo % p :: p] += 1
            want[-seg.lo % p :: p] = min(table[p], G_SATURATION)
        # r route: lift members' multiples above every kept level; snapshot at cutoffs.
        levels = f + (hits != 0) * np.uint8(G_SATURATION)
        start = 0
        for y in cutoffs[len(snapshots) :]:
            end = min(y + 1, seg.hi) - seg.lo
            hist += np.bincount(levels[start:end], minlength=2 * G_SATURATION)[:G_SATURATION]
            if y >= seg.hi:
                break
            snapshots[y], start = hist.copy(), end
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

    One sweep of [1, x] fills a level histogram and writes 1/p for each
    prime (big_omega == 1) into a buffer sized by pi(x) < 1.25506 x / ln x
    (Rosser-Schoenfeld), ascending whatever the segments or threads.  The
    exponent-1 terms are np.sum over it: the pairwise summation tree depends
    only on the length, so the floats match summing a prime table; math.fsum
    would round differently and change the printed A and B.
    """
    if x < 2:
        raise ValueError(f"phi_diagnostics requires x >= 2, got {x}")
    tag = normalize_f(f_tag)
    segments = iter_factor_segments(1, x + 1, segment_size, threads)  # checks x first
    cap = int(1.25506 * x / math.log(x)) + 1
    require_budget(8 * cap + WORKING_BYTES_PER_N * min(segment_size, x), "phi diagnostics")
    recips = np.empty(cap, dtype=np.float64)  # unwritten pages are never faulted in
    levels = np.zeros(256, dtype=np.int64)
    k = 0
    for seg in segments:
        add_level_counts(levels, seg.values(tag))
        ps = np.flatnonzero(seg.big_omega == 1) + seg.lo
        np.divide(1.0, ps, out=recips[k : k + len(ps)])
        k += len(ps)
    recips = recips[:k]
    # Exponent 1 terms: f(p) = 1 for both tags.
    b_sum = float(np.sum(recips))
    np.subtract(1.0, recips, out=recips)
    a_sum = float(np.sum(recips))
    # Higher powers exist only for p <= sqrt(x).
    for p in primes_up_to(max(2, math.isqrt(x))).primes.tolist():
        weight = 1.0 - 1.0 / p
        power, a = p * p, 2
        while power <= x:
            fv = 1 if tag == "omega" else a
            a_sum += fv * weight
            b_sum += (fv * fv) / power
            power, a = power * p, a + 1
    max_count = int(levels.max())
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
