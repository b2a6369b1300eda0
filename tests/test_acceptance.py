"""Acceptance gate: one test per advertised criterion.

Each test prints one [PASS]/[FAIL] line carrying the measured values, then
asserts, so the verdict and the evidence travel together.  The heavyweight
shared inputs (omega censuses at the four report scales) come from session
fixtures in conftest.

Criterion 5 (the concentration tail) checks what the Turan-Kubilius
variance bound guarantees, not a monotone decrease.  With
T = (log log x)**1.1 and N_k = exp(exp(k - T)), an n >= 2 at level
omega(n) = k lies in the upper tail exactly when n < N_k, and at these
scales the lower side (log log n > k + T) is empty.  So the tail equals the
band sum of pi_k(min(x, N_k)) over k, and the test checks that identity at
each grid x.  The ratio tail(x)/x is a sawtooth because whole levels enter
and leave at these boundaries: at 10^4, N_5 is about 6.6e5, so the whole
k = 5 band counts (33); at 10^7, N_5 is about 922, below 2310, the least n
with omega(n) = 5, so the k = 5 band is empty and the tail is the whole
k >= 6 band (72902 + 1716 + 1 = 74619).  What decreases is the envelope
S2(x) / (x T^2), with S2(x) = sum over 2 <= n <= x of
(omega(n) - log log n)^2, which bounds tail(x)/x by Chebyshev's inequality.
"""

import math
import random
import time

import numpy as np
import pytest

from omega_proximity.census import (
    census,
    concentration_interval,
    concentration_tail,
    levels_in_interval,
    mode_k,
)
from omega_proximity.cli import main as cli_main
from omega_proximity.gfunction import GEntry, GFunction, build_g
from omega_proximity.primeset import coprime_count_inclusion_exclusion
from omega_proximity.proximity import (
    certificate_count,
    coincidence_count,
    growth_report,
    phi_diagnostics,
)
from omega_proximity.sieve import iter_factor_segments

from oracles import coincidence_count_slow, eval_g_slow, factorize_slow

GRID = (10_000, 100_000, 1_000_000, 10_000_000)
TAIL_DELTA = 0.1


def line(name: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")


@pytest.fixture(scope="module")
def g_per_x(power_set_5):
    return {x: build_g(x, power_set_5, "big_omega") for x in GRID[:3]}


@pytest.fixture(scope="module")
def g_at_top(power_set_5):
    return build_g(GRID[-1], power_set_5, "big_omega")


@pytest.fixture(scope="module")
def full_report(g_at_top):
    return growth_report(list(GRID), 0.1, "big_omega", g_at_top)


def test_c01_sieve_matches_trial_division_to_1e5():
    start = time.monotonic()
    omega, big_omega = (
        np.concatenate([seg.f for seg in iter_factor_segments(1, 100_000, f_tag=tag)])
        for tag in ("omega", "big_omega")
    )
    bad = 0
    for n in range(1, 100_000):
        fs = factorize_slow(n)
        if omega[n - 1] != len(set(fs)) or big_omega[n - 1] != len(fs):
            bad += 1
    elapsed = time.monotonic() - start
    ok = bad == 0 and elapsed < 10.0
    line("sieve-oracle-1e5", ok, f"mismatches={bad} elapsed={elapsed:.1f}s (limit 10s)")
    assert bad == 0
    assert elapsed < 10.0


def test_c02_census_partition(power_set_5):
    totals = {x: census(x, "omega").total() for x in (100, 10_000, 1_000_000)}
    restricted = census(1_000_000, "big_omega", restrict=power_set_5).total()
    expected = coprime_count_inclusion_exclusion(1_000_000, power_set_5.members)
    ok = all(totals[x] == x for x in totals) and restricted == expected
    line(
        "census-partition",
        ok,
        f"totals={totals} restricted@1e6={restricted} inclusion-exclusion={expected}",
    )
    assert totals == {100: 100, 10_000: 10_000, 1_000_000: 1_000_000}
    assert restricted == expected


def test_c03_small_scale_ground_truth():
    pi1 = census(100, "omega").get(1)
    e_ident = coincidence_count(100, "big_omega", GFunction.identity())
    oracle_pi1 = sum(1 for n in range(1, 101) if len(set(factorize_slow(n))) == 1)
    oracle_e = coincidence_count_slow(100, "big_omega", {})
    ok = pi1 == oracle_pi1 == 35 and e_ident == oracle_e == 25
    line("ground-truth-100", ok, f"pi_1(100)={pi1} (oracle {oracle_pi1}), E(identity)={e_ident} (oracle {oracle_e})")
    assert pi1 == oracle_pi1 == 35
    assert e_ident == oracle_e == 25


def test_c04_mode_tracks_loglog(omega_census_by_x):
    details = []
    ok = True
    for x in GRID:
        k_star, max_count = mode_k(omega_census_by_x[x])
        center = math.log(math.log(x))
        ratio = max_count * math.sqrt(center) / x
        ok = ok and abs(k_star - center) <= 2 and 0.1 <= ratio <= 3
        details.append(f"x={x:.0e} k*={k_star} loglog={center:.3f} ratio={ratio:.3f}")
    line("mode-near-loglog", ok, "; ".join(details))
    assert ok


def _upper_cut(x: int, k: int, threshold: float) -> int:
    """Largest n <= x whose level-k deviation test passes, 1 if none does.

    The exact boundary is N_k = exp(exp(k - threshold)).  The integers
    around it are put through the tail's own float test, so the cut is
    neither one too high nor one too low.
    """
    guess = min(max(math.floor(math.exp(math.exp(k - threshold))), 2), x)
    lo, hi = max(2, guess - 2), min(x, guess + 2)
    n = np.arange(lo, hi + 1, dtype=np.float64)
    inside = np.abs(k - np.log(np.log(n))) > threshold
    m = int(inside.sum())
    assert inside[:m].all() and not inside[m:].any(), f"level {k}: test not monotone near {guess}"
    assert m < len(inside) or hi == x, f"level {k}: cut lies above {hi}"
    assert m > 0 or lo == 2, f"level {k}: cut lies below {lo}"
    return lo + m - 1


def _tail_bands(x: int, threshold: float, whole) -> dict[int, int]:
    """pi_k(min(x, N_k)) for each level k >= 1 whose cut is at least 2.

    pi_k comes from the census at x where the band is whole and from a
    census at the cut where N_k falls below x.  Level 0 holds only n = 1,
    which the tail excludes.
    """
    bands = {}
    for k in sorted(whole.counts):
        if k == 0:
            continue
        cut = _upper_cut(x, k, threshold)
        if cut == x:
            bands[k] = whole.get(k)
        elif cut >= 2:
            bands[k] = census(cut, "omega").get(k)
    return bands


def _deviation_square_sums(grid) -> dict[int, float]:
    """S2(x) = sum over 2 <= n <= x of (omega(n) - log log n)**2 at every grid x, one sweep."""
    parts = {x: [] for x in grid}
    for seg in iter_factor_segments(2, max(grid) + 1, f_tag="omega"):
        n = np.arange(seg.lo, seg.hi, dtype=np.float64)
        sq = (seg.f - np.log(np.log(n))) ** 2
        for x in grid:
            if seg.lo <= x:
                parts[x].append(float(sq[: min(x + 1, seg.hi) - seg.lo].sum()))
    return {x: math.fsum(p) for x, p in parts.items()}


def test_c05_tail_ratio_trend(omega_census_by_x):
    tails = {x: concentration_tail(x, TAIL_DELTA) for x in GRID}
    thresholds = {x: math.log(math.log(x)) ** (1.0 + TAIL_DELTA) for x in GRID}
    bands = {x: _tail_bands(x, thresholds[x], omega_census_by_x[x]) for x in GRID}
    s2 = _deviation_square_sums(GRID)
    envelope = {x: s2[x] / (x * thresholds[x] ** 2) for x in GRID}
    # The lower side needs log log n > k + T >= 1 + T, which no n <= x reaches.
    lower_empty = all(math.log(math.log(x)) < 1 + thresholds[x] for x in GRID)
    identity = all(tails[x] == sum(bands[x].values()) for x in GRID)
    chebyshev = all(tails[x] * thresholds[x] ** 2 <= s2[x] for x in GRID)
    trend = all(envelope[a] > envelope[b] for a, b in zip(GRID, GRID[1:]))
    ok = lower_empty and identity and chebyshev and trend
    line(
        "tail-ratio-trend",
        ok,
        "ratios " + ", ".join(f"{x:.0e}: {tails[x]}/{x} = {tails[x] / x!r}" for x in GRID)
        + "; bands " + ", ".join(f"{x:.0e}: {bands[x]}" for x in GRID)
        + "; envelope " + ", ".join(f"{x:.0e}: {envelope[x]:.4f}" for x in GRID),
    )
    assert lower_empty, "the lower tail may be nonempty at a grid x; the band sum covers only the upper side"
    for x in GRID:
        assert tails[x] == sum(bands[x].values()), (
            f"tail({x}) = {tails[x]} but the band sum of pi_k(min(x, N_k)) is "
            f"{sum(bands[x].values())} (bands {bands[x]})"
        )
        assert tails[x] * thresholds[x] ** 2 <= s2[x], (
            f"tail({x}) * T^2 = {tails[x] * thresholds[x] ** 2:.1f} exceeds S2 = {s2[x]:.1f}"
        )
    assert trend, (
        "the Turan-Kubilius envelope S2(x) / (x T^2) does not strictly decrease: "
        + ", ".join(f"{x:.0e}: {envelope[x]:.4f}" for x in GRID)
    )


def test_c06_pigeonhole_window(omega_census_by_x):
    details = []
    ok = True
    for x in (10_000, 1_000_000):
        t = omega_census_by_x[x]
        w = concentration_interval(x, 0.1)
        lo = max(math.ceil(w.lo), 0)
        hi = math.floor(w.hi)
        n_levels = hi - lo + 1
        peak = max(t.counts.get(k, 0) for k in range(lo, hi + 1))
        mass = levels_in_interval(t, w)
        ok = ok and mass <= n_levels * peak
        details.append(f"x={x:.0e} mass={mass} <= {n_levels}*{peak}")
    line("pigeonhole-window", ok, "; ".join(details))
    assert ok


def test_c07_certificate_soundness(g_per_x):
    start = time.monotonic()
    details = []
    ok = True
    for x in GRID[:3]:
        g = g_per_x[x]
        l_count, checked = certificate_count(x, g)
        e_count = coincidence_count(x, "big_omega", g)
        ok = ok and l_count <= e_count and checked == l_count
        details.append(f"x={x:.0e} L={l_count} E={e_count} witnesses={checked}")
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 120.0
    line("certificate-soundness", ok, "; ".join(details) + f"; elapsed={elapsed:.1f}s")
    assert ok


def test_c08_count_matches_naive_loop(power_set_5):
    fs = [None] + [factorize_slow(n) for n in range(1, 10_001)]
    omega_arr = [None] + [len(set(f)) for f in fs[1:]]
    big_arr = [None] + [len(f) for f in fs[1:]]
    by_tag = {"omega": omega_arr, "big_omega": big_arr}
    gs = {
        "identity": GFunction.identity(),
        "g_big_omega": build_g(10_000, power_set_5, "big_omega"),
        "g_omega": build_g(10_000, power_set_5, "omega"),
    }
    details = []
    ok = True
    for tag, arr in by_tag.items():
        for gname, g in gs.items():
            table = g.table
            naive = sum(1 for n in range(1, 10_001) if arr[n] == eval_g_slow(n, table))
            lib = coincidence_count(10_000, tag, g)
            ok = ok and naive == lib
            details.append(f"{tag}/{gname}={lib}" + ("" if naive == lib else f"!=naive {naive}"))
    line("count-vs-naive-1e4", ok, "; ".join(details))
    assert ok


def test_c09_growth_report_ratios(full_report):
    rows = full_report.rows
    ok = all(r.ratio_l > 0 for r in rows) and all(r.ratio_e >= r.ratio_l for r in rows)
    detail = "; ".join(f"x={r.x:.0e} ratio_E={r.ratio_e:.4f} ratio_L={r.ratio_l:.4f}" for r in rows)
    line("growth-ratios", ok, detail)
    assert len(rows) == 4
    assert ok


def test_c10_phi_diagnostics(omega_census_by_x):
    small = phi_diagnostics(3, "omega")
    exact = abs(small.a_sum - 7 / 6) <= 1e-12 and abs(small.b_sum - 5 / 6) <= 1e-12
    lo = phi_diagnostics(10_000, "omega")
    hi = phi_diagnostics(10_000_000, "omega")
    busiest = all(
        d.max_level_count == mode_k(omega_census_by_x[d.x])[1] for d in (lo, hi)
    )
    trends = hi.phi < lo.phi and hi.k_of_x > lo.k_of_x
    ok = exact and busiest and trends
    line(
        "phi-diagnostics",
        ok,
        f"A(3)={small.a_sum:.12f} B(3)={small.b_sum:.12f}; "
        f"phi 1e4={lo.phi:.3e} -> 1e7={hi.phi:.3e}; K 1e4={lo.k_of_x:.3f} -> 1e7={hi.k_of_x:.3f}",
    )
    assert exact
    assert busiest
    assert trends


def test_c11_report_rerun_byte_identical(tmp_path):
    dirs = [tmp_path / "r1", tmp_path / "r2"]
    for d in dirs:
        d.mkdir()
        code = cli_main(
            ["report", "--grid", "10000,100000", "--eps", "0.1", "--out", str(d)]
        )
        assert code == 0
    same_csv = (dirs[0] / "report.csv").read_bytes() == (dirs[1] / "report.csv").read_bytes()
    same_json = (dirs[0] / "report.json").read_bytes() == (dirs[1] / "report.json").read_bytes()
    ok = same_csv and same_json
    line("report-determinism", ok, f"csv identical={same_csv} json identical={same_json}")
    assert ok


def test_c12_strong_multiplicativity_random():
    rng = random.Random(90125)
    pool = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37]
    cases = failures = 0
    for _ in range(5000):
        primes = rng.sample(pool, rng.randint(2, 5))
        entries = tuple(GEntry(p, rng.randint(1, 9), None, None, False) for p in sorted(primes))
        g = GFunction(None, None, "big_omega", entries)
        p = rng.choice(primes)
        a = rng.randint(2, 5)
        m = rng.randint(1, 4000)
        cases += 1
        if g.value(p**a * m) != g.value(p * m):
            failures += 1
        m = rng.randint(1, 30_000)
        n = rng.randint(1, 30_000)
        while math.gcd(m, n) != 1:
            n = rng.randint(1, 30_000)
        cases += 1
        if g.value(m * n) != g.value(m) * g.value(n):
            failures += 1
    ok = failures == 0 and cases == 10_000
    line("strong-multiplicativity", ok, f"cases={cases} failures={failures}")
    assert cases == 10_000
    assert failures == 0
