"""Level-set censuses, mode finding, tails, and windows."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from omega_proximity import sieve
from omega_proximity.census import (
    CensusTable,
    LevelSnapshots,
    add_level_counts,
    census,
    census_csv_lines,
    census_metadata,
    concentration_interval,
    concentration_tail,
    interval_from_center,
    levels_in_interval,
    mode_k,
)
from omega_proximity.primeset import (
    PrimeSetS,
    coprime_count_inclusion_exclusion,
    coprime_mask,
    power_prime_set,
)
from omega_proximity.proximity import phi_diagnostics

from oracles import census_slow, concentration_tail_slow, mode_slow


def test_census_100_omega():
    t = census(100, "omega")
    assert t.counts == {0: 1, 1: 35, 2: 56, 3: 8}
    assert mode_k(t) == (2, 56)
    assert t.total() == 100


def test_census_100_big_omega():
    t = census(100, "big_omega")
    assert t.counts == {0: 1, 1: 25, 2: 34, 3: 22, 4: 12, 5: 4, 6: 2}
    assert mode_k(t) == (2, 34)


def test_census_trivial_x():
    assert census(1, "omega").counts == {0: 1}
    with pytest.raises(ValueError):
        census(0, "omega")


def test_census_rejects_x_beyond_int64(monkeypatch):
    # Raised budget: the range check, not the memory check, must refuse it,
    # before the sieve primes or a segment exist.
    def never(*args, **kwargs):
        raise AssertionError("nothing may be swept or allocated")

    monkeypatch.setenv("OMEGA_PROXIMITY_BUDGET", str(1 << 40))
    monkeypatch.setattr(sieve, "_segment_factor_counts", never)
    monkeypatch.setattr(sieve, "primes_up_to", never)
    with pytest.raises(ValueError, match="lo < hi <="):
        census(2**63 - 1, "omega")


def test_buffers_sized_only_after_the_range_check(monkeypatch):
    # Raised budget: a sweep sizes its segments and phi_diagnostics a buffer
    # of about x bytes, so the range check must come before numpy is asked for one.
    def never(*args, **kwargs):
        raise AssertionError("nothing may be swept or allocated")

    monkeypatch.setenv("OMEGA_PROXIMITY_BUDGET", str(1 << 50))
    monkeypatch.setattr(sieve, "_segment_factor_counts", never)
    monkeypatch.setattr(sieve, "primes_up_to", never)
    monkeypatch.setattr(np, "empty", never)
    with pytest.raises(ValueError, match="lo < hi <="):
        sieve.iter_factor_segments(1, 2**63)
    with pytest.raises(ValueError, match="lo < hi <="):
        phi_diagnostics(2**63 - 1, "omega")


def test_add_level_counts_matches_bincount():
    # Levels below 16 take one pass per level, higher ones bincount in
    # chunks of 2**16, which the longer input splits with a short last one.
    rng = np.random.default_rng(7)
    cases = ((0, 5000), (1, 5000), (15, 5000), (16, 5000), (63, 5000), (127, 3 << 16 | 5))
    for top, size in cases:
        values = rng.integers(0, top + 1, size).astype(np.uint8)
        acc = np.zeros(256, dtype=np.int64)
        acc[3] = 5
        add_level_counts(acc, values)
        want = np.bincount(values, minlength=256)
        want[3] += 5
        assert np.array_equal(acc, want), top
    # Values past a 64-wide accumulator are parked and not counted, whether
    # the counted levels stop below 16, run past it, or are absent.
    for top, size in ((0, 5000), (8, 5000), (15, 5000), (16, 5000), (40, 3 << 16 | 5)):
        values = rng.integers(0, top + 1, size).astype(np.uint8)
        values[rng.random(size) < 0.3] += 64
        acc = np.zeros(64, dtype=np.int64)
        acc[3] = 5
        add_level_counts(acc, values)
        want = np.bincount(values, minlength=256)[:64]
        want[3] += 5
        assert np.array_equal(acc, want), top
    acc = np.zeros(64, dtype=np.int64)
    add_level_counts(acc, np.full(100, 64, dtype=np.uint8))
    assert not acc.any()
    acc = np.zeros(256, dtype=np.int64)
    add_level_counts(acc, np.zeros(0, dtype=np.uint8))
    assert not acc.any()


def test_census_matches_oracle():
    for tag in ("omega", "big_omega"):
        assert census(2000, tag).counts == census_slow(2000, tag)


def test_restricted_census_matches_oracle(power_set_5):
    t = census(2000, "big_omega", restrict=power_set_5)
    assert t.counts == census_slow(2000, "big_omega", list(power_set_5.members))
    assert t.restricted_to is power_set_5


@st.composite
def _prime_sets(draw):
    # Odd members, one of them above every x drawn here, led by 2 or not:
    # a set with 2 counts odd n only, any other set needs the lift to even n.
    odd = draw(st.lists(st.sampled_from([3, 5, 7, 11, 13, 17, 31, 61, 127, 8191]),
                        max_size=5, unique=True))
    return ([2] if draw(st.booleans()) else []) + sorted(odd)


@settings(max_examples=25, deadline=None)
@given(x=st.integers(1, 5000), tag=st.sampled_from(["omega", "big_omega"]), members=_prime_sets())
@example(x=1, tag="omega", members=[])
@example(x=2, tag="big_omega", members=[2])
@example(x=3, tag="omega", members=[3])
@example(x=4095, tag="big_omega", members=[])
@example(x=4096, tag="big_omega", members=[3, 5])
@example(x=4096, tag="omega", members=[2, 3])
@example(x=4097, tag="omega", members=[])
@example(x=4097, tag="big_omega", members=[2, 7])
def test_census_matches_slow_oracle_on_random_sets(x, tag, members):
    # Each x >> a is a cutoff of the lift; at 2**k - 1, 2**k and 2**k + 1
    # they fall at the ends of the odd sweep and of its segments.
    want = census_slow(x, tag, members)
    restrict = PrimeSetS(tuple(members)) if members else None
    for segment_size in (64, 1000, 1 << 20):
        for threads in (1, 2):
            got = census(x, tag, restrict, segment_size, threads)
            assert got.counts == want, (segment_size, threads)


# Cutoffs at 1, at 2**k and at 2**k +- 1 fall at the ends of odd segments and
# of their 2-adic cutoffs y >> a.
_CUTOFFS = st.one_of(
    st.integers(1, 5000),
    st.sampled_from(sorted({1, *(2**k + d for k in range(1, 13) for d in (-1, 0, 1))})),
)


@settings(max_examples=25, deadline=None)
@given(ys=st.lists(_CUTOFFS, min_size=1, max_size=6), past=st.integers(0, 3000),
       tag=st.sampled_from(["omega", "big_omega"]), members=_prime_sets())
@example(ys=[1], past=0, tag="omega", members=[])
@example(ys=[1, 2, 3, 4095, 4096, 4097], past=0, tag="big_omega", members=[2, 3])
@example(ys=[1023, 1024, 1025, 2048], past=1, tag="omega", members=[3, 5])
@example(ys=[2047, 4096], past=0, tag="big_omega", members=[])
def test_level_snapshots_match_slow_census_at_every_cutoff(ys, past, tag, members):
    # Each odd segment's levels go in with members' multiples parked at
    # 64 + f (64 and up are never counted); the sweep runs past the last cutoff.
    want = {y: census_slow(y, tag, members) for y in set(ys)}
    for segment_size in (64, 1000, 1 << 20):
        for threads in (1, 2):
            hists = LevelSnapshots(ys, tag, 2 in members)
            for seg in sieve.iter_factor_segments(1, max(ys) + past + 1, segment_size, threads, tag, 2):
                keep = coprime_mask(seg.lo, seg.hi, members, 2)
                hists.add(seg, np.where(keep, seg.f, sieve.LEVEL_CEILING + seg.f))
            for y, counts in want.items():
                got = {k: int(c) for k, c in enumerate(hists.at(y)) if c}
                assert got == counts, (y, segment_size, threads)


@settings(max_examples=20, deadline=None)
@given(x=st.integers(1, 100_000), members=_prime_sets(), segment_size=st.sampled_from([1000, 1 << 20]))
def test_restricted_total_matches_inclusion_exclusion(x, members, segment_size):
    restrict = PrimeSetS(tuple(members))
    for tag in ("omega", "big_omega"):
        total = census(x, tag, restrict, segment_size).total()
        assert total == coprime_count_inclusion_exclusion(x, members), tag


def test_partition_unrestricted():
    for x in (1, 37, 4096):
        assert census(x, "omega").total() == x
        assert census(x, "big_omega").total() == x


def test_partition_restricted(power_set_5):
    for x in (10, 500, 20_000):
        t = census(x, "omega", restrict=power_set_5)
        assert t.total() == coprime_count_inclusion_exclusion(x, power_set_5.members)


def test_segment_size_independence():
    base = census(3000, "omega")
    assert census(3000, "omega", segment_size=64).counts == base.counts
    assert census(3000, "omega", segment_size=257).counts == base.counts


def test_mode_tie_break_prefers_smaller_level():
    t = CensusTable(10, "omega", None, {0: 3, 1: 5, 2: 5})
    assert mode_k(t) == (1, 5)
    assert mode_slow(t.counts) == (1, 5)


def test_concentration_tail_small():
    assert concentration_tail(3, 5.0) == 2
    assert concentration_tail(100, 1.0) == 0
    with pytest.raises(ValueError):
        concentration_tail(2, 0.1)
    for bad in (0.0, math.inf, math.nan):
        with pytest.raises(ValueError):
            concentration_tail(100, bad)


def test_concentration_tail_matches_oracle():
    for delta in (0.1, 0.5):
        assert concentration_tail(500, delta) == concentration_tail_slow(500, delta)


def test_concentration_tail_frozen_at_1e4():
    assert concentration_tail(10_000, 0.1) == 33


def test_concentration_tail_memory_is_per_segment():
    # One float64 buffer per segment, worked in place, besides the sweep's own
    # 3 B per entry; separate arange, log, log, difference and abs arrays
    # took about 34 B per entry.
    segment_size = 1 << 16
    tracemalloc.start()
    try:
        assert concentration_tail(2_000_000, 0.1, segment_size=segment_size) == 6980
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 24 * segment_size


def test_concentration_tail_segment_independence():
    assert concentration_tail(4000, 0.1, segment_size=64) == concentration_tail(4000, 0.1)


def test_interval_geometry():
    w = interval_from_center(4.0, 0.5)
    assert w.halfwidth == 4.0
    assert w.lo == 0.0 and w.hi == 8.0
    with pytest.raises(ValueError):
        interval_from_center(0.0, 0.1)
    for bad in (0.0, math.inf, math.nan):
        with pytest.raises(ValueError):
            interval_from_center(2.0, bad)


def test_concentration_interval_frozen():
    # center and halfwidth cross-checked against 50-digit arithmetic
    w = concentration_interval(1_000_000, 0.1)
    assert math.isclose(w.center, 2.625791914476011, rel_tol=1e-15)
    assert math.isclose(w.halfwidth, 1.784662852697308, rel_tol=1e-15)
    assert w.lo == w.center - w.halfwidth
    assert w.hi == w.center + w.halfwidth
    with pytest.raises(ValueError):
        concentration_interval(15, 0.1)


def test_interval_matches_high_precision_arithmetic():
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 50
    exponent = mp.mpf(1) / 2 + mp.mpf("0.1")
    for x in (16, 1_000_000, 10_000_000):
        w = concentration_interval(x, 0.1)
        center = mp.log(mp.log(x))
        assert math.isclose(w.center, float(center), rel_tol=1e-14)
        assert math.isclose(w.halfwidth, float(center**exponent), rel_tol=1e-13)


def test_levels_in_interval_counts_window_mass():
    t = census(100, "omega")
    w = interval_from_center(2.0, 0.1)  # halfwidth ~1.52, levels 1..3
    assert levels_in_interval(t, w) == 35 + 56 + 8
    narrow = interval_from_center(2.0, 0.001)  # levels 1..3 still
    assert levels_in_interval(t, narrow) == 99


def test_splitting_identity(power_set_5):
    t = census(5000, "omega", restrict=power_set_5)
    w = concentration_interval(5000, 0.1)
    lo = max(math.ceil(w.lo), 0)
    hi = math.floor(w.hi)
    inside = sum(c for k, c in t.counts.items() if lo <= k <= hi)
    outside = sum(c for k, c in t.counts.items() if not lo <= k <= hi)
    assert inside == levels_in_interval(t, w)
    assert inside + outside == t.total()


def test_pigeonhole_bound():
    for x in (10_000, 100_000):
        t = census(x, "omega")
        w = concentration_interval(x, 0.1)
        lo = max(math.ceil(w.lo), 0)
        hi = math.floor(w.hi)
        peak = max(t.counts.get(k, 0) for k in range(lo, hi + 1))
        assert levels_in_interval(t, w) <= math.ceil(2 * w.halfwidth + 1) * peak


def test_csv_lines():
    t = census(100, "omega")
    lines = census_csv_lines(t)
    assert lines[0] == "k,count"
    assert lines[1:] == ["0,1", "1,35", "2,56", "3,8"]


def test_metadata_fields(power_set_5):
    t = census(100, "omega")
    meta = census_metadata(t, "census.csv", "abc123")
    assert meta["x"] == 100
    assert meta["mode_k"] == 2
    assert meta["mode_count"] == 56
    assert meta["total"] == 100
    assert meta["config_hash"] == "abc123"
    assert meta["restricted"] is False
    rmeta = census_metadata(census(100, "omega", restrict=power_set_5), "c.csv", "h")
    assert rmeta["restricted"] is True
    assert rmeta["set"]["members"] == [3, 5, 11, 17, 29]
