"""Level-set censuses, mode finding, and tails."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from omega_proximity import census as census_module, sieve
from omega_proximity.census import (
    CensusTable,
    LevelSnapshots,
    add_level_counts,
    census,
    census_csv_lines,
    census_metadata,
    concentration_tail,
    mode_k,
)
from omega_proximity.errors import CapacityError
from omega_proximity.primeset import PrimeSetS, coprime_mask, power_prime_set
from omega_proximity.proximity import phi_diagnostics
from omega_proximity.sieve import level_tables

from oracles import (
    census_slow,
    census_slow_at,
    concentration_tail_slow,
    coprime_count_inclusion_exclusion,
    mode_slow,
)


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
    # Raised budget: a sweep sizes its segments, and phi_diagnostics its prime
    # count's tables and node sums, so the range check must come before numpy is asked for one.
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
    # One pass per level until every counted entry is, from a single level
    # to 127 and on inputs of 5000 and 3 * 2**16 + 5 entries.
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
    # the counted levels stop early, run to 40, or are absent.
    for top, size in ((0, 5000), (8, 5000), (15, 5000), (16, 5000), (40, 3 << 16 | 5)):
        values = rng.integers(0, top + 1, size).astype(np.uint8)
        values[rng.random(size) < 0.3] += 64
        acc = np.zeros(64, dtype=np.int64)
        acc[3] = 5
        add_level_counts(acc, values)
        want = np.bincount(values, minlength=256)[:64]
        want[3] += 5
        assert np.array_equal(acc, want), top
    # Each level once, and a lone top value among parked ones: the last pass counts one entry.
    for values in (np.arange(64, dtype=np.uint8), np.array([0] * 99 + [40] + [64] * 9, dtype=np.uint8)):
        acc = np.zeros(64, dtype=np.int64)
        add_level_counts(acc, values)
        assert np.array_equal(acc, np.bincount(values, minlength=128)[:64])
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


# The value p * p and its neighbours, where the prime p starts to count.
_SQUARES = [p * p + d for p in (2, 3, 7, 31, 997) for d in (-1, 0, 1)]


@settings(max_examples=30, deadline=None)
@given(x=st.one_of(st.integers(1, 5000), st.integers(1, 10**6), st.sampled_from(_SQUARES)),
       tag=st.sampled_from(["omega", "big_omega"]), members=_prime_sets())
@example(x=1, tag="omega", members=[])
@example(x=2, tag="big_omega", members=[2])
@example(x=3, tag="omega", members=[3])
@example(x=4, tag="big_omega", members=[])
@example(x=4, tag="omega", members=[2, 3])
@example(x=48, tag="big_omega", members=[3])
@example(x=50, tag="omega", members=[2, 7])
@example(x=994_008, tag="big_omega", members=[])
@example(x=994_010, tag="omega", members=[2, 3, 8191])
def test_level_tables_match_census_at_every_value(x, tag, members):
    # Rows up to 3000 against trial division, the others against census; the
    # last row, at x, against census as well.
    values, table = level_tables(x, tag, members)
    restrict = PrimeSetS(tuple(members)) if members else None
    assert values.tolist() == sorted({x // k for k in range(1, x + 1)})
    got = {v: {k: int(c) for k, c in enumerate(row) if c} for v, row in zip(values.tolist(), table)}
    slow = census_slow_at([v for v in got if v <= 3000], tag, members)
    for v, counts in got.items():
        assert counts == (slow[v] if v <= 3000 else census(v, tag, restrict).counts), v
    assert got[x] == census(x, tag, restrict).counts


def test_level_tables_sweep_nothing_and_sieve_below_the_root(monkeypatch):
    # No sieve kernel and no sweep, in the tables or in the tail they feed,
    # and no prime table past sqrt(x).
    cases = [(10**6, "omega", (3, 5, 8191)), (999_999, "big_omega", (2, 7)), (3, "omega", ())]
    want = [census(x, tag, PrimeSetS(members) if members else None).counts for x, tag, members in cases]

    def never(*args, **kwargs):
        raise AssertionError("nothing may be swept")

    limits, real = [], sieve.primes_up_to

    def recorded(limit):
        limits.append(limit)
        return real(limit)

    monkeypatch.setattr(sieve, "_segment_factor_counts", never)
    for module in (sieve, census_module):
        monkeypatch.setattr(module, "iter_factor_segments", never)
    monkeypatch.setattr(sieve, "primes_up_to", recorded)
    for (x, tag, members), counts in zip(cases, want):
        limits.clear()
        table = level_tables(x, tag, members)[1]
        assert {k: int(c) for k, c in enumerate(table[-1]) if c} == counts
        assert all(limit <= math.isqrt(x) for limit in limits), (x, limits)
    for x, tail in ((2_000_000, 6980), (10**7, 74619)):
        limits.clear()
        assert concentration_tail(x, 0.1) == tail
        assert limits and max(limits) <= math.isqrt(x)


def test_level_tables_reject_bad_input(monkeypatch):
    for x, tag in ((0, "omega"), (5, "theta"), (sieve.MAX_X + 1, "omega")):
        with pytest.raises(ValueError):
            level_tables(x, tag)
    # The tables are charged to the budget before they are allocated.
    monkeypatch.setenv("OMEGA_PROXIMITY_BUDGET", "1")
    with pytest.raises(CapacityError, match="level tables"):
        level_tables(10**12, "big_omega")


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
    for x in (3, 4, 5, 16, 17, 100, 500, 2000):
        for delta in (0.01, 0.1, 0.5, 2.0):
            assert concentration_tail(x, delta) == concentration_tail_slow(x, delta), (x, delta)


def test_concentration_tail_frozen_at_1e4():
    assert concentration_tail(10_000, 0.1) == 33


def test_concentration_tail_memory_is_its_level_tables():
    # The tail sweeps nothing: it holds the level tables at one cut at a time.
    # At 2 * 10**6 they have 2827 rows of 8 int32 levels, and level_tables
    # holds the table, a prime's step and one gather of it, plus int64 values
    # and indices per row: five such arrays bound it (traced 4.3).
    tracemalloc.start()
    try:
        assert concentration_tail(2_000_000, 0.1) == 6980
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5 * 2827 * 8 * 4


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
