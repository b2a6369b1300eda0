"""Sieve layer against the trial-division oracles."""

import concurrent.futures
import math
import os
import random
import tracemalloc
from concurrent.futures import Future

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from omega_proximity import sieve
from omega_proximity.budget import DEFAULT_SEGMENT_SIZE
from omega_proximity.errors import CapacityError
from omega_proximity.sieve import (
    F_TAGS,
    factorize,
    is_prime,
    iter_factor_segments,
    next_prime,
    prime_pi,
    primes_up_to,
)

from oracles import (
    big_omega_slow,
    factorize_slow,
    is_prime_slow,
    omega_slow,
    segment_factor_counts_product,
)


def _sweep(lo, hi, segment_size=DEFAULT_SEGMENT_SIZE, threads=1, f_tag="big_omega"):
    """f_tag at every n in [lo, hi), the segments of one sweep joined."""
    return np.concatenate([seg.f for seg in iter_factor_segments(lo, hi, segment_size, threads, f_tag)])


def test_primes_up_to_small():
    assert list(primes_up_to(10).primes) == [2, 3, 5, 7]
    assert list(primes_up_to(2).primes) == [2]
    assert len(primes_up_to(100).primes) == 25


def test_primes_up_to_matches_oracle():
    # Every limit to 3000 covers the odd-only table at each length, slot 0
    # relabelled as 2, and each crossing-off start p*p.
    want = [n for n in range(2, 3001) if is_prime_slow(n)]
    for limit in range(2, 3001):
        got = primes_up_to(limit).primes
        assert got.dtype == np.int64
        assert got.tolist() == [p for p in want if p <= limit], limit


def test_primes_up_to_rejects_tiny_limit():
    with pytest.raises(ValueError):
        primes_up_to(1)


# pi(10**k), k = 0..10 (OEIS A006880).
PUBLISHED_PI = (0, 4, 25, 168, 1229, 9592, 78498, 664579, 5761455, 50847534, 455052511)


def test_prime_pi_published_values():
    assert [prime_pi(10**k) for k in range(11)] == list(PUBLISHED_PI)
    assert [prime_pi(x) for x in (-5, 0, 1, 2, 3, 4)] == [0, 0, 0, 1, 2, 2]


@settings(max_examples=60, deadline=None)
@given(x=st.integers(2, 10**6))
@example(x=2)
@example(x=121)
@example(x=10**6)
def test_prime_pi_matches_a_prime_table(x):
    assert prime_pi(x) == len(primes_up_to(x).primes)


def test_prime_count_holds_no_more_than_it_charges(monkeypatch):
    # The prime count's tables, a step's temporaries and both results, traced,
    # stay within what it asks the budget for.
    charged = {}
    monkeypatch.setattr(sieve, "require_budget", lambda nbytes, what: charged.__setitem__(what, nbytes))
    for x in (10**5, 10**7, 10**8, 10**9):
        tracemalloc.start()
        try:
            sieve._prime_counts(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= charged["prime count"], (x, peak)


def test_is_prime_matches_oracle():
    for n in range(0, 3001):
        assert is_prime(n) == is_prime_slow(n), n


def test_is_prime_beyond_a_prime_table():
    for p in (2**31 - 1, 2**61 - 1, 2**63 - 25):
        assert is_prime(p), p
    # Carmichael numbers, a prime square, and strong pseudoprimes to the
    # bases 2..7 and 2..23.
    for n in (561, 41041, 1_000_003**2, 3_215_031_751, 3_825_123_056_546_413_051):
        assert not is_prime(n), n
    # The smallest strong pseudoprime to every base up to 37.
    with pytest.raises(ValueError):
        is_prime(318_665_857_834_031_151_167_461)


def test_next_prime():
    assert next_prime(10) == 11
    assert next_prime(8) == 11
    assert next_prime(2.828) == 3
    assert next_prime(0) == 2
    with pytest.raises(ValueError):
        next_prime(-1)


def test_factorize():
    assert factorize(1) == []
    assert factorize(64) == [2] * 6
    assert factorize(999) == [3, 3, 3, 37]
    for n in range(1, 300):
        assert factorize(n) == factorize_slow(n), n
    with pytest.raises(ValueError):
        factorize(0)


def test_sieve_first_dozen():
    assert list(_sweep(1, 13, f_tag="big_omega")) == [0, 1, 1, 2, 1, 2, 1, 3, 2, 2, 1, 3]
    assert list(_sweep(1, 13, f_tag="omega")) == [0, 1, 1, 1, 1, 2, 1, 1, 1, 2, 1, 2]


def test_sieve_matches_oracle_to_2000():
    omega = _sweep(1, 2000, f_tag="omega")
    big_omega = _sweep(1, 2000, f_tag="big_omega")
    for n in range(1, 2000):
        assert omega[n - 1] == omega_slow(n), n
        assert big_omega[n - 1] == big_omega_slow(n), n


def test_sieve_interior_window():
    assert _sweep(990, 1010, f_tag="omega")[999 - 990] == 2
    assert _sweep(990, 1010, f_tag="big_omega")[999 - 990] == 4


def test_unknown_tag_refused_before_any_buffer(monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("nothing may be swept or allocated")

    monkeypatch.setattr(sieve, "require_budget", never)
    monkeypatch.setattr(sieve, "primes_up_to", never)
    monkeypatch.setattr(sieve, "_segment_factor_counts", never)
    monkeypatch.setattr(np, "empty", never)
    for tag in ("bigomega", "Omega", "mu"):
        with pytest.raises(ValueError, match="f_tag"):
            sieve.iter_factor_segments(1, 100, 64, 1, tag)


def test_sweep_call_shape_of_the_benchmark():
    # perfbench's layer probes call iter_factor_segments(lo, hi,
    # segment_size, threads) positionally and count hi - lo per segment;
    # the probe and the sweep-count gate hold only while that call works.
    lo, hi = 10**6 - 1000, 10**6 + 3000
    segments = list(sieve.iter_factor_segments(lo, hi, 1024, 2))
    assert sum(seg.hi - seg.lo for seg in segments) == hi - lo
    assert [seg.lo for seg in segments] == list(range(lo, hi, 1024))
    assert all(len(seg.f) == seg.hi - seg.lo for seg in segments)


def test_blocks_are_yielded_as_views_that_tile_the_range():
    # The kernel sieves blocks of segment_size entries and yields each as
    # slices of at most VIEW_SIZE entries of the block's own f, no copy: they
    # tile [lo, hi) and hold what a sweep of small blocks holds.
    view = sieve.VIEW_SIZE
    for step in (1, 2):
        lo, hi = 1, 1 + step * (view + 1000)
        entries = view + 1000
        for tag in F_TAGS:
            want = np.concatenate([seg.f for seg in iter_factor_segments(lo, hi, 64, 1, tag, step)])
            for segment_size in (view - 1, view + 1, 1 << 20):
                blocks = [min(segment_size, entries - i) for i in range(0, entries, segment_size)]
                sizes = [min(view, b - i) for b in blocks for i in range(0, b, view)]
                for threads in (1, 2):
                    segments = list(iter_factor_segments(lo, hi, segment_size, threads, tag, step))
                    assert [len(seg.f) for seg in segments] == sizes
                    assert segments[0].lo == lo and segments[-1].hi == hi
                    assert all(a.hi == b.lo for a, b in zip(segments, segments[1:]))
                    assert all(len(seg.f) == len(range(seg.lo, seg.hi, step)) for seg in segments)
                    assert all(seg.step == step for seg in segments)
                    joined = np.concatenate([seg.f for seg in segments])
                    assert np.array_equal(joined, want), (step, tag, segment_size, threads)
            one_block = list(iter_factor_segments(lo, hi, 1 << 20, 1, tag, step))
            assert one_block[0].f.base is one_block[1].f.base is not None


def test_segment_size_independence():
    for tag in F_TAGS:
        base = _sweep(1, 5000, f_tag=tag)
        for size in (64, 128, 1024):
            other = _sweep(1, 5000, segment_size=size, f_tag=tag)
            assert np.array_equal(base, other), (tag, size)


def test_segment_independence_interior():
    for tag in F_TAGS:
        base = _sweep(1000, 3000, f_tag=tag)
        other = _sweep(1000, 3000, segment_size=64, f_tag=tag)
        assert np.array_equal(base, other), tag


def test_thread_count_independence():
    for tag in F_TAGS:
        base = _sweep(1, 20000, segment_size=1024, f_tag=tag)
        other = _sweep(1, 20000, segment_size=1024, threads=3, f_tag=tag)
        assert np.array_equal(base, other), tag


@settings(max_examples=20, deadline=None)
@given(
    lo=st.integers(4, 10).flatmap(lambda e: st.integers(10**e, 10**(e + 1))),
    span=st.integers(1, 256),
)
@example(lo=10**11 - 256, span=256)
@example(lo=2**32 - 256, span=256)
@example(lo=2**32 - 128, span=256)
@example(lo=2**32, span=256)
def test_sieve_windows_match_factorize(lo, span):
    # Windows from 10^4 to 10^11, one decimal order drawn at a time, split
    # into segments of 64 so that two threads really pipeline.  The explicit
    # windows below, at and across 2**32 keep the range where the product
    # kernel of tests/oracles.py switches from uint32 to int64 covered.
    want = [factorize(n) for n in range(lo, lo + span)]
    for threads in (1, 2):
        omega, big_omega = (
            _sweep(lo, lo + span, segment_size=64, threads=threads, f_tag=tag)
            for tag in ("omega", "big_omega")
        )
        for n, fs in zip(range(lo, lo + span), want):
            assert omega[n - lo] == len(set(fs)), (n, threads)
            assert big_omega[n - lo] == len(fs), (n, threads)


@settings(max_examples=20, deadline=None)
@given(b=st.integers(0, 40), before=st.integers(0, 200), after=st.integers(1, 200))
@example(b=0, before=0, after=200)
@example(b=40, before=200, after=200)
def test_kernel_matches_product_kernel_across_bands(b, before, after):
    # Windows [2**b - before, 2**b + after) meet two bit-length bands, and
    # from n = 1 (b = 0) several; the product kernel needs no thresholds.
    lo, hi = max(1, (1 << b) - before), (1 << b) + after
    root = math.isqrt(hi - 1)
    primes = primes_up_to(root).primes.tolist() if root >= 2 else []
    want = dict(zip(("omega", "big_omega"), segment_factor_counts_product(lo, hi, primes)))
    for tag in F_TAGS:
        for segment_size in (64, 1 << 20):
            for threads in (1, 2):
                got = _sweep(lo, hi, segment_size=segment_size, threads=threads, f_tag=tag)
                assert np.array_equal(got, want[tag]), (tag, segment_size, threads)


@settings(max_examples=12, deadline=None)
@given(b=st.integers(0, 40), before=st.integers(0, 200), after=st.integers(1, 200))
@example(b=0, before=0, after=200)
@example(b=1, before=0, after=1)
@example(b=40, before=200, after=200)
def test_step_two_holds_the_odd_entries(b, before, after):
    # The same windows from their odd start: a sweep of step 2 holds the odd
    # entries of a sweep of step 1 and of the product kernel, and its
    # segments of segment_size entries still cover the whole range.
    lo, hi = max(1, (1 << b) - before) | 1, (1 << b) + after + 1
    root = math.isqrt(hi - 1)
    primes = primes_up_to(root).primes.tolist() if root >= 2 else []
    want = dict(zip(("omega", "big_omega"), segment_factor_counts_product(lo, hi, primes)))
    for tag in F_TAGS:
        full = _sweep(lo, hi, f_tag=tag)
        assert np.array_equal(full, want[tag]), tag
        for segment_size in (64, 1 << 20):
            for threads in (1, 2):
                segments = list(sieve.iter_factor_segments(lo, hi, segment_size, threads, tag, 2))
                assert [seg.lo for seg in segments] == list(range(lo, hi, 2 * segment_size))
                assert sum(seg.hi - seg.lo for seg in segments) == hi - lo
                assert all(seg.step == 2 and len(seg.f) <= segment_size for seg in segments)
                odd = np.concatenate([seg.f for seg in segments])
                assert np.array_equal(odd, full[::2]), (tag, segment_size, threads)


def test_first_index_is_the_first_multiple():
    # Python ints and int64 arrays alike: the least i >= 0 with q | lo + step * i,
    # at step 2 for odd q and odd lo.  Small q are searched for it; large
    # ones, near 3 * 10**9 and with lo near 2**63 - 1, are checked by the
    # defining property, as step is a unit mod q and i < q.
    rng = random.Random(2)
    top = 2**63 - 1
    for step in (1, 2):
        cases = [(q, lo) for q in range(1, 60) for lo in range(1, 130)]
        cases += [(rng.randrange(1, 3 * 10**9), rng.randrange(1, 10**12)) for _ in range(200)]
        cases += [(3 * 10**9 + d, top - rng.randrange(1 << 20)) for d in range(-50, 50)]
        cases += [(rng.randrange(1, 1 << 20), top - d) for d in range(50)]
        if step == 2:
            cases = [(q | 1, lo | 1) for q, lo in cases]
        for q, lo in cases:
            got = sieve.first_index(q, lo, step)
            assert 0 <= got < q and (lo + step * got) % q == 0, (q, lo, step)
            if q < 60:
                assert got == next(i for i in range(q) if (lo + step * i) % q == 0)
        qs = np.array([q for q, _ in cases], dtype=np.int64)
        for lo in (1, 3, 3 * sieve.WHEEL_PERIOD, 10**12 + 1, top - (1 << 20), top - 2, top):
            got = sieve.first_index(qs, lo, step)
            assert got.dtype == np.int64
            assert got.tolist() == [sieve.first_index(q, lo, step) for q in qs.tolist()], (lo, step)


@pytest.mark.parametrize("step", [1, 2])
def test_start_word_and_block_cutoff_match_factorize(step):
    # Each block starts as the start word rotated to its first entry and
    # sieves only the primes up to isqrt(its end - 1).  Windows: every sweep
    # of [1, hi) with hi <= 200, whose root is below 13 up to hi = 169, so
    # the word must hold that sweep's primes only; blocks of 64 entries that start at,
    # just before and across k * 45045; and blocks that end at p * p (p not
    # sieved) and at p * p + step (p sieved, p * p its last entry).
    period = sieve.WHEEL_PERIOD
    assert period == 45045
    windows = [(1, hi) for hi in range(2, 201)]
    for k in (1, 3, 2221):  # odd k: k * period is odd, a step-2 start
        for back in (0, step, 32 * step):
            windows.append((k * period - back, k * period - back + 300 * step))
    for p in (13, 101, 9973):
        for end in (p * p, p * p + step):
            windows.append((end - 64 * step, end + 64 * step))
    for lo, hi in windows:
        want = [factorize(n) for n in range(lo, hi, step)]
        counts = {"omega": [len(set(fs)) for fs in want], "big_omega": [len(fs) for fs in want]}
        for tag in F_TAGS:
            for segment_size, threads in ((64, 1), (64, 2), (DEFAULT_SEGMENT_SIZE, 1)):
                segments = iter_factor_segments(lo, hi, segment_size, threads, tag, step)
                got = np.concatenate([seg.f for seg in segments])
                assert got.tolist() == counts[tag], (lo, hi, tag, segment_size, threads)
    # One default block over more than two periods, against the product kernel.
    lo = 10**6 + 1
    hi = lo + step * (2 * period + 1000)
    want = segment_factor_counts_product(lo, hi, primes_up_to(math.isqrt(hi - 1)).primes.tolist())
    for tag, counts in zip(("omega", "big_omega"), want):
        for threads in (1, 2):
            segments = iter_factor_segments(lo, hi, DEFAULT_SEGMENT_SIZE, threads, tag, step)
            got = np.concatenate([seg.f for seg in segments])
            assert np.array_equal(got, counts[::step]), (tag, threads)


@pytest.mark.parametrize("step", [1, 2])
def test_batched_primes_match_factorize(step):
    # The primes above 13 and a block's entries >> 8 are hit by one np.add.at
    # per weight class c_p: every one in blocks of 64 entries, those from 17
    # or 37 up in a default block of this window.  It starts at 1031 * 1029,
    # so a batched prime's first multiple is entry 0, and ends at 1033 * 1035,
    # entry span - 1 of its last block; it holds 1031**2 (a batched prime's
    # square, which the loop hits) and 1031 * 1033, where two primes of class
    # 30 hit one entry.
    assert round(3 * math.log2(1031)) == round(3 * math.log2(1033)) == 30
    lo, hi = 1031 * 1029, 1033 * 1035 + step
    assert primes_up_to(math.isqrt(hi - 1)).primes[-1] == 1033  # the largest sieve prime
    want = [factorize(n) for n in range(lo, hi, step)]
    counts = {"omega": [len(set(fs)) for fs in want], "big_omega": [len(fs) for fs in want]}
    for tag in F_TAGS:
        for segment_size in (64, DEFAULT_SEGMENT_SIZE):
            for threads in (1, 2):
                segments = iter_factor_segments(lo, hi, segment_size, threads, tag, step)
                got = np.concatenate([seg.f for seg in segments])
                assert got.tolist() == counts[tag], (tag, segment_size, threads)
    # A full default block, whose batched primes start at 1031, holding
    # 1031 * 1033 and 1031**2, against the product kernel.
    lo = 1031 * 1033 - step * (2**17 + 1)
    hi = lo + step * (DEFAULT_SEGMENT_SIZE + 777)
    want = segment_factor_counts_product(lo, hi, primes_up_to(math.isqrt(hi - 1)).primes.tolist())
    assert DEFAULT_SEGMENT_SIZE >> 8 < 1031 <= math.isqrt(hi - 1) and lo < 1031**2
    for tag, counts in zip(("omega", "big_omega"), want):
        for threads in (1, 2):
            segments = iter_factor_segments(lo, hi, DEFAULT_SEGMENT_SIZE, threads, tag, step)
            got = np.concatenate([seg.f for seg in segments])
            assert np.array_equal(got, counts[::step]), (tag, threads)


def test_bad_step_refused_before_any_buffer(monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("nothing may be swept or allocated")

    monkeypatch.setattr(sieve, "require_budget", never)
    monkeypatch.setattr(sieve, "primes_up_to", never)
    monkeypatch.setattr(sieve, "_segment_factor_counts", never)
    monkeypatch.setattr(np, "empty", never)
    monkeypatch.setattr(np, "full", never)
    for lo, step in ((2, 2), (100, 2), (1, 3), (1, 0), (1, -1)):
        with pytest.raises(ValueError, match="step"):
            sieve.iter_factor_segments(lo, 1000, 64, 1, "omega", step)


def test_band_thresholds_separate_every_band():
    # c_p / log2 p is largest at p = 3 and smallest at p = 7 up to 10**6;
    # above it |c_p / log2 p - 3| <= 0.5 / log2 p < 0.03 keeps every sieve
    # prime of a sweep below 2**63 inside the same extremes.  So the tables
    # for limits 2, 3, 5, 7 and 10**6 stand for every table up to 10**6.
    primes = primes_up_to(10**6).primes
    ratios = np.rint(3 * np.log2(primes)) / np.log2(primes)
    assert np.argmax(ratios) == 1 and np.argmin(ratios) == 3
    mpmath.mp.dps = 40
    try:
        for limit in (2, 3, 5, 7, 10**6):
            table = primes[primes <= limit]
            weights = [round(3 * math.log2(p)) for p in table.tolist()]
            # A prime hit carries 1 into the high byte and takes c_p off the
            # low one; a power hit does the same for big_omega, and for omega
            # wraps to -c_p alone.
            tables = {}
            weight = dict(zip(table.tolist(), weights))
            for tag, power_carry in (("big_omega", 256), ("omega", 65536)):
                kernel = sieve._sieve_tables(table, 2**63 - 1, tag, DEFAULT_SEGMENT_SIZE)
                tables[tag] = kernel.thresholds
                bases = [math.isqrt(square) for square in kernel.squares.tolist()]
                assert kernel.adds.tolist() == [
                    (256 if q == p else power_carry) - weight[p] for q, p in zip(kernel.q.tolist(), bases)
                ], tag
                for a, b, add in kernel.classes:
                    assert {256 - weight[p] for p in kernel.batched[a:b].tolist()} == {add}, tag
            thresholds = tables["omega"]
            assert tables["big_omega"] == thresholds
            exact = [mpmath.mpf(c) / mpmath.log(p, 2) for p, c in zip(table.tolist()[:4], weights)]
            r_min, r_max = min(exact), max(exact)
            assert len(thresholds) == 63 and thresholds[0] == 0
            for b in range(1, 63):
                sieved = math.isqrt((2 << b) - 1)  # largest sieved part with a cofactor
                assert r_max * mpmath.log(sieved, 2) < thresholds[b] <= r_min * b, (limit, b)
            # S(n) <= r_max log2 n < 200 below 2**63: the low byte, 255 - S(n),
            # never borrows, and no T_b reaches 256.
            assert r_max * 63 < 200 and max(thresholds) < 256
    finally:
        mpmath.mp.dps = 15
    # The bound caps S at 198 below 2**63, reached at 2 * 3**39; 2**62 has
    # S = 186; n = 1 has S = 0 and T_0 = 0, so no carry.  Only 2 and 3 hit
    # those n, so a table of the two gives the same word as the full one.
    cases = {1: (0, 0), 2 * 3**39: (2, 40), 2**62: (1, 62)}
    for i, tag in enumerate(("omega", "big_omega")):
        kernel = sieve._sieve_tables(primes[:2], 2**63 - 1, tag, 1)
        for n, want in cases.items():
            f = sieve._segment_factor_counts(n, n + 1, kernel, 1)
            assert f.dtype == np.uint8 and int(f[0]) == want[i], (tag, n)


def test_threads_capped_at_cpu_count(monkeypatch):
    # A synchronous stand-in for the pool records the worker count asked
    # for; no thread is started.
    asked = []

    class SyncPool:
        def __init__(self, max_workers):
            asked.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            future = Future()
            future.set_result(fn(*args))
            return future

    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", SyncPool)
    # Uncapped, 10**6 threads of 1024-integer segments would also fail the
    # default 2048 MB budget.
    for tag in F_TAGS:
        capped = _sweep(1, 20_000, segment_size=1024, threads=10**6, f_tag=tag)
        base = _sweep(1, 20_000, segment_size=1024, f_tag=tag)
        assert np.array_equal(capped, base), tag
    assert asked == [2, 2]


def test_additivity_on_coprime_pairs():
    rng = random.Random(1007)
    for _ in range(300):
        m = rng.randint(2, 10_000)
        n = rng.randint(2, 10_000)
        while math.gcd(m, n) != 1:
            n = rng.randint(2, 10_000)
        fm, fn, fmn = factorize(m), factorize(n), factorize(m * n)
        assert len(fmn) == len(fm) + len(fn)
        assert len(set(fmn)) == len(set(fm)) + len(set(fn))


def test_equal_counts_iff_squarefree():
    limit = 10_000
    squarefree = [True] * (limit + 1)
    for p in range(2, int(limit**0.5) + 1):
        for m in range(p * p, limit + 1, p * p):
            squarefree[m] = False
    omega = _sweep(1, limit + 1, f_tag="omega")
    big_omega = _sweep(1, limit + 1, f_tag="big_omega")
    for n in range(1, limit + 1):
        assert (omega[n - 1] == big_omega[n - 1]) == squarefree[n], n


def test_range_validation():
    # Each is refused when the sweep is asked for, before any segment.
    with pytest.raises(ValueError):
        iter_factor_segments(0, 10)
    with pytest.raises(ValueError):
        iter_factor_segments(10, 10)
    with pytest.raises(ValueError):
        iter_factor_segments(1, 100, segment_size=32)
    with pytest.raises(ValueError):  # hi = 2**63 does not fit in an int64
        next(sieve.iter_factor_segments(2**63 - 100, 2**63))


def test_budget_cap(monkeypatch):
    monkeypatch.setenv("OMEGA_PROXIMITY_BUDGET", "1")
    with pytest.raises(CapacityError):
        iter_factor_segments(1, 2_000_000)


def test_budget_malformed(monkeypatch):
    monkeypatch.setenv("OMEGA_PROXIMITY_BUDGET", "plenty")
    with pytest.raises(ValueError):
        iter_factor_segments(1, 100)
