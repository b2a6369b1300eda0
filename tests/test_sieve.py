"""Sieve layer against the trial-division oracles."""

import math
import os
import random
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
    return np.concatenate([seg.values(f_tag) for seg in iter_factor_segments(lo, hi, segment_size, threads, f_tag)])


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


def test_values_accessor():
    # A segment holds the one tag its sweep computed and refuses the other,
    # or a misspelt one, rather than hand back the wrong counts.
    for tag, other in (("omega", "big_omega"), ("big_omega", "omega")):
        seg = next(iter_factor_segments(1, 50, f_tag=tag))
        assert seg.f_tag == tag
        assert seg.values(tag) is seg.f
        for wrong in (other, "bigomega"):
            with pytest.raises(ValueError):
                seg.values(wrong)


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
                odd = np.concatenate([seg.values(tag) for seg in segments])
                assert np.array_equal(odd, full[::2]), (tag, segment_size, threads)


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
            for tag, power_carry in (("big_omega", 256), ("omega", 65536)):
                hits, tables[tag] = sieve._sieve_tables(table, 2**63 - 1, tag)
                assert hits == [
                    (p, 256 - c, power_carry - c) for p, c in zip(table.tolist(), weights)
                ], tag
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
        hits, thresholds = sieve._sieve_tables(primes[:2], 2**63 - 1, tag)
        for n, want in cases.items():
            f = sieve._segment_factor_counts(n, n + 1, hits, thresholds)
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
    monkeypatch.setattr(sieve, "ThreadPoolExecutor", SyncPool)
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
