"""Sieve layer against the trial-division oracles."""

import math
import os
import random
from concurrent.futures import Future

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from omega_proximity import sieve
from omega_proximity.errors import CapacityError
from omega_proximity.sieve import (
    factorize,
    is_prime,
    next_prime,
    primes_up_to,
    sieve_census,
)

from oracles import big_omega_slow, factorize_slow, is_prime_slow, omega_slow


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
    seg = sieve_census(1, 13)
    assert list(seg.big_omega) == [0, 1, 1, 2, 1, 2, 1, 3, 2, 2, 1, 3]
    assert list(seg.omega) == [0, 1, 1, 1, 1, 2, 1, 1, 1, 2, 1, 2]


def test_sieve_matches_oracle_to_2000():
    seg = sieve_census(1, 2000)
    for n in range(1, 2000):
        assert seg.omega_of(n) == omega_slow(n), n
        assert seg.big_omega_of(n) == big_omega_slow(n), n


def test_sieve_interior_window():
    seg = sieve_census(990, 1010)
    assert seg.omega_of(999) == 2
    assert seg.big_omega_of(999) == 4


def test_values_accessor():
    seg = sieve_census(1, 50)
    assert np.array_equal(seg.values("omega"), seg.omega)
    assert np.array_equal(seg.values("big_omega"), seg.big_omega)


def test_segment_size_independence():
    base = sieve_census(1, 5000)
    for size in (64, 128, 1024):
        other = sieve_census(1, 5000, segment_size=size)
        assert np.array_equal(base.omega, other.omega)
        assert np.array_equal(base.big_omega, other.big_omega)


def test_segment_independence_interior():
    base = sieve_census(1000, 3000)
    other = sieve_census(1000, 3000, segment_size=64)
    assert np.array_equal(base.omega, other.omega)
    assert np.array_equal(base.big_omega, other.big_omega)


def test_thread_count_independence():
    base = sieve_census(1, 20000, segment_size=1024)
    other = sieve_census(1, 20000, segment_size=1024, threads=3)
    assert np.array_equal(base.omega, other.omega)
    assert np.array_equal(base.big_omega, other.big_omega)


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
    # into segments of 64 so that two threads really pipeline.  The kernel's
    # product is uint32 for segments ending at or below 2**32 and int64
    # above; the explicit windows below, at and across 2**32 cover both.
    want = [factorize(n) for n in range(lo, lo + span)]
    for threads in (1, 2):
        seg = sieve_census(lo, lo + span, segment_size=64, threads=threads)
        for n, fs in zip(range(lo, lo + span), want):
            assert seg.omega_of(n) == len(set(fs)), (n, threads)
            assert seg.big_omega_of(n) == len(fs), (n, threads)


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
    capped = sieve_census(1, 20_000, segment_size=1024, threads=10**6)
    assert asked == [2]
    base = sieve_census(1, 20_000, segment_size=1024)
    assert np.array_equal(capped.omega, base.omega)
    assert np.array_equal(capped.big_omega, base.big_omega)


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
    seg = sieve_census(1, limit + 1)
    for n in range(1, limit + 1):
        assert (seg.omega_of(n) == seg.big_omega_of(n)) == squarefree[n], n


def test_range_validation():
    with pytest.raises(ValueError):
        sieve_census(0, 10)
    with pytest.raises(ValueError):
        sieve_census(10, 10)
    with pytest.raises(ValueError):
        sieve_census(1, 100, segment_size=32)
    with pytest.raises(ValueError):  # hi = 2**63 does not fit in an int64
        next(sieve.iter_factor_segments(2**63 - 100, 2**63))


def test_budget_cap(monkeypatch):
    monkeypatch.setenv("OMEGA_PROXIMITY_BUDGET", "1")
    with pytest.raises(CapacityError):
        sieve_census(1, 2_000_000)


def test_budget_malformed(monkeypatch):
    monkeypatch.setenv("OMEGA_PROXIMITY_BUDGET", "plenty")
    with pytest.raises(ValueError):
        sieve_census(1, 100)
