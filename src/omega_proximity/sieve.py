"""Segmented factor-count sieving.

Responsibility: exact values of omega(n) (number of distinct prime factors)
and big_omega(n) (number of prime factors counted with multiplicity) over
integer ranges, an odd-only prime enumerator, a primality check, and a slow
trial-division factorizer used as the independent cross-check for the sieve.

The segment kernel never divides: it multiplies the prime powers it finds
into an int64 product and compares that product with n to detect the one
prime factor above sqrt(n) a number can have.
"""

from __future__ import annotations

import math
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator

import numpy as np

from .budget import (
    DEFAULT_SEGMENT_SIZE,
    WORKING_BYTES_PER_N,
    iter_ranges,
    require_budget,
)

MIN_SEGMENT_SIZE = 64


@dataclass(frozen=True)
class PrimeList:
    """Ascending primes p <= limit."""

    limit: int
    primes: np.ndarray  # int64, ascending, deduplicated by construction


@dataclass(frozen=True)
class FactorCensus:
    """Factor counts for the half-open range [lo, hi).

    omega[i] and big_omega[i] hold the counts for n = lo + i as uint8;
    big_omega(n) <= floor(log2 n) < 64 keeps that width safe.  n = 1 has
    both counts zero.
    """

    lo: int
    hi: int
    omega: np.ndarray
    big_omega: np.ndarray

    def values(self, f_tag: str) -> np.ndarray:
        return self.big_omega if f_tag == "big_omega" else self.omega

    def omega_of(self, n: int) -> int:
        return int(self.omega[n - self.lo])

    def big_omega_of(self, n: int) -> int:
        return int(self.big_omega[n - self.lo])


def primes_up_to(limit: int) -> PrimeList:
    """Enumerate all primes p <= limit.

    Parameters
    ----------
    limit : int
        Inclusive upper bound; must be >= 2.

    Returns
    -------
    PrimeList
        Ascending primes as int64.
    """
    if limit < 2:
        raise ValueError(f"primes_up_to requires limit >= 2, got {limit}")
    require_budget(limit + 1, "prime sieve")
    # Odd numbers only: flags[i] stands for 2i + 1.  Slot 0 (the number 1)
    # stays set and becomes the prime 2 when the indices turn into primes.
    flags = np.ones((limit + 1) // 2, dtype=bool)
    for p in range(3, math.isqrt(limit) + 1, 2):
        if flags[p // 2]:
            flags[p * p // 2 :: p] = False
    primes = np.flatnonzero(flags).astype(np.int64, copy=False)
    primes *= 2
    primes += 1
    primes[0] = 2
    return PrimeList(limit, primes)


_prime_cache: PrimeList | None = None


def _cached_primes(limit: int) -> np.ndarray:
    global _prime_cache
    if _prime_cache is None or limit > _prime_cache.limit:
        grown = 1 << 10 if _prime_cache is None else 2 * _prime_cache.limit
        _prime_cache = primes_up_to(max(limit, grown))
    ps = _prime_cache.primes
    return ps[: int(np.searchsorted(ps, limit, side="right"))]


# The first twelve primes as Miller-Rabin bases; the smallest composite
# that passes all of them is 318665857834031151167461 (Sorenson and
# Webster, 2015), so below it the test is exact.
_MILLER_RABIN_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MILLER_RABIN_EXACT_BELOW = 318_665_857_834_031_151_167_461


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality check.

    Exact for every n below 3.18e24 without a prime table up to sqrt(n);
    larger n raise ValueError rather than risk a wrong answer.
    """
    if n < 2:
        return False
    if n >= _MILLER_RABIN_EXACT_BELOW:
        raise ValueError(f"is_prime is exact only below {_MILLER_RABIN_EXACT_BELOW}, got {n}")
    for p in _MILLER_RABIN_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MILLER_RABIN_BASES:
        y = pow(a, d, n)
        if y == 1 or y == n - 1:
            continue
        for _ in range(s - 1):
            y = y * y % n
            if y == n - 1:
                break
        else:
            return False
    return True


def next_prime(n: int | float) -> int:
    """Smallest prime strictly greater than n (n may be real, n >= 0)."""
    if n < 0:
        raise ValueError(f"next_prime requires n >= 0, got {n}")
    c = math.floor(n) + 1
    if c < 2:
        c = 2
    while not is_prime(c):
        c += 1
    return c


def _segment_factor_counts(
    lo: int, hi: int, primes: list[int]
) -> tuple[np.ndarray, np.ndarray]:
    """Pure worker: omega/big_omega for [lo, hi) given sieve primes <= sqrt(hi-1).

    No division: found[i] is the part of n = lo + i made of sieve primes,
    the product of every p**a dividing n.  It divides n, so it cannot
    overflow, and n has a prime factor above sqrt(hi - 1) exactly when
    found < n.
    """
    span = hi - lo
    omega = np.zeros(span, dtype=np.uint8)
    extra = np.zeros(span, dtype=np.uint8)  # prime powers p**a with a >= 2
    found = np.ones(span, dtype=np.int64)
    for p in primes:
        first = -lo % p  # offset of the first multiple of p
        if first >= span:
            continue
        sl = slice(first, span, p)
        omega[sl] += 1
        found[sl] *= p
        q = p * p
        while q < hi:
            first = -lo % q
            if first >= span:
                break
            sl = slice(first, span, q)
            extra[sl] += 1
            found[sl] *= p
            q *= p
    # The cofactor n // found is 1 or a single prime > sqrt(n), which adds
    # one to both counts.
    omega += (found < np.arange(lo, hi, dtype=np.int64)).view(np.uint8)
    return omega, omega + extra


def _pipelined(worker: Callable, items: Iterable, threads: int) -> Iterator:
    """Apply worker over items, in order, with a bounded thread pipeline."""
    if threads <= 1:
        for item in items:
            yield worker(item)
        return
    with ThreadPoolExecutor(max_workers=threads) as pool:
        pending: deque = deque()
        for item in items:
            pending.append(pool.submit(worker, item))
            if len(pending) >= 2 * threads:
                yield pending.popleft().result()
        while pending:
            yield pending.popleft().result()


def iter_factor_segments(
    lo: int,
    hi: int,
    segment_size: int = DEFAULT_SEGMENT_SIZE,
    threads: int = 1,
) -> Iterator[FactorCensus]:
    """Yield FactorCensus segments covering [lo, hi) in ascending order.

    Segment boundaries never change the counts; workers share only the
    read-only prime table, so results are identical for any threads value.
    """
    if lo < 1 or hi <= lo:
        raise ValueError(f"need 1 <= lo < hi, got lo={lo}, hi={hi}")
    if segment_size < MIN_SEGMENT_SIZE:
        raise ValueError(f"segment_size must be >= {MIN_SEGMENT_SIZE}, got {segment_size}")
    require_budget(
        WORKING_BYTES_PER_N * min(segment_size, hi - lo) * max(1, threads),
        "segmented sieve",
    )
    root = math.isqrt(hi - 1)
    sieve_primes = [int(p) for p in _cached_primes(root)] if root >= 2 else []

    def worker(span: tuple[int, int]) -> FactorCensus:
        a, b = span
        om, bo = _segment_factor_counts(a, b, sieve_primes)
        return FactorCensus(a, b, om, bo)

    yield from _pipelined(worker, iter_ranges(lo, hi, segment_size), threads)


def sieve_census(
    lo: int,
    hi: int,
    segment_size: int = DEFAULT_SEGMENT_SIZE,
    threads: int = 1,
) -> FactorCensus:
    """Exact omega/big_omega for every n in [lo, hi).

    Parameters
    ----------
    lo, hi : int
        Half-open range with 1 <= lo < hi.
    segment_size : int
        Internal chunk length (>= 64); invisible in the result.
    threads : int
        Worker threads for segment processing; output is identical for
        any value.

    Returns
    -------
    FactorCensus
        uint8 count arrays of length hi - lo.
    """
    span = hi - lo if hi > lo else 0
    require_budget(2 * span + WORKING_BYTES_PER_N * min(segment_size, max(span, 1)), "factor census")
    omega = np.empty(span, dtype=np.uint8)
    big_omega = np.empty(span, dtype=np.uint8)
    for seg in iter_factor_segments(lo, hi, segment_size, threads):
        omega[seg.lo - lo : seg.hi - lo] = seg.omega
        big_omega[seg.lo - lo : seg.hi - lo] = seg.big_omega
    return FactorCensus(lo, hi, omega, big_omega)


def factorize(n: int) -> list[int]:
    """Prime factor multiset of n by trial division, ascending.

    factorize(1) == []; factorize(360) == [2, 2, 2, 3, 3, 5].  Slow by
    design: this is the oracle the sieve is checked against.
    """
    if n < 1:
        raise ValueError(f"factorize requires n >= 1, got {n}")
    out: list[int] = []
    m = n
    while m % 2 == 0:
        out.append(2)
        m //= 2
    d = 3
    while d * d <= m:
        while m % d == 0:
            out.append(d)
            m //= d
        d += 2
    if m > 1:
        out.append(m)
    return out
