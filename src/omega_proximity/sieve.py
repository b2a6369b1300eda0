"""Segmented factor-count sieving.

Responsibility: exact values of omega(n) (number of distinct prime factors)
and big_omega(n) (number of prime factors counted with multiplicity) over
integer ranges, an odd-only prime enumerator, a primality check, and a slow
trial-division factorizer used as the independent cross-check for the sieve.

The segment kernel keeps one uint32 word per n.  A hit of a sieve prime p
adds 256 + c_p and a hit of p**a (a >= 2) adds 65536 + c_p, c_p =
round(3 log2 p): byte 0 sums S(n) = sum of v_p(n) c_p, byte 1 counts the
distinct sieve primes and byte 2 the higher-power hits.  A prime factor
above the sieve primes shows as S(n) < T_b in band b = bitlen(n) - 1.
"""

from __future__ import annotations

import math
import os
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

# Largest x a sweep of [1, x] reaches: hi = x + 1 stays an int64 for the
# consumers, and below 2**63 the kernel's byte 0 holds S(n) < 200 uncarried.
MAX_X = (1 << 63) - 2


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


def _sieve_tables(primes: np.ndarray, hi: int) -> tuple[list[tuple[int, int, int]], list[int]]:
    """Kernel increments (p, 256 + c_p, 65536 + c_p) and band thresholds T_b.

    Let r_min <= c_p / log2 p <= r_max over the sieve primes.  In band b an
    n made of sieve primes has S(n) >= r_min b.  An n with a prime factor
    above them (so above isqrt(hi - 1) >= sqrt(n)) keeps a sieved part of at
    most isqrt(2**(b + 1) - 1), so S(n) <= r_max log2 of that < T_b.  T_0 = 0:
    n = 1 has no prime factor.  The 1e-9 margins absorb float rounding.
    """
    logs = np.log2(primes)
    weights = np.rint(3 * logs).astype(np.int64)
    ratios = weights / logs if len(primes) else np.array([3.0])
    r_min, r_max = float(ratios.min()), float(ratios.max())
    top = (hi - 1).bit_length()
    thresholds = [0] + [math.floor(r_max * math.log2(math.isqrt((2 << b) - 1)) + 1e-9) + 1
                        for b in range(1, top)]
    if r_max * top >= 256 or any(t > r_min * b - 1e-9 for b, t in enumerate(thresholds) if b):
        raise ArithmeticError(f"log weights do not separate the bands below {hi}")
    hits = [(p, 256 + c, 65536 + c) for p, c in zip(primes.tolist(), weights.tolist())]
    return hits, thresholds


def _segment_factor_counts(
    lo: int, hi: int, hits: list[tuple[int, int, int]], thresholds: list[int]
) -> tuple[np.ndarray, np.ndarray]:
    """Pure worker: omega/big_omega for [lo, hi) from _sieve_tables' output.

    One strided read-modify-write per hit, on one packed word per n; then
    n = lo + i with S(n) < T_b has one prime factor above the sieve primes.
    """
    span = hi - lo
    word = np.zeros(span, dtype=np.uint32)
    for p, hit, power_hit in hits:
        q, add = p, hit
        while q < hi:
            first = -lo % q  # offset of the first multiple of q
            if first >= span:  # then no multiple of a higher power either
                break
            word[first::q] += add
            q, add = q * p, power_hit
    omega = (word >> 8).astype(np.uint8)  # astype keeps the low byte
    for b in range(lo.bit_length() - 1, (hi - 1).bit_length()):
        a, z = max(lo, 1 << b) - lo, min(hi, 2 << b) - lo
        omega[a:z] += word[a:z].astype(np.uint8) < thresholds[b]
    return omega, omega + (word >> 16).astype(np.uint8)


def _worker_count(threads: int) -> int:
    """threads capped at the machine's CPU count; more would only contend."""
    return min(threads, os.cpu_count() or 1)


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
    """FactorCensus segments covering [lo, hi) in ascending order.

    The range is checked at the call, before any segment.  Segments never
    change the counts; workers share only the read-only tables, so results
    are identical for any threads value, which is capped at the CPU count.
    """
    if lo < 1 or hi <= lo or hi > MAX_X + 1:
        raise ValueError(f"need 1 <= lo < hi <= {MAX_X + 1}, got lo={lo}, hi={hi}")
    if segment_size < MIN_SEGMENT_SIZE:
        raise ValueError(f"segment_size must be >= {MIN_SEGMENT_SIZE}, got {segment_size}")
    threads = _worker_count(threads)
    require_budget(
        WORKING_BYTES_PER_N * min(segment_size, hi - lo) * max(1, threads),
        "segmented sieve",
    )
    root = math.isqrt(hi - 1)
    sieve_primes = primes_up_to(root).primes if root >= 2 else np.empty(0, dtype=np.int64)
    hits, thresholds = _sieve_tables(sieve_primes, hi)

    def worker(span: tuple[int, int]) -> FactorCensus:
        a, b = span
        om, bo = _segment_factor_counts(a, b, hits, thresholds)
        return FactorCensus(a, b, om, bo)

    return _pipelined(worker, iter_ranges(lo, hi, segment_size), threads)


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
    segments = iter_factor_segments(lo, hi, segment_size, threads)  # checks the range first
    span = hi - lo
    require_budget(2 * span + WORKING_BYTES_PER_N * min(segment_size, span), "factor census")
    omega = np.empty(span, dtype=np.uint8)
    big_omega = np.empty(span, dtype=np.uint8)
    for seg in segments:
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
