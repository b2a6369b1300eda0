"""Segmented factor-count sieving.

Responsibility: exact values of omega(n) (number of distinct prime factors)
and big_omega(n) (number of prime factors counted with multiplicity) over
integer ranges, an odd-only prime enumerator, a primality check, and a slow
trial-division factorizer used as the independent cross-check for the sieve.

Each sweep counts one tag on one uint16 word per n: the low byte holds
255 - S(n), a weighted log of the sieved part of n, and the high byte the
sieve hits the tag counts.  A prime factor above the sieve primes shows as
S(n) < T_b in band b = bitlen(n) - 1, so adding T_b carries it in too.
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
F_TAGS = ("omega", "big_omega")

# Largest x a sweep of [1, x] reaches: hi = x + 1 stays an int64 for the
# consumers, and below 2**63 S(n) < 200 keeps the kernel's word exact.
MAX_X = (1 << 63) - 2

# f(n) <= floor(log2 n) < LEVEL_CEILING for every n <= MAX_X, so a level at
# or above it belongs to no n: consumers park marked entries there, and cap g.
LEVEL_CEILING = 64


def prime_power_level(a: int, f_tag: str) -> int:
    """f(p**a): a for big_omega, 1 for omega (0 at a = 0 for both)."""
    return a if f_tag == "big_omega" else min(a, 1)


@dataclass(frozen=True)
class PrimeList:
    """Ascending primes p <= limit."""

    limit: int
    primes: np.ndarray  # int64, ascending, deduplicated by construction


@dataclass(frozen=True)
class FactorCensus:
    """Counts of one tag, omega or big_omega, over the half-open range [lo, hi).

    f[i] holds the count for n = lo + step * i as uint8 (step 2: the odd n),
    below LEVEL_CEILING.  n = 1 counts zero.
    """

    lo: int
    hi: int
    f_tag: str
    f: np.ndarray
    step: int = 1

    def values(self, f_tag: str) -> np.ndarray:
        if f_tag != self.f_tag:
            raise ValueError(f"this census holds {self.f_tag}, not {f_tag!r}")
        return self.f


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


def _sieve_tables(primes: np.ndarray, hi: int, f_tag: str) -> tuple[list[tuple], list[np.uint16]]:
    """Kernel increments (p, prime hit, power hit) and band thresholds T_b,
    as np.uint16 scalars, which a uint16 slice adds with no conversion.

    The word of n starts at 255.  A hit of p adds 256 - c_p, c_p =
    round(3 log2 p) >= 3: the low byte keeps 255 - S(n), S(n) = sum of
    v_p(n) c_p, and the high byte counts 1.  A hit of p**a (a >= 2) adds the
    same for big_omega, and 65536 - c_p, a wrapping -c_p, for omega.

    Let r_min <= c_p / log2 p <= r_max over the sieve primes.  In band b an
    n made of sieve primes has S(n) >= r_min b.  An n with a prime factor
    above them (so above isqrt(hi - 1) >= sqrt(n)) keeps a sieved part of at
    most isqrt(2**(b + 1) - 1), so S(n) <= r_max log2 of that < T_b.  T_0 = 0:
    n = 1 has no prime factor.  The 1e-9 margins absorb float rounding.
    As S(n) < r_max bitlen(hi - 1) < 256 and T_b <= r_min b < 256, the low
    byte never borrows and adding T_b carries into the high byte (which ends
    at f(n) <= 63) exactly when 255 - S(n) + T_b >= 256, i.e. S(n) < T_b.
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
    power_carry = 256 if f_tag == "big_omega" else 65536
    u16 = np.uint16
    hits = [(p, u16(256 - c), u16(power_carry - c)) for p, c in zip(primes.tolist(), weights.tolist())]
    return hits, [u16(t) for t in thresholds]


def _segment_factor_counts(
    lo: int, hi: int, hits: list[tuple], thresholds: list[np.uint16], step: int = 1
) -> np.ndarray:
    """Pure worker: f at n = lo + step * i in [lo, hi) as uint8, from the
    output of _sieve_tables, whose primes must not divide step.

    One strided read-modify-write per hit on one uint16 word per entry; then
    adding T_b carries a prime factor above the sieve primes into the high
    byte, which the shift brings down."""
    span = len(range(lo, hi, step))
    word = np.full(span, 255, dtype=np.uint16)
    for p, hit, power_hit in hits:
        q, add = p, hit
        while q < hi:
            first = (q - lo) % (step * q) // step  # index of the first (odd) multiple of q
            if first >= span:  # then no multiple of a higher power either
                break
            word[first::q] += add
            q, add = q * p, power_hit
    for b in range(lo.bit_length() - 1, (hi - 1).bit_length()):
        a, z = max(lo, 1 << b) - lo, min(hi, 2 << b) - lo
        word[-(-a // step) : -(-z // step)] += thresholds[b]  # entries with a <= n - lo < z
    return np.right_shift(word, 8, out=np.empty(span, dtype=np.uint8), casting="unsafe")


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
    f_tag: str = "big_omega",
    step: int = 1,
) -> Iterator[FactorCensus]:
    """FactorCensus segments of f_tag at n = lo + step * i in [lo, hi), ascending.

    step 1 sweeps every n, step 2 the odd n from an odd lo, segment_size
    entries per segment either way.  Range, step and tag are checked at the
    call, before any segment.  Segments never change the counts; workers share
    only read-only tables, so results are identical for any threads value.
    """
    if f_tag not in F_TAGS:
        raise ValueError(f"f_tag must be one of {F_TAGS}, got {f_tag!r}")
    if step not in (1, 2) or step == 2 and lo % 2 == 0:
        raise ValueError(f"step must be 1, or 2 from an odd lo; got step={step}, lo={lo}")
    if lo < 1 or hi <= lo or hi > MAX_X + 1:
        raise ValueError(f"need 1 <= lo < hi <= {MAX_X + 1}, got lo={lo}, hi={hi}")
    if segment_size < MIN_SEGMENT_SIZE:
        raise ValueError(f"segment_size must be >= {MIN_SEGMENT_SIZE}, got {segment_size}")
    threads = min(threads, os.cpu_count() or 1)  # more would only contend
    entries = min(segment_size, len(range(lo, hi, step)))
    require_budget(WORKING_BYTES_PER_N * entries * max(1, threads), "segmented sieve")
    root = math.isqrt(hi - 1)
    sieve_primes = primes_up_to(root).primes if root >= 2 else np.empty(0, dtype=np.int64)
    hits, thresholds = _sieve_tables(sieve_primes[step - 1 :], hi, f_tag)  # 2 leads; step 2 skips it

    def worker(span: tuple[int, int]) -> FactorCensus:
        a, b = span
        return FactorCensus(a, b, f_tag, _segment_factor_counts(a, b, hits, thresholds, step), step)

    return _pipelined(worker, iter_ranges(lo, hi, step * segment_size), threads)


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
