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
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .budget import DEFAULT_SEGMENT_SIZE, WORKING_BYTES_PER_N, require_budget

MIN_SEGMENT_SIZE = 64
# Entries per yielded view of a block: consumers' temporaries stay below the kernel's.
VIEW_SIZE = 1 << 17
WHEEL = {3: 9, 5: 5, 7: 7, 11: 11, 13: 13}  # prime: the top power of it a block's start word holds
WHEEL_PERIOD = math.prod(WHEEL.values())  # 45045: a wheel pre-sieve (Pritchard, Acta Inf. 17, 1982)
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
    below LEVEL_CEILING.  n = 1 counts zero.  A sweep yields views: f is a
    slice of at most VIEW_SIZE entries of its sieve block's array, which the
    consumer may overwrite and which lives until its last view is dropped.
    """

    lo: int
    hi: int
    f: np.ndarray
    step: int = 1


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


def _prime_counts(x: int) -> tuple[np.ndarray, np.ndarray, list[int]]:
    """The distinct values v = x // k (x >= 1) ascending and pi(v) at each, as
    int64, and the primes up to sqrt(x), by Legendre's recurrence in Lucy's
    form (Lagarias, Miller and Odlyzko, Math. Comp. 44, 1985): S(v) starts at
    v - 1, and each prime p <= sqrt(x) in turn takes S(v // p) - S(p - 1) from
    every S(v) with v >= p * p, read before the step.  About x**(3/4) steps.
    """
    r = math.isqrt(x)
    require_budget(64 * (r + 1), "prime count")  # three tables, a step's temporaries and the results
    ks = np.arange(r + 1, dtype=np.int64)
    small = ks - 1  # small[v] = S(v) for v <= r
    large = x // ks.clip(1) - 1  # large[k] = S(x // k) for 1 <= k <= r
    primes = primes_up_to(r).primes.tolist() if r >= 2 else []
    for p in primes:
        sp = int(small[p - 1])  # pi(p - 1) once the smaller primes' steps are done
        m = min(r, x // (p * p))  # large[k] with x // k >= p * p
        j = min(m, r // p)  # x // (k p) is large[k p] for k <= j, a small entry above
        large[1 : j + 1] -= large[p : j * p + 1 : p] - sp
        large[j + 1 : m + 1] -= small[x // (ks[j + 1 : m + 1] * p)] - sp
        if p * p <= r:
            small[p * p :] -= small[ks[p * p :] // p] - sp
    top = r - (x // r == r)  # x // k > r exactly for k <= top
    ks = np.concatenate([ks[1:], x // ks[top:0:-1]])  # the values: the old ks is not held beside both results
    return ks, np.concatenate([small[1:], large[top:0:-1]]), primes


def prime_pi(x: int) -> int:
    """pi(x), the number of primes p <= x: the last of _prime_counts' counts."""
    return int(_prime_counts(x)[1][-1]) if x >= 2 else 0


def level_tables(x: int, f_tag: str, members: Sequence[int] = ()) -> tuple[np.ndarray, np.ndarray]:
    """The values v = x // k ascending (int64), and per v the level census of the
    n <= v coprime to members (distinct primes): entry [i, k] counts those n <=
    values[i] with f(n) = k, for k up to max(2, the top f(n) for n <= x), as
    int32, or int64 from x = 2**31.  No sieve kernel, and no primes past sqrt(x).

    Row T(v), a polynomial in z, starts at z pi'(v), pi' counting the primes
    that are no member.  Each prime p <= sqrt(x) that is no member, descending,
    adds to every T(v) with v >= p * p the n whose least prime is p: the sum
    over e >= 1 with p**(e + 1) <= v of z**f(p**e) (T(v // p**e) - z pi'(p)) +
    z**f(p**(e + 1)), T read before the step (the min_25 sieve's second phase).
    Last, n = 1 enters at level 0.
    """
    if f_tag not in F_TAGS:
        raise ValueError(f"f_tag must be one of {F_TAGS}, got {f_tag!r}")
    if not 1 <= x <= MAX_X:
        raise ValueError(f"level_tables requires 1 <= x <= {MAX_X}, got {x}")
    top, product, p = 0, 1, 1  # omega's top: the most first primes whose product is <= x
    while f_tag == "omega" and product * (p := next_prime(p)) <= x:
        top, product = top + 1, product * p
    levels = 1 + max(2, x.bit_length() - 1 if f_tag == "big_omega" else top)  # omega steps write level 2
    dtype = np.int32 if x < 1 << 31 else np.int64
    r = math.isqrt(x)
    # The table, a step's sums and one gather, and int64 values and indices, per value.
    require_budget(2 * r * (3 * levels * np.dtype(dtype).itemsize + 32), "level tables")
    values, pi, primes = _prime_counts(x)
    table = np.zeros((len(values), levels), dtype=dtype)
    table[:, 1] = pi - np.searchsorted(sorted(members), values, side="right")
    del pi
    step = np.empty_like(table)  # one prime's sums, from its first row on
    for p in reversed(primes):
        if p in members:
            continue
        start = np.searchsorted(values, p * p)
        step[start:] = 0
        q, e = p, 1
        while q * p <= x:
            i, shift = np.searchsorted(values, q * p), prime_power_level(e, f_tag)
            w = values[i:] // q  # ascending; in place, its rows: v - 1 up to r, and -k for x // k
            j = np.searchsorted(w, r, side="right")
            w[:j] -= 1
            np.subtract(len(values), np.floor_divide(x, w[j:], out=w[j:]), out=w[j:])
            step[i:, shift:] += table[w, : levels - shift]
            step[i:, shift + 1] -= table[p - 1, 1]  # z**f(p**e) z pi'(p): p = values[p - 1] < p * p
            step[i:, prime_power_level(e + 1, f_tag)] += 1
            q, e = q * p, e + 1
        table[start:] += step[start:]
    table[:, 0] = 1
    return values, table


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
    c = max(2, math.floor(n) + 1)
    while not is_prime(c):
        c += 1
    return c


@dataclass(frozen=True)
class _KernelTables:
    """A sweep's kernel tables, from _sieve_tables; blocks only read them."""

    q: np.ndarray  # int64 prime powers the loop hits, ordered by base prime p
    adds: np.ndarray  # uint16 add of each q
    squares: np.ndarray  # int64 p * p of each q: a block sieves the q with p * p below its end
    batched: np.ndarray  # int64 primes hit by one np.add.at per weight class, ascending
    classes: list[tuple[int, int, np.uint16]]  # (start, end, add): batched[start:end] share c_p
    thresholds: list[np.uint16]  # T_b
    start: np.ndarray  # uint16 word of n = step * i (mod WHEEL_PERIOD), i < WHEEL_PERIOD


def _sieve_tables(primes: np.ndarray, hi: int, f_tag: str, entries: int) -> _KernelTables:
    """Kernel tables of a sweep below hi in blocks of at most entries entries.

    The word of n starts at 255.  A hit of p adds 256 - c_p, c_p = round(3
    log2 p) >= 3: the low byte keeps 255 - S(n), S(n) = sum of v_p(n) c_p, and
    the high byte counts 1.  A hit of p**a (a >= 2) adds the same for big_omega,
    and 65536 - c_p, a wrapping -c_p, for omega; wrapping adds commute.

    Let r_min <= c_p / log2 p <= r_max over the sieve primes.  In band b an
    n made of sieve primes has S(n) >= r_min b.  An n with a prime factor
    above them (so above isqrt(hi - 1) >= sqrt(n)) keeps a sieved part of at
    most isqrt(2**(b + 1) - 1), so S(n) <= r_max log2 of that < T_b.  T_0 = 0:
    n = 1 has no prime factor.  The 1e-9 margins absorb float rounding.
    As S(n) < r_max bitlen(hi - 1) < 256 and T_b <= r_min b < 256, the low
    byte never borrows and adding T_b carries into the high byte (which ends
    at f(n) <= 63) exactly when 255 - S(n) + T_b >= 256, i.e. S(n) < T_b.

    The start word holds the WHEEL powers (an odd q | WHEEL_PERIOD divides n
    exactly when it divides i).  The primes above 13 and entries >> 8 hit a
    block fewer than 2**8 times each: they are batched by c_p, one add per
    class.  The loop holds every other power.
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
    batch = int(np.searchsorted(primes, max(entries >> 8, max(WHEEL)), side="right"))
    start = np.full(WHEEL_PERIOD, 255, dtype=np.uint16)
    loop = []
    for i, (p, c) in enumerate(zip(primes.tolist(), weights.tolist())):
        q = p if i < batch else p * p
        while q < hi:
            add = (256 if q == p else power_carry) - c
            if q <= WHEEL.get(p, 0):
                start[::q] += add
            else:
                loop.append((q, add, p * p))
            q *= p
    q, adds, squares = np.array(loop, dtype=np.int64).reshape(-1, 3).T.copy()
    cuts = [0, *(np.flatnonzero(np.diff(weights[batch:])) + 1).tolist(), len(primes) - batch]
    classes = [(a, b, np.uint16(256 - weights[batch + a])) for a, b in zip(cuts, cuts[1:]) if a < b]
    return _KernelTables(q, adds.astype(np.uint16), squares, primes[batch:], classes,
                         [np.uint16(t) for t in thresholds], start)


def first_index(q: np.ndarray | int, lo: int, step: int) -> np.ndarray | int:
    """Per q, the index from lo of q's first (at step 2, first odd) multiple >= lo; forms no 2 q."""
    r = -lo % q
    return r if step == 1 else (r >> 1) + (r & 1) * ((q >> 1) + 1)


def _segment_factor_counts(lo: int, hi: int, tables: _KernelTables, step: int) -> np.ndarray:
    """Pure worker: f at n = lo + step * i in [lo, hi) as uint8, from the
    output of _sieve_tables, whose primes must not divide step.

    The word repeats the start word from n = lo in whole periods, whose buffer,
    freed, fits two uint16 view temporaries (span + 1 entries miss by a heap
    header).  One int64 op finds every loop power's first index; the loop
    visits the powers inside the block.  Each class of batched primes takes
    one np.add.at at first + j p, j < ceil(span / its least p), which covers
    every multiple; indices past the block go to the spare entry word[span],
    and np.add.at adds once per index, so twice where two primes of a class
    divide one n.  Only the primes up to isqrt(hi - 1) are sieved.  That is
    exact: a larger p has p * p >= hi, so it is the one prime factor above
    sqrt(n) of each of its multiples n, which adding T_b (set for all the
    table's primes) carries into the high byte like any such factor; the
    shift brings it down."""
    span = len(range(lo, hi, step))
    word = np.empty(-(-(span + 1) // WHEEL_PERIOD) * WHEEL_PERIOD, dtype=np.uint16)[: span + 1]
    for a in range(-(lo * pow(step, -1, WHEEL_PERIOD) % WHEEL_PERIOD), span + 1, WHEEL_PERIOD):
        word[max(a, 0) : a + WHEEL_PERIOD] = tables.start[max(-a, 0) : span + 1 - a]
    q = tables.q[: np.searchsorted(tables.squares, hi)]
    first = first_index(q, lo, step)
    live = first < span
    for i, stride, add in zip(first[live].tolist(), q[live].tolist(), tables.adds[: len(q)][live]):
        word[i::stride] += add
    primes = tables.batched[: np.searchsorted(tables.batched, math.isqrt(hi - 1), side="right")]
    first = first_index(primes, lo, step)
    for a, b, add in tables.classes:
        if a >= len(primes):
            break
        idx = primes[a:b, None] * np.arange(-(-span // int(primes[a])))
        idx += first[a:b, None]
        np.add.at(word, np.minimum(idx, span, out=idx).ravel(), add)
    for b in range(lo.bit_length() - 1, (hi - 1).bit_length()):
        a, z = max(lo, 1 << b) - lo, min(hi, 2 << b) - lo
        word[-(-a // step) : -(-z // step)] += tables.thresholds[b]  # entries with a <= n - lo < z
    return np.right_shift(word[:span], 8, out=np.empty(span, dtype=np.uint8), casting="unsafe")


def _pipelined(worker: Callable, items: Iterable, threads: int) -> Iterator:
    """Apply worker over items, in order, with a bounded thread pipeline."""
    if threads <= 1:
        for item in items:
            yield worker(item)
        return
    from concurrent.futures import ThreadPoolExecutor  # imported only where threads run
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

    step 1 sweeps every n, step 2 the odd n from an odd lo.  The kernel sieves
    blocks of segment_size entries, each from one start word, up to its own
    prime cutoff and with one np.add.at per weight class of its large primes,
    and yields each as views of at most VIEW_SIZE entries that tile it.  Once a
    consumer drops a block's last view, the block is freed before the next one
    is sieved.  Range, step and tag are checked at the call, before any segment.
    Segments never change the counts; workers share only read-only tables, so
    results are identical for any threads value.
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
    tables = _sieve_tables(sieve_primes[step - 1 :], hi, f_tag, entries)  # 2 leads; step 2 skips it

    def worker(span: tuple[int, int]) -> tuple[int, int, np.ndarray]:
        return *span, _segment_factor_counts(*span, tables, step)

    def views(blocks: Iterator[tuple[int, int, np.ndarray]]) -> Iterator[FactorCensus]:
        for a, b, f in blocks:
            for i in range(0, len(f), VIEW_SIZE):
                end = min(a + step * (i + VIEW_SIZE), b)
                yield FactorCensus(a + step * i, end, f[i : i + VIEW_SIZE], step)
            del f  # not held while the next block is sieved

    width = step * segment_size
    return views(_pipelined(worker, ((a, min(a + width, hi)) for a in range(lo, hi, width)), threads))


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
