"""Independent slow oracles used to freeze expected values.

Everything here is deliberately naive pure Python with no imports from the
package under test, so a bug in the fast paths cannot hide in the
reference numbers.
"""

from __future__ import annotations

import math

import numpy as np


def is_prime_slow(n: int) -> bool:
    if n < 2:
        return False
    for d in range(2, math.isqrt(n) + 1):
        if n % d == 0:
            return False
    return True


def factorize_slow(n: int) -> list[int]:
    out: list[int] = []
    m = n
    d = 2
    while d * d <= m:
        while m % d == 0:
            out.append(d)
            m //= d
        d += 1
    if m > 1:
        out.append(m)
    return out


def omega_slow(n: int) -> int:
    return len(set(factorize_slow(n)))


def big_omega_slow(n: int) -> int:
    return len(factorize_slow(n))


def coprime_to_all(n: int, members: list[int]) -> bool:
    return all(n % m for m in members)


def census_slow(x: int, f_tag: str, members: list[int] | None = None) -> dict[int, int]:
    """Level counts of omega/big_omega over n <= x, optionally coprime to members."""
    f = omega_slow if f_tag == "omega" else big_omega_slow
    counts: dict[int, int] = {}
    for n in range(1, x + 1):
        if members and not coprime_to_all(n, members):
            continue
        k = f(n)
        counts[k] = counts.get(k, 0) + 1
    return counts


def census_slow_at(ys: list[int], f_tag: str, members: list[int] | None = None) -> dict[int, dict[int, int]]:
    """census_slow(y, f_tag, members) at each y in ys, from one pass over n <= max(ys)."""
    f = omega_slow if f_tag == "omega" else big_omega_slow
    wanted, counts, out = set(ys), {}, {}
    for n in range(1, max(ys) + 1):
        if not members or coprime_to_all(n, members):
            k = f(n)
            counts[k] = counts.get(k, 0) + 1
        if n in wanted:
            out[n] = dict(counts)
    return out


def mode_slow(counts: dict[int, int]) -> tuple[int, int]:
    best = max(counts.values())
    return min(k for k, c in counts.items() if c == best), best


def coprime_count_slow(y: int, members: list[int]) -> int:
    return sum(1 for n in range(1, y + 1) if coprime_to_all(n, members))


def coprime_count_inclusion_exclusion(y: int, members: list[int]) -> int:
    """Exact #{n <= y : gcd(n, prod members) = 1} as a signed sum of
    floor(y/d) over squarefree divisors d of the member product.

    It never marks a range, so it checks the total of a census restricted
    to the same set independently of coprime_mask.
    """
    if y < 0:
        raise ValueError(f"coprime_count_inclusion_exclusion requires y >= 0, got {y}")

    def signed(limit: int, idx: int) -> int:
        # integers <= limit coprime to members[idx:]
        total = limit
        for i in range(idx, len(members)):
            q = limit // members[i]
            if q == 0:
                break
            total -= signed(q, i + 1)
        return total

    return signed(y, 0)


def concentration_tail_slow(x: int, delta: float) -> int:
    threshold = math.log(math.log(x)) ** (1.0 + delta)
    total = 0
    for n in range(2, x + 1):
        if abs(omega_slow(n) - math.log(math.log(n))) > threshold:
            total += 1
    return total


def maximizer_slow(x: int, members: list[int], index: int, f_tag: str) -> tuple[int, int]:
    """Argmax level and count of the restricted census over r <= x // member."""
    prime = members[index - 1]
    counts = census_slow(x // prime, f_tag, members)
    return mode_slow(counts)


def eval_g_slow(n: int, table: dict[int, int]) -> int:
    out = 1
    for p, v in table.items():
        if n % p == 0:
            out *= v
    return out


def coincidence_count_slow(x: int, f_tag: str, table: dict[int, int]) -> int:
    f = omega_slow if f_tag == "omega" else big_omega_slow
    return sum(1 for n in range(1, x + 1) if f(n) == eval_g_slow(n, table))


def certificate_count_slow(x: int, members: list[int], table: dict[int, int], f_tag: str) -> int:
    """Certified count L by enumerating the witness families (p, a, r).

    For each member p and each p**a <= x, counts r <= x // p**a coprime to
    every member at level g(p) - a (big_omega) or g(p) - 1 (omega).
    """
    f = omega_slow if f_tag == "omega" else big_omega_slow
    total = 0
    for p in members:
        power, a = p, 1
        while power <= x:
            target = table[p] - a if f_tag == "big_omega" else table[p] - 1
            for r in range(1, x // power + 1):
                if coprime_to_all(r, members) and f(r) == target:
                    total += 1
            power *= p
            a += 1
    return total


def certificate_fails_slow(x: int, members: list[int], table: dict[int, int], f_tag: str) -> bool:
    """Whether some witness n = r * p**a of certificate_count_slow's families
    has f(n) != g(n) over the whole table, so the certificate must refuse.

    Only a table prime outside the set can cause it: r is coprime to every
    member, so g(n) = g(p) times the table values of the other primes of r.
    """
    f = omega_slow if f_tag == "omega" else big_omega_slow
    for p in members:
        power, a = p, 1
        while power <= x:
            target = table[p] - a if f_tag == "big_omega" else table[p] - 1
            for r in range(1, x // power + 1):
                if coprime_to_all(r, members) and f(r) == target:
                    if eval_g_slow(r * power, table) != f(r * power):
                        return True
            power *= p
            a += 1
    return False


def phi_slow(x: int, f_tag: str) -> tuple[float, float, float, int]:
    """A, B, phi and the largest level count at x, summed in a fixed order.

    The exponent-1 terms are np.sum over ascending float64 arrays of 1 - 1/p
    and 1/p; the terms of p**a with a >= 2 are then added one at a time,
    p ascending and a ascending within each p.  Primes and levels come from
    a smallest-prime-factor table over 1..x.
    """
    spf = smallest_prime_factors_slow(x)
    primes = [p for p in range(2, x + 1) if spf[p] == p]
    inv = 1.0 / np.array(primes, dtype=np.float64)
    a_sum = float(np.sum(1.0 - inv))
    b_sum = float(np.sum(inv))
    for p in primes:
        weight = 1.0 - 1.0 / p
        power, a = p * p, 2
        while power <= x:
            fv = 1 if f_tag == "omega" else a
            a_sum += fv * weight
            b_sum += (fv * fv) / power
            power *= p
            a += 1
    counts: dict[int, int] = {}
    for n in range(1, x + 1):
        k, m = 0, n
        while m > 1:
            p = spf[m]
            k += 1
            m //= p
            if f_tag == "omega":
                while m % p == 0:
                    m //= p
        counts[k] = counts.get(k, 0) + 1
    return a_sum, b_sum, b_sum / a_sum, max(counts.values())


def smallest_prime_factors_slow(x: int) -> list[int]:
    """spf[n] = smallest prime factor of n for 2 <= n <= x, by the sieve of
    Eratosthenes on a plain list; fast enough for phi_slow at x = 2**20."""
    spf = list(range(x + 1))
    for p in range(2, math.isqrt(x) + 1):
        if spf[p] == p:
            for m in range(p * p, x + 1, p):
                if spf[m] == m:
                    spf[m] = p
    return spf


def segment_factor_counts_product(lo: int, hi: int, primes: list[int]) -> tuple[np.ndarray, np.ndarray]:
    """omega/big_omega for [lo, hi) given every prime <= sqrt(hi - 1).

    The product kernel the sieve used before its packed-word form:
    found[i] multiplies every p**a dividing n = lo + i over the given
    primes.  It divides n, so it fits a uint32 when hi <= 2**32 and an
    int64 above, and n has a prime factor above the primes exactly when
    found < n.
    """
    span = hi - lo
    dtype = np.uint32 if hi <= 1 << 32 else np.int64
    omega = np.zeros(span, dtype=np.uint8)
    extra = np.zeros(span, dtype=np.uint8)  # prime powers p**a with a >= 2
    found = np.ones(span, dtype=dtype)
    for p in primes:
        first = -lo % p
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
    omega += (found < np.arange(lo, hi, dtype=dtype)).view(np.uint8)
    return omega, omega + extra
