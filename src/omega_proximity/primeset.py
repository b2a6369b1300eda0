"""Sparse prime sets with mod-4 residue tags.

Responsibility: build the two sparse set families used by the g
constructions, and compute their reciprocal sums, coprime density, and
exact coprime counts (by segment marking and, independently, by
inclusion-exclusion).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .budget import DEFAULT_SEGMENT_SIZE, iter_ranges, require_budget
from .sieve import _pipelined, is_prime, next_prime

# A signed 64-bit floor value is the largest anchor we report exactly.
_INT64_MAX = (1 << 63) - 1


@dataclass(frozen=True)
class PrimeSetS:
    """Ascending odd primes, optionally led by 2.

    classes[i] is members[i] mod 4 (1 or 3); the member 2 carries None and
    is excluded from the per-class reciprocal sums.  kind records which
    builder produced the set ("paper", "power", or "custom"), delta and
    exponent the builder's parameter.
    """

    members: tuple[int, ...]
    classes: tuple[int | None, ...]
    kind: str = "custom"
    delta: float | None = None
    exponent: float | None = None

    @classmethod
    def from_members(
        cls,
        members: Iterable[int],
        kind: str = "custom",
        delta: float | None = None,
        exponent: float | None = None,
    ) -> "PrimeSetS":
        ms = tuple(int(m) for m in members)
        for i, m in enumerate(ms):
            if not is_prime(m):
                raise ValueError(f"set member {m} is not prime")
            if i and m <= ms[i - 1]:
                raise ValueError("set members must be strictly increasing")
            if m == 2 and i:
                raise ValueError("2 may only appear as the first member")
        tags = tuple(None if m == 2 else m % 4 for m in ms)
        return cls(ms, tags, kind, delta, exponent)

    def to_json_dict(self) -> dict:
        r1, r3 = reciprocal_sums(self)
        return {
            "members": list(self.members),
            "classes": list(self.classes),
            "kind": self.kind,
            "delta": self.delta,
            "exponent": self.exponent,
            "density": density_constant(self),
            "recip_sum_1": r1,
            "recip_sum_3": r3,
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "PrimeSetS":
        return cls.from_members(
            d["members"],
            kind=d.get("kind", "custom"),
            delta=d.get("delta"),
            exponent=d.get("exponent"),
        )


def _members_of(s: "PrimeSetS | Sequence[int]") -> tuple[int, ...]:
    if isinstance(s, PrimeSetS):
        return s.members
    return tuple(int(m) for m in s)


def threshold_prime_set(delta: float, count: int) -> PrimeSetS:
    """Set starting at 2 where each later member is the smallest prime
    exceeding both its predecessor and j**(1 + delta) at position j.

    threshold_prime_set(0.5, 5) -> [2, 3, 7, 11, 13].  When the power
    threshold lags the predecessor this degenerates to consecutive primes.
    """
    if delta <= 0:
        raise ValueError(f"delta must be positive, got {delta}")
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    members = [2]
    for j in range(2, count + 1):
        threshold = max(members[-1], j ** (1.0 + delta))
        members.append(next_prime(threshold))
    return PrimeSetS.from_members(members, kind="paper", delta=float(delta))


def power_prime_set(exponent: float, count: int) -> PrimeSetS:
    """Odd-prime set where member j is the smallest prime exceeding
    max(previous, j**exponent, 2).

    power_prime_set(2, 5) -> [3, 5, 11, 17, 29].  Keeping 2 out means every
    member carries a mod-4 residue tag.
    """
    if exponent <= 1:
        raise ValueError(f"exponent must be > 1, got {exponent}")
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    members: list[int] = []
    for j in range(1, count + 1):
        threshold = max(float(j) ** float(exponent), 2.0)
        if members:
            threshold = max(threshold, members[-1])
        members.append(next_prime(threshold))
    return PrimeSetS.from_members(members, kind="power", exponent=float(exponent))


def reciprocal_sums(s: PrimeSetS) -> tuple[float, float]:
    """Partial reciprocal sums split by residue class mod 4.

    The member 2 belongs to neither class and is skipped; the two sums add
    up to the reciprocal sum over the odd members.
    """
    r1 = 0.0
    r3 = 0.0
    for m, tag in zip(s.members, s.classes):
        if tag == 1:
            r1 += 1.0 / m
        elif tag == 3:
            r3 += 1.0 / m
    return r1, r3


def density_constant(s: "PrimeSetS | Sequence[int]") -> float:
    """prod(1 - 1/m) over the members; the empty product is 1."""
    out = 1.0
    for m in _members_of(s):
        out *= 1.0 - 1.0 / m
    return out


def coprime_mask(lo: int, hi: int, members: Sequence[int]) -> np.ndarray:
    """Boolean array over [lo, hi): True where n shares no factor with members."""
    mask = np.ones(hi - lo, dtype=bool)
    for m in members:
        mask[-lo % m :: m] = False  # from the first multiple of m in range
    return mask


def coprime_count(
    y: int,
    s: "PrimeSetS | Sequence[int]",
    segment_size: int = DEFAULT_SEGMENT_SIZE,
    threads: int = 1,
) -> int:
    """Exact #{n <= y : gcd(n, prod members) = 1} by segment marking."""
    if y < 0:
        raise ValueError(f"coprime_count requires y >= 0, got {y}")
    if y == 0:
        return 0
    members = _members_of(s)
    require_budget(min(segment_size, y) * max(1, threads), "coprime marking")

    def worker(span: tuple[int, int]) -> int:
        a, b = span
        return int(coprime_mask(a, b, members).sum())

    return sum(_pipelined(worker, iter_ranges(1, y + 1, segment_size), threads))


def coprime_count_inclusion_exclusion(y: int, s: "PrimeSetS | Sequence[int]") -> int:
    """Exact coprime count as a signed sum of floor(y/d) over squarefree
    divisors d of the member product; the independent route to the same
    number as coprime_count."""
    if y < 0:
        raise ValueError(f"coprime_count requires y >= 0, got {y}")
    members = _members_of(s)

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


def anchor_scale(j: int) -> tuple[int, int | None]:
    """Doubly exponential anchor at position j >= 1.

    Returns (2**j, floor(exp(exp(2**j)))) with the floor omitted (None)
    once it no longer fits in a signed 64-bit integer; that happens for
    every j >= 2.
    """
    if j < 1:
        raise ValueError(f"anchor_scale requires j >= 1, got {j}")
    inner = 2**j
    # exp(exp(inner)) > 2**63 whenever exp(inner) > 63*log 2 ~ 43.67.
    if inner > 60 or math.exp(inner) > math.log(_INT64_MAX):
        return inner, None
    value = math.exp(math.exp(inner))
    if value > _INT64_MAX:
        return inner, None
    return inner, math.floor(value)
