"""Sparse prime sets with mod-4 residue tags.

Responsibility: build the two sparse set families used by the g
constructions, and compute their reciprocal sums, coprime density, and the
coprime mask the restricted census counts with.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .sieve import first_index, is_prime, next_prime


def _is_int(v: object) -> bool:
    return isinstance(v, numbers.Integral) and not isinstance(v, bool)


# Each builder's parameter and the bound it must exceed.
_PARAMETER = {"paper": ("delta", 0.0), "power": ("exponent", 1.0), "custom": (None, None)}


@dataclass(frozen=True)
class PrimeSetS:
    """Strictly increasing primes: odd ones, optionally led by 2.

    Anything else raises ValueError at construction.  kind records which
    builder produced the set: "paper" with its finite delta > 0, "power" with
    its finite exponent > 1, or "custom" with neither.
    """

    members: tuple[int, ...]
    kind: str = "custom"
    delta: float | None = None
    exponent: float | None = None

    def __post_init__(self) -> None:
        for i, m in enumerate(self.members):
            if not _is_int(m):
                raise ValueError(f"set member {m!r} is not an integer")
            if not is_prime(m):
                raise ValueError(f"set member {m} is not prime")
            if i and m <= self.members[i - 1]:
                raise ValueError("set members must be strictly increasing")
        if not isinstance(self.kind, str) or self.kind not in _PARAMETER:
            raise ValueError(f"set kind must be one of {tuple(_PARAMETER)}, got {self.kind!r}")
        own, floor = _PARAMETER[self.kind]
        for name in ("delta", "exponent"):
            v = getattr(self, name)
            if name != own:
                if v is not None:
                    raise ValueError(f"a {self.kind} set carries no {name}, got {v!r}")
            elif isinstance(v, bool) or not isinstance(v, numbers.Real) or not floor < v < math.inf:
                raise ValueError(f"a {self.kind} set needs a finite {name} > {floor:g}, got {v!r}")

    @property
    def classes(self) -> tuple[int | None, ...]:
        """members[i] mod 4 (1 or 3); the member 2 carries None and is
        excluded from the per-class reciprocal sums."""
        return tuple(None if m == 2 else m % 4 for m in self.members)

    def to_json_dict(self) -> dict:
        r1, r3 = reciprocal_sums(self)
        return {
            "members": list(self.members),
            "classes": list(self.classes),
            "kind": self.kind,
            "delta": self.delta,
            "exponent": self.exponent,
            "density": density_constant(self.members),
            "recip_sum_1": r1,
            "recip_sum_3": r3,
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "PrimeSetS":
        """The set d records; a paper or power set must be its builder's output."""
        s = cls(tuple(d["members"]), d.get("kind", "custom"), d.get("delta"), d.get("exponent"))
        n = len(s.members)
        if s.kind != "custom" and s != (
            threshold_prime_set(s.delta, n) if s.kind == "paper" else power_prime_set(s.exponent, n)
        ):
            raise ValueError(f"{list(s.members)} is not the {s.kind} set of its parameter and size")
        return s


def _grow(members: list[int], thresholds: Iterable[float]) -> list[int]:
    """Append, for each threshold t_j, the smallest prime above max(last member, t_j)."""
    for t in thresholds:
        members.append(next_prime(max(members[-1], t) if members else t))
    return members


def threshold_prime_set(delta: float, count: int) -> PrimeSetS:
    """Set starting at 2 where each later member is the smallest prime
    exceeding both its predecessor and j**(1 + delta) at position j.

    threshold_prime_set(0.5, 5) -> [2, 3, 7, 11, 13].  When the power
    threshold lags the predecessor this degenerates to consecutive primes.
    """
    if not 0 < delta < math.inf:
        raise ValueError(f"delta must be positive and finite, got {delta}")
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    members = _grow([2], (j ** (1.0 + delta) for j in range(2, count + 1)))
    return PrimeSetS(tuple(members), kind="paper", delta=float(delta))


def power_prime_set(exponent: float, count: int) -> PrimeSetS:
    """Odd-prime set where member j is the smallest prime exceeding
    max(previous, j**exponent, 2).

    power_prime_set(2, 5) -> [3, 5, 11, 17, 29].  Keeping 2 out means every
    member carries a mod-4 residue tag.
    """
    if not 1 < exponent < math.inf:
        raise ValueError(f"exponent must be > 1 and finite, got {exponent}")
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    members = _grow([], (max(float(j) ** float(exponent), 2.0) for j in range(1, count + 1)))
    return PrimeSetS(tuple(members), kind="power", exponent=float(exponent))


def reciprocal_sums(s: PrimeSetS) -> tuple[float, float]:
    """Partial reciprocal sums split by residue class mod 4.

    The member 2 belongs to neither class and is skipped; the two sums add
    up to the reciprocal sum over the odd members.
    """
    r1 = r3 = 0.0
    for m, tag in zip(s.members, s.classes):
        if tag == 1:
            r1 += 1.0 / m
        elif tag == 3:
            r3 += 1.0 / m
    return r1, r3


def density_constant(members: Sequence[int]) -> float:
    """prod(1 - 1/m) over the members; the empty product is 1."""
    out = 1.0
    for m in members:
        out *= 1.0 - 1.0 / m
    return out


def coprime_mask(lo: int, hi: int, members: Sequence[int], step: int = 1) -> np.ndarray:
    """Boolean array over n = lo + step * i in [lo, hi): True where n shares
    no factor with members.  With step 2 (lo odd) the member 2 divides no n."""
    mask = np.ones(len(range(lo, hi, step)), dtype=bool)
    for m in members:
        if step % m:
            mask[first_index(m, lo, step) :: m] = False
    return mask

