"""Strongly multiplicative step functions from census maximizers.

Responsibility: pick, for each member prime of a sparse set, the value a
strongly multiplicative g should take there so that g(n) hits the busiest
factor-count level of the integers coprime to the set, and evaluate the
resulting g.  g(p) = 1 off the set, so g(n) depends only on which members
divide n, never on their exponents.
"""

from __future__ import annotations

from dataclasses import dataclass

from .budget import DEFAULT_SEGMENT_SIZE
from .census import census, mode_k
from .errors import ScaleError
from .primeset import PrimeSetS, _is_int
from .sieve import F_TAGS, is_prime


@dataclass(frozen=True)
class GEntry:
    """Provenance for one member prime of a built g."""

    prime: int
    value: int
    z: int | None
    residue_class: int | None
    fallback: bool


@dataclass(frozen=True)
class GFunction:
    """Strongly multiplicative g given by a finite prime -> value table.

    g(n) is the product of table values over the table primes dividing n;
    primes outside the table contribute 1, so the empty table is g == 1.
    prime_set is the set g was built over, whose members the certificate
    takes as witnesses.  f_tag must be one of F_TAGS, table primes distinct
    primes below 2**63, values integers >= 0, z and residue_class None or
    integers, fallback a bool, and x None or an integer >= 1; anything else
    raises ValueError at construction.
    """

    x: int | None
    prime_set: PrimeSetS | None
    f_tag: str
    entries: tuple[GEntry, ...]

    def __post_init__(self) -> None:
        if self.f_tag not in F_TAGS:
            raise ValueError(f"g f must be one of {F_TAGS}, got {self.f_tag!r}")
        if self.x is not None and (not _is_int(self.x) or self.x < 1):
            raise ValueError(f"g x must be None or an integer >= 1, got {self.x!r}")
        seen: set[int] = set()
        for e in self.entries:
            for name, v in (("prime", e.prime), ("value", e.value)):
                if not _is_int(v):
                    raise ValueError(f"g table {name} must be an integer, got {v!r}")
            for name, v in (("z", e.z), ("class", e.residue_class)):
                if v is not None and not _is_int(v):
                    raise ValueError(f"g table {name} must be None or an integer, got {v!r}")
            if not isinstance(e.fallback, bool):
                raise ValueError(f"g table fallback must be a boolean, got {e.fallback!r}")
            if e.prime >= 1 << 63 or not is_prime(e.prime):
                raise ValueError(f"g table prime {e.prime} is not a prime below 2**63")
            if e.prime in seen:
                raise ValueError(f"g table lists the prime {e.prime} twice")
            seen.add(e.prime)
            if e.value < 0:
                raise ValueError(f"g table value at {e.prime} must be >= 0, got {e.value}")

    @property
    def table(self) -> dict[int, int]:
        return {e.prime: e.value for e in self.entries}

    def value(self, n: int) -> int:
        """g(n) by divisibility tests against the table primes only."""
        if n < 1:
            raise ValueError(f"g is defined on positive integers, got {n}")
        out = 1
        for e in self.entries:
            if n % e.prime == 0:
                out *= e.value
        return out

    @classmethod
    def identity(cls) -> "GFunction":
        return cls(None, None, "big_omega", ())

    def to_json_dict(self) -> dict:
        return {
            "x": self.x,
            "f": self.f_tag,
            "set": self.prime_set.to_json_dict() if self.prime_set else None,
            "table": [
                {
                    "prime": e.prime,
                    "value": e.value,
                    "z": e.z,
                    "class": e.residue_class,
                    "fallback": e.fallback,
                }
                for e in self.entries
            ],
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "GFunction":
        pset = PrimeSetS.from_json_dict(d["set"]) if d.get("set") else None
        entries = tuple(
            GEntry(row["prime"], row["value"], row.get("z"), row.get("class"), row.get("fallback", False))
            for row in d["table"]
        )
        return cls(d.get("x"), pset, d.get("f", "big_omega"), entries)


def compute_maximizer(
    x: int,
    prime_set: PrimeSetS,
    index: int,
    f_tag: str = "big_omega",
    segment_size: int = DEFAULT_SEGMENT_SIZE,
    threads: int = 1,
) -> tuple[int, int]:
    """(level, count) of the busiest f-level among r <= x // member coprime
    to the whole set, ties resolved toward the smaller level.

    index is 1-based.  Requires member <= x/2 so the restricted range
    holds more than r = 1; smaller x raises ScaleError.
    """
    if not 1 <= index <= len(prime_set.members):
        raise ValueError(f"index must be in 1..{len(prime_set.members)}, got {index}")
    prime = prime_set.members[index - 1]
    if 2 * prime > x:
        raise ScaleError(f"member {prime} needs x >= {2 * prime}, got x = {x}")
    return mode_k(census(x // prime, f_tag, restrict=prime_set, segment_size=segment_size, threads=threads))


def build_g(
    x: int,
    prime_set: PrimeSetS,
    f_tag: str = "big_omega",
    segment_size: int = DEFAULT_SEGMENT_SIZE,
    threads: int = 1,
) -> GFunction:
    """Value every member of the set from its restricted-census maximizer.

    Every member that does not fall back takes value level + 1, one above
    the busiest level of its restricted census.  Only the bookkeeping level
    z depends on f and the residue class: z = level + 1 with f = omega;
    with f = big_omega, z = level + 2 for members 1 mod 4 (value z - 1) and
    z = level for members 3 mod 4 (value z + 1).

    Members above x/2 have no usable restricted range, and with f =
    big_omega the member 2 carries no class; they fall back to value 1
    with fallback=True, and still contribute their own prime as a
    coincidence witness.  Rebuilding at the same (x, set, f) reproduces
    the same table byte for byte.
    """
    if x < 1:
        raise ValueError(f"build_g requires x >= 1, got {x}")
    entries: list[GEntry] = []
    for index, (prime, residue) in enumerate(zip(prime_set.members, prime_set.classes), 1):
        if 2 * prime > x or (f_tag == "big_omega" and prime == 2):
            entries.append(GEntry(prime, 1, None, residue, True))
            continue
        level, _ = compute_maximizer(x, prime_set, index, f_tag, segment_size, threads)
        z = level + (1 if f_tag == "omega" else 2 if residue == 1 else 0)
        entries.append(GEntry(prime, level + 1, z, residue, False))
    return GFunction(x, prime_set, f_tag, tuple(entries))
