"""Prime-set builders, counting routes, and density constants."""

import math

import numpy as np
import pytest

from omega_proximity.census import census
from omega_proximity.primeset import (
    PrimeSetS,
    coprime_mask,
    density_constant,
    power_prime_set,
    reciprocal_sums,
    threshold_prime_set,
)

from oracles import coprime_count_inclusion_exclusion, coprime_count_slow, is_prime_slow


def test_threshold_set_examples():
    s = threshold_prime_set(0.5, 5)
    assert s.members == (2, 3, 7, 11, 13)
    assert s.classes == (None, 3, 3, 3, 1)
    assert s.kind == "paper"
    assert s.delta == 0.5
    assert threshold_prime_set(1.0, 4).members == (2, 5, 11, 17)


def test_power_set_examples():
    s = power_prime_set(2.0, 5)
    assert s.members == (3, 5, 11, 17, 29)
    assert s.classes == (3, 1, 3, 1, 1)
    assert s.kind == "power"
    assert power_prime_set(3.0, 3).members == (3, 11, 29)


def test_power_set_excludes_two_and_rejects_slow_growth():
    s = power_prime_set(2.0, 40)
    assert 2 not in s.members
    for bad in (1.0, math.inf, math.nan):
        with pytest.raises(ValueError):
            power_prime_set(bad, 5)
    for bad in (0.0, math.inf, math.nan):
        with pytest.raises(ValueError):
            threshold_prime_set(bad, 5)


def test_builders_emit_increasing_primes():
    for s in (threshold_prime_set(0.5, 30), power_prime_set(2.0, 30)):
        assert all(is_prime_slow(m) for m in s.members)
        assert all(a < b for a, b in zip(s.members, s.members[1:]))


def test_direct_construction_validates_members():
    # The member checks run on construction, so no route builds an invalid
    # set; 2 after another member fails as not strictly increasing, and a
    # member that is not an integer is refused rather than rounded.
    for members in ((4,), (5, 3), (3, 3), (3, 2), (3.0,), ("7",), (True,)):
        with pytest.raises(ValueError):
            PrimeSetS(members)
    with pytest.raises(ValueError, match="integer"):
        PrimeSetS.from_json_dict({"members": [3.9, 5.2, "7"]})
    assert PrimeSetS((2, 13)).classes == (None, 1)


def test_reciprocal_sums_split_by_class():
    s = PrimeSetS((3, 5, 7))
    r1, r3 = reciprocal_sums(s)
    assert math.isclose(r1, 1 / 5, rel_tol=1e-12)
    assert math.isclose(r3, 1 / 3 + 1 / 7, rel_tol=1e-12)


def test_reciprocal_sums_skip_member_two():
    with2 = PrimeSetS((2, 3, 5))
    without2 = PrimeSetS((3, 5))
    assert reciprocal_sums(with2) == reciprocal_sums(without2)


def test_density_constant():
    assert math.isclose(density_constant([3, 5, 7]), 16 / 35, rel_tol=1e-12)
    assert math.isclose(density_constant([2, 3, 7]), 2 / 7, rel_tol=1e-12)
    assert density_constant([]) == 1.0


def test_density_strictly_decreasing():
    members = list(power_prime_set(2.0, 12).members)
    densities = [density_constant(members[:i]) for i in range(len(members) + 1)]
    assert all(a > b for a, b in zip(densities, densities[1:]))


def test_convergence_witness_for_square_growth():
    # partial sums of 1/s_j with s_j >= j^2 stay under 1/3 + integral of t^-2
    s = power_prime_set(2.0, 10_000)
    assert sum(reciprocal_sums(s)) <= 1 / 3 + 1.0


def test_coprime_count_example():
    assert coprime_count_inclusion_exclusion(20, [3, 5]) == 11


def test_coprime_count_dual_route_exact():
    # The restricted census counts by marking; inclusion-exclusion never marks.
    sets = [
        [2],
        [3, 5],
        [2, 3, 5, 7, 11],
        list(power_prime_set(2.0, 12).members),
        list(threshold_prime_set(0.5, 9).members),
    ]
    for members in sets:
        restrict = PrimeSetS(tuple(members))
        for y in (1, 97, 5000, 100_000):
            marked = census(y, "omega", restrict=restrict).total()
            assert marked == coprime_count_inclusion_exclusion(y, members), (members, y)


def test_coprime_count_matches_oracle():
    for members in ([3, 5], [2, 7, 13]):
        for y in (1, 50, 400):
            assert coprime_count_inclusion_exclusion(y, members) == coprime_count_slow(y, members)


def test_coprime_mask_of_odd_entries():
    # With step 2 the mask holds the odd entries of the step-1 mask; the
    # member 2 excludes no odd n, and a member above hi excludes nothing.
    for members in ([3], [2, 3, 5], [2], [7, 11, 13], [3, 10007]):
        for lo, hi in ((1, 2), (1, 1000), (999, 1234), (10**6 + 1, 10**6 + 700)):
            full = coprime_mask(lo, hi, members)
            assert np.array_equal(coprime_mask(lo, hi, members, 2), full[::2]), (members, lo, hi)


@pytest.mark.parametrize("kind, delta, exponent", [
    (5, "oops", None),
    ("Paper", 0.5, None),
    ("paper", None, None),
    ("paper", 0.0, None),
    ("paper", math.nan, None),
    ("paper", True, None),
    ("paper", 0.5, 2.0),
    ("power", None, 1.0),
    ("power", None, math.inf),
    ("power", None, "2"),
    ("power", 0.5, 2.0),
    ("custom", 0.5, None),
    ("custom", None, 2.0),
])
def test_provenance_must_fit_its_kind(kind, delta, exponent):
    # A paper set carries a finite delta > 0 and a power set a finite
    # exponent > 1, each alone; a custom set carries neither.
    with pytest.raises(ValueError, match="set"):
        PrimeSetS.from_json_dict({"members": [3, 5], "kind": kind, "delta": delta, "exponent": exponent})


def test_builders_record_their_parameter():
    assert threshold_prime_set(0.5, 3) == PrimeSetS((2, 3, 7), "paper", delta=0.5)
    assert power_prime_set(2, 3) == PrimeSetS((3, 5, 11), "power", exponent=2.0)
    assert PrimeSetS.from_json_dict({"members": [2, 5], "kind": "paper", "delta": 1}).delta == 1
    with pytest.raises(ValueError):  # threshold_prime_set(1, 1) is [2]
        PrimeSetS.from_json_dict({"members": [3], "kind": "paper", "delta": 1})


def test_json_round_trip():
    s = power_prime_set(2.0, 5)
    d = s.to_json_dict()
    assert d["members"] == [3, 5, 11, 17, 29]
    assert math.isclose(d["density"], density_constant(s.members), rel_tol=1e-15)
    back = PrimeSetS.from_json_dict(d)
    assert back.members == s.members
    assert back.classes == s.classes
    assert back.kind == s.kind
