"""Maximizer search and construction of the multiplicative target g."""

import json
import math
import random

import pytest

from omega_proximity.census import census
from omega_proximity.errors import ScaleError
from omega_proximity.gfunction import GEntry, GFunction, build_g, compute_maximizer
from omega_proximity.primeset import PrimeSetS, power_prime_set, threshold_prime_set

from oracles import eval_g_slow, maximizer_slow


def test_maximizer_single_member():
    s = PrimeSetS((3,))
    pair = compute_maximizer(100, s, 1, "big_omega")
    assert pair == (1, 10)
    assert pair == maximizer_slow(100, [3], 1, "big_omega")


def test_maximizer_matches_oracle():
    s = power_prime_set(2.0, 3)
    for x in (200, 997):
        for idx in (1, 2, 3):
            for tag in ("omega", "big_omega"):
                assert compute_maximizer(x, s, idx, tag) == maximizer_slow(x, list(s.members), idx, tag)


def test_maximizer_is_maximal(power_set_5):
    pair = compute_maximizer(10_000, power_set_5, 2, "big_omega")
    assert pair == maximizer_slow(10_000, list(power_set_5.members), 2, "big_omega")
    t = census(10_000 // 5, "big_omega", restrict=power_set_5)
    assert pair[1] == max(t.counts.values())


def test_maximizer_frozen_value():
    s = PrimeSetS((5,))
    assert compute_maximizer(10_000, s, 1, "big_omega") == (2, 499)
    assert maximizer_slow(10_000, [5], 1, "big_omega") == (2, 499)


def test_maximizer_scale_error():
    s = PrimeSetS((53,))
    with pytest.raises(ScaleError):
        compute_maximizer(100, s, 1, "big_omega")
    with pytest.raises(ValueError):
        compute_maximizer(100, s, 2, "big_omega")


def test_build_g_big_omega_power_set(power_set_5):
    g = build_g(10_000, power_set_5, "big_omega")
    assert g.table == {3: 3, 5: 2, 11: 2, 17: 2, 29: 2}
    by_prime = {e.prime: e for e in g.entries}
    # class 3 members take value z + 1, class 1 members z - 1
    assert by_prime[3].residue_class == 3
    assert by_prime[3].value == by_prime[3].z + 1
    assert by_prime[5].residue_class == 1
    assert by_prime[5].value == by_prime[5].z - 1
    assert not any(e.fallback for e in g.entries)


def test_build_g_omega_mode():
    s = PrimeSetS((2,))
    g = build_g(1618, s, "omega")
    assert g.table == {2: 3}
    assert g.entries[0].z == 3


def test_build_g_member_two_is_neutral_under_big_omega():
    s = threshold_prime_set(0.5, 3)  # members (2, 3, 7)
    g = build_g(1000, s, "big_omega")
    entry2 = g.entries[0]
    assert entry2.prime == 2
    assert entry2.value == 1
    assert entry2.fallback
    assert entry2.z is None


def test_build_g_fallback_for_large_members():
    s = PrimeSetS((3, 61))
    g = build_g(100, s, "big_omega")
    by_prime = {e.prime: e for e in g.entries}
    assert by_prime[61].value == 1
    assert by_prime[61].fallback
    assert by_prime[61].residue_class == 1
    assert not by_prime[3].fallback


def test_value_by_divisibility():
    g = GFunction(None, None, "big_omega", (GEntry(5, 4, None, None, False), GEntry(13, 6, None, None, False)))
    assert g.value(65) == 24
    assert g.value(7) == 1
    assert g.value(1) == 1
    assert g.value(5 * 5 * 7) == 4
    with pytest.raises(ValueError):
        g.value(0)


@pytest.mark.parametrize(
    "rows",
    [
        [{"prime": 4, "value": -3}, {"prime": 4, "value": 2}],
        [{"prime": 9, "value": 2}],
        [{"prime": 1, "value": 2}],
        [{"prime": -3, "value": 2}],
        [{"prime": 2**63 + 29, "value": 2}],
        [{"prime": 3, "value": 2}, {"prime": 3, "value": 2}],
        [{"prime": 3, "value": -1}],
        [{"prime": 3, "value": 2.5}],
        [{"prime": 3.0, "value": 2}],
        [{"prime": 3, "value": "2"}],
        [{"prime": 3, "value": True}],
        [{"prime": 3, "value": 2, "z": 2.7}],
        [{"prime": 3, "value": 2, "class": "3"}],
        [{"prime": 3, "value": 2, "fallback": "false"}],
        # A whole document, whose fault is outside the table: tags have one spelling.
        {"f": "bigomega", "table": [{"prime": 3, "value": 2}]},
    ],
)
def test_table_validation_rejects_bad_rows(rows):
    doc = rows if isinstance(rows, dict) else {"f": "big_omega", "table": rows}
    with pytest.raises(ValueError):
        GFunction.from_json_dict(doc)


def test_table_validation_accepts_edge_values():
    g = GFunction.from_json_dict(
        {"table": [{"prime": 2**61 - 1, "value": 0}, {"prime": 3, "value": 10**30}]}
    )
    assert g.table == {2**61 - 1: 0, 3: 10**30}
    with pytest.raises(ValueError):
        GFunction(None, None, "big_omega", (GEntry(15, 2, None, None, False),))


def test_identity_function():
    ident = GFunction.identity()
    assert all(ident.value(n) == 1 for n in (1, 2, 97, 360))


def test_strong_multiplicativity_property(power_set_5):
    g = build_g(10_000, power_set_5, "big_omega")
    rng = random.Random(4241)
    for _ in range(500):
        p = rng.choice(power_set_5.members)
        a = rng.randint(1, 4)
        m = rng.randint(1, 5000)
        assert g.value(p**a * m) == g.value(p * m)
    for _ in range(500):
        m = rng.randint(1, 30_000)
        n = rng.randint(1, 30_000)
        while math.gcd(m, n) != 1:
            n = rng.randint(1, 30_000)
        assert g.value(m * n) == g.value(m) * g.value(n)


def test_value_matches_slow_oracle(power_set_5):
    g = build_g(10_000, power_set_5, "big_omega")
    for n in range(1, 2000):
        assert g.value(n) == eval_g_slow(n, g.table)


def test_serialization_round_trip_and_determinism(power_set_5):
    g1 = build_g(10_000, power_set_5, "big_omega")
    g2 = build_g(10_000, power_set_5, "big_omega")
    assert json.dumps(g1.to_json_dict(), indent=2) == json.dumps(g2.to_json_dict(), indent=2)
    back = GFunction.from_json_dict(g1.to_json_dict())
    assert back.table == g1.table
    assert back.entries == g1.entries
    assert back.x == g1.x
    assert back.f_tag == g1.f_tag
