"""Coincidence counts, certificate lower bounds, reports, diagnostics."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from omega_proximity.budget import DEFAULT_SEGMENT_SIZE
from omega_proximity.census import LevelSnapshots, census, concentration_tail, mode_k
from omega_proximity.errors import CertificateError
from omega_proximity.gfunction import GEntry, GFunction, build_g
from omega_proximity.primeset import PrimeSetS, threshold_prime_set
from omega_proximity.proximity import (
    _PairwiseSum,
    certificate_count,
    coincidence_count,
    growth_report,
    phi_diagnostics,
    phi_json_dict,
    report_csv_lines,
    report_json_dict,
)
from omega_proximity.sieve import prime_pi, primes_up_to

from oracles import certificate_count_slow, certificate_fails_slow, coincidence_count_slow, phi_slow


def _table_g(table, members=()):
    entries = tuple(GEntry(p, v, None, None, False) for p, v in table.items())
    return GFunction(None, PrimeSetS(tuple(members)), "big_omega", entries)


def test_identity_counts_primes():
    # big_omega(n) = 1 exactly at primes, and g == 1 everywhere
    assert coincidence_count(100, "big_omega", GFunction.identity()) == 25
    assert coincidence_count(1, "big_omega", GFunction.identity()) == 0
    assert coincidence_count(0, "big_omega", GFunction.identity()) == 0


def test_count_matches_slow_oracle(power_set_5):
    g = build_g(10_000, power_set_5, "big_omega")
    for tag in ("omega", "big_omega"):
        got = coincidence_count(2000, tag, g)
        want = coincidence_count_slow(2000, tag, g.table)
        assert got == want


@pytest.mark.parametrize("big", [2**62 + 1, 2**63 - 1, 10**30])
def test_count_saturates_huge_table_values(big):
    # 2**62 + 1 times 4 used to wrap around in int64 and fake matches.
    table = {3: big, 5: 4}
    g = _table_g(table, (3, 5))
    for tag in ("omega", "big_omega"):
        assert coincidence_count(1000, tag, g) == coincidence_count_slow(1000, tag, table)
    assert coincidence_count(1000, "big_omega", g) == 191
    l_count, checked = certificate_count(1000, g)
    assert l_count == checked <= 191


@st.composite
def _sets_and_tables(draw):
    odd = draw(st.lists(st.sampled_from([3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47]),
                        min_size=1, max_size=4, unique=True))
    members = sorted(odd)
    if draw(st.booleans()):
        members = [2] + members[:3]
    # Table primes outside the set, 2 among them when the set lacks it.
    outside = draw(st.lists(st.sampled_from([p for p in (2, 3, 5, 7, 53) if p not in members]),
                            max_size=2, unique=True))
    values = st.one_of(st.integers(0, 6), st.sampled_from([64, 100, 2**62 + 1]))
    return members, {p: draw(values) for p in members + outside}


@settings(max_examples=60, deadline=None)
@given(
    case=_sets_and_tables(),
    x=st.integers(1, 2500),
    f_tag=st.sampled_from(["omega", "big_omega"]),
    segment_size=st.sampled_from([64, 1000, 1 << 20]),
    threads=st.sampled_from([1, 2]),
)
# At x = 2**k the deepest 2-adic cutoff x >> b is 1; one below or above, it shifts.
@example(case=([3, 5], {3: 3, 5: 2, 2: 3}), x=2048, f_tag="big_omega", segment_size=64, threads=1)
@example(case=([3, 5], {3: 3, 5: 2, 2: 1}), x=2047, f_tag="big_omega", segment_size=1000, threads=1)
@example(case=([2, 3, 7], {2: 3, 3: 3, 7: 2}), x=2049, f_tag="omega", segment_size=64, threads=2)
@example(case=([2, 5], {2: 1, 5: 3, 3: 2}), x=1024, f_tag="big_omega", segment_size=1000, threads=1)
@example(case=([3, 11], {3: 4, 11: 3}), x=1023, f_tag="omega", segment_size=1 << 20, threads=1)
@example(case=([3, 11], {3: 4, 11: 3}), x=1025, f_tag="big_omega", segment_size=64, threads=2)
# Family (3, 1) wants level 33 below 33: the parked m = 3 sits at 1 + 64, out of reach.
@example(case=([3], {3: 34}), x=100, f_tag="big_omega", segment_size=64, threads=1)
def test_certificate_matches_slow_oracle(case, x, f_tag, segment_size, threads):
    members, table = case
    g = _table_g(table, members)
    if certificate_fails_slow(x, members, table, f_tag):
        with pytest.raises(CertificateError, match="certificate witness failed"):
            certificate_count(x, g, f_tag, segment_size, threads)
    else:
        want = certificate_count_slow(x, members, table, f_tag)
        assert certificate_count(x, g, f_tag, segment_size, threads) == (want, want)
    assert coincidence_count(x, f_tag, g, segment_size, threads) == coincidence_count_slow(x, f_tag, table)


def test_certificate_rejects_table_prime_outside_set():
    # Witnesses r * 3**a with 7 | r have g(n) = 4 != big_omega(n).
    g = _table_g({3: 2, 5: 3, 7: 2}, (3, 5))
    with pytest.raises(RuntimeError):
        certificate_count(1000, g)


def test_certificate_routes_must_agree(monkeypatch):
    # An r route one too high at every level contradicts the witnesses the n route found.
    at = LevelSnapshots.at
    monkeypatch.setattr(LevelSnapshots, "at", lambda self, y: at(self, y) + 1)
    with pytest.raises(CertificateError, match="certificate routes disagree"):
        certificate_count(1000, _table_g({3: 2, 5: 3}, (3, 5)))


def test_certificate_memory_is_per_segment(power_set_5):
    # Arrays over all of [0, x] at 10 bytes per integer would take 20 MB here.
    g = build_g(2_000_000, power_set_5, "big_omega")
    tracemalloc.start()
    try:
        certificate_count(2_000_000, g, segment_size=1 << 16)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 << 20


def test_count_monotone_in_x(power_set_5):
    g = build_g(10_000, power_set_5, "big_omega")
    counts = [coincidence_count(x, "big_omega", g) for x in (100, 500, 2500, 10_000)]
    assert all(a <= b for a, b in zip(counts, counts[1:]))


def test_count_segment_and_thread_independence(power_set_5):
    g = build_g(10_000, power_set_5, "big_omega")
    base = coincidence_count(10_000, "big_omega", g)
    assert coincidence_count(10_000, "big_omega", g, segment_size=64) == base
    assert coincidence_count(10_000, "big_omega", g, threads=3) == base


def test_certificate_frozen_at_1e4(power_set_5):
    g = build_g(10_000, power_set_5, "big_omega")
    l_count, checked = certificate_count(10_000, g)
    assert (l_count, checked) == (1301, 1301)
    assert coincidence_count(10_000, "big_omega", g) == 2728
    assert l_count <= 2728


def test_certificate_sound_in_omega_mode(power_set_5):
    g = build_g(2000, power_set_5, "omega")
    l_count, checked = certificate_count(2000, g, "omega")
    e_count = coincidence_count(2000, "omega", g)
    assert 0 < l_count <= e_count
    assert checked == l_count


def test_certificate_no_member_in_range(power_set_5):
    g = build_g(10_000, power_set_5, "big_omega")
    assert certificate_count(2, g) == (0, 0)


def test_certificate_requires_table_values(power_set_5):
    with pytest.raises(ValueError):
        certificate_count(100, GFunction(None, power_set_5, "big_omega", ()))


def test_growth_report_shape(power_set_5):
    g = build_g(10_000, power_set_5, "big_omega")
    rows = growth_report([10_000, 100, 10_000], 0.1, "big_omega", g)
    assert [r.x for r in rows] == [100, 10_000]
    row = rows[1]
    assert row.e_count == 2728
    assert row.l_count == 1301
    scale = math.log(math.log(10_000)) ** 0.6 / 10_000
    assert math.isclose(row.ratio_e, 2728 * scale, rel_tol=1e-15)
    assert math.isclose(row.ratio_l, 1301 * scale, rel_tol=1e-15)
    assert all(r.l_count <= r.e_count for r in rows)


def test_growth_report_without_set():
    rows = growth_report([100], 0.1, "big_omega", GFunction.identity())
    assert rows[0].e_count == 25
    assert rows[0].l_count == 0
    assert rows[0].ratio_l == 0.0


def test_growth_report_validation(power_set_5):
    g = build_g(10_000, power_set_5, "big_omega")
    with pytest.raises(ValueError):
        growth_report([100], 0.0, "big_omega", g)
    with pytest.raises(ValueError):
        growth_report([15], 0.1, "big_omega", g)


def test_report_csv_format(power_set_5):
    g = build_g(10_000, power_set_5, "big_omega")
    rows = growth_report([100], 0.25, "big_omega", g)
    lines = report_csv_lines(rows, "big_omega", 0.25)
    assert lines[0] == "x,f,E,L,loglogx,eps,ratio_E,ratio_L"
    cells = lines[1].split(",")
    assert cells[0] == "100"
    assert cells[1] == "big_omega"
    assert cells[2] == str(rows[0].e_count)
    assert cells[4] == repr(math.log(math.log(100)))
    assert cells[5] == "0.25"


def test_report_json_payload(power_set_5):
    g = build_g(10_000, power_set_5, "big_omega")
    rows = growth_report([100], 0.1, "big_omega", g)
    d = report_json_dict(rows, "big_omega", 0.1, g, "deadbeef")
    assert d["config_hash"] == "deadbeef"
    assert d["set"]["members"] == [3, 5, 11, 17, 29]
    assert d["g"]["table"][0]["prime"] == 3
    assert d["rows"][0]["x"] == 100
    assert d["rows"][0]["E"] == rows[0].e_count
    assert d["rows"][0]["L"] == rows[0].l_count


def test_phi_small_exact():
    d = phi_diagnostics(3, "omega")
    assert math.isclose(d.a_sum, 7 / 6, rel_tol=1e-12)
    assert math.isclose(d.b_sum, 5 / 6, rel_tol=1e-12)
    assert math.isclose(d.phi, 5 / 7, rel_tol=1e-12)
    assert d.max_level_count == 2
    assert math.isclose(d.k_of_x, 1.5, rel_tol=1e-15)
    d2 = phi_diagnostics(2, "big_omega")
    assert (d2.a_sum, d2.b_sum) == (0.5, 0.5)


def test_phi_census_reuse():
    # phi's own sweep finds the same busiest level as a separate census.
    for tag in ("omega", "big_omega"):
        d = phi_diagnostics(5000, tag)
        assert d.max_level_count == mode_k(census(5000, tag))[1]
        assert d.k_of_x == 5000 / d.max_level_count
    with pytest.raises(ValueError):
        phi_diagnostics(1, "omega")


@settings(max_examples=10, deadline=None)
@given(x=st.integers(2, 20_000), tag=st.sampled_from(["omega", "big_omega"]))
@example(x=2, tag="omega")
@example(x=3, tag="big_omega")
@example(x=1 << 20, tag="omega")
@example(x=65_535, tag="omega")
@example(x=65_536, tag="big_omega")
@example(x=65_537, tag="omega")
def test_phi_matches_slow_oracle_bit_for_bit(x, tag):
    a_sum, b_sum, phi, max_count = phi_slow(x, tag)
    # Each segment costs a Python loop over the sieve primes: at 2**20, 64
    # entries would make 8192 segments, and 1000 already makes 525.
    for segment_size in (64, 1000, 1 << 20) if x <= 65_537 else (1000, 1 << 20):
        for threads in (1, 2):
            d = phi_diagnostics(x, tag, segment_size=segment_size, threads=threads)
            got = (repr(d.a_sum), repr(d.b_sum), repr(d.phi), d.max_level_count)
            assert got == (repr(a_sum), repr(b_sum), repr(phi), max_count), (segment_size, threads)


def test_pairwise_sum_replays_numpy_bit_for_bit():
    # The node sums are numpy's own tree only if np.sum still builds it this
    # way: a numpy that sums otherwise fails here before any golden hash does.
    # Up to NODE values make one node, summed by one np.sum, so the lengths
    # cross node boundaries, and a second feed brings exactly one node per add.
    node = _PairwiseSum.NODE
    rng = np.random.default_rng(16)
    lengths = [*range(1, 600), *rng.integers(600, 2_000_001, 60).tolist(), node - 1, node, node + 1,
               2 * node - 8, 2 * node + 8, 3 * node + 1, 1_000_003, 1_048_577, 1_999_999]
    recips = 1.0 / primes_up_to(33_000_000).primes[: max(lengths)]
    for n in lengths:
        v = recips[:n]
        expected = (float(np.sum(v)), float(np.sum(1.0 - v)))
        stream, fed = _PairwiseSum(n), 0
        while fed < n:  # chunks of one value, of a few, and of many nodes
            size = int(rng.choice([1, rng.integers(1, 300), rng.integers(1, n // 4 + 2)]))
            stream.add(v[fed : fed + size])
            fed += size
        assert stream.totals() == expected, n
        stream, fed = _PairwiseSum(n), 0
        for m in stream.lens:
            stream.add(v[fed : fed + m])
            fed += m
        assert (fed, stream.totals()) == (n, expected), n


def test_pairwise_sum_holds_node_sums_only():
    # pi(10**8) values make 2048 nodes of at most NODE values; each keeps two
    # float sums and an int64 length, and at most one node's values wait in
    # the carry.  A pair of sums per leaf of 64 to 128 values held 1.13 MiB.
    n = prime_pi(10**8)
    chunk = np.full(1 << 18, 0.5)
    tracemalloc.start()
    try:
        stream = _PairwiseSum(n)
        for fed in range(0, n, len(chunk)):
            stream.add(chunk[: n - fed])
        totals = stream.totals()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert totals == (n / 2, n / 2)  # halves add exactly in any order
    assert peak < 0.25 * 2**20


def test_phi_memory_is_per_segment_plus_primes():
    # A prime table up to x with its float copies would take about 6.5 MB
    # here, and a 1/p buffer 8 bytes per prime <= x: 2.2 MB.  Streamed into
    # numpy's summation tree, phi keeps two floats per node of 2048 to 4096
    # primes; traced at 0.43 MiB, and 0.63 MiB with a pair per leaf of 64 to 128.
    tracemalloc.start()
    try:
        phi_diagnostics(4_000_000, "omega", segment_size=1 << 16)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.5 * 2**20


@pytest.fixture(scope="module")
def paper_g_40():
    return build_g(2_000_000, threshold_prime_set(0.5, 40), "omega")


def _traced_peak(consumer, g, segment_size):
    run = {
        "certificate": lambda: certificate_count(4_000_000, g, "omega", segment_size),
        "coincidence": lambda: coincidence_count(4_000_000, "omega", g, segment_size),
        "phi": lambda: phi_diagnostics(4_000_000, "omega", segment_size),
        "census": lambda: census(4_000_000, "omega", g.prime_set, segment_size),
        "tail": lambda: concentration_tail(4_000_000, 0.1),
    }[consumer]
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("consumer", ["certificate", "coincidence", "phi", "census", "tail"])
def test_consumers_hold_less_than_the_kernel_block(consumer, paper_g_40):
    # A 2^20-entry block costs the kernel 3 MiB (uint16 word, uint8 f).  Each
    # consumer reads it in views of 2^18 entries at up to 8 B per entry and
    # drops them, and the block, before the next block is sieved: 2 * 10**6
    # odd n make two blocks, 4 * 10**6 n four.  Whole blocks held 7.1, 5.8,
    # 6.0, 4.8 and 17 MiB.  The tail now sweeps nothing: it holds level
    # tables of about 2 sqrt(x) rows.
    assert _traced_peak(consumer, paper_g_40, 1 << 20) < 3.5 * 2**20


@pytest.mark.parametrize("consumer", ["certificate", "coincidence", "phi", "census"])
def test_consumers_hold_less_than_a_default_block(consumer, paper_g_40):
    # A default 2^18-entry block costs the kernel 0.75 MiB; with a consumer's
    # 2^17-entry view on top, traced peaks were 0.96-1.02 MiB for census, E
    # and phi and 1.23 MiB for L, against 1.66-2.24 MiB with 2^19-entry blocks
    # read in 2^18-entry views, and 3.20-3.25 MiB at 2^20.
    assert _traced_peak(consumer, paper_g_40, DEFAULT_SEGMENT_SIZE) < 1.5 * 2**20


def test_phi_json_payload():
    d = phi_diagnostics(100, "omega")
    payload = phi_json_dict(d, "cafe")
    assert payload["x"] == 100
    assert payload["f"] == "omega"
    assert payload["phi"] == d.phi
    assert payload["K_of_x"] == d.k_of_x
    assert payload["config_hash"] == "cafe"


def test_certificate_witnesses_are_disjoint_families():
    # two members whose witness families must not collide
    s = PrimeSetS((3, 5))
    g = build_g(500, s, "big_omega")
    l_count, checked = certificate_count(500, g)
    e_count = coincidence_count(500, "big_omega", g)
    assert checked == l_count <= e_count
