"""Command-line front end, file outputs, and exit codes."""

import hashlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from omega_proximity import census as census_module, cli, proximity as proximity_module, sieve
from omega_proximity.cli import main


# Nested past the JSON parser's recursion limit.
DEEP_JSON = "[" * 200_000 + "]" * 200_000


def run(argv, tmp_path):
    return main([*argv, "--out", str(tmp_path)])


def test_census_writes_csv_and_metadata(tmp_path, capsys):
    assert run(["census", "--x", "100", "--f", "omega"], tmp_path) == 0
    out = capsys.readouterr().out
    assert "mode_k=2 mode_count=56" in out
    csv = (tmp_path / "census_omega_x100.csv").read_text()
    assert csv.splitlines() == ["k,count", "0,1", "1,35", "2,56", "3,8"]
    meta = json.loads((tmp_path / "census_omega_x100.meta.json").read_text())
    assert meta["total"] == 100
    assert meta["csv"] == "census_omega_x100.csv"
    assert len(meta["config_hash"]) == 16


def test_census_restricted_totals(tmp_path):
    assert run(["census", "--x", "1000", "--f", "bigomega", "--restrict"], tmp_path) == 0
    meta = json.loads((tmp_path / "census_bigomega_x1000_coprime.meta.json").read_text())
    assert meta["restricted"] is True
    assert meta["set"]["members"] == [3, 5, 11, 17, 29]


def test_construct_writes_set_and_g(tmp_path, capsys):
    assert run(["construct", "--x", "10000", "--set", "paper", "--delta", "0.5"], tmp_path) == 0
    sdoc = json.loads((tmp_path / "set.json").read_text())
    assert sdoc["members"] == [2, 3, 7, 11, 13]
    assert sdoc["classes"] == [None, 3, 3, 3, 1]
    gdoc = json.loads((tmp_path / "g.json").read_text())
    assert gdoc["x"] == 10000
    assert gdoc["table"][0]["prime"] == 2
    assert gdoc["table"][0]["value"] == 1  # neutral under big_omega
    assert "config_hash" in gdoc


def test_count_and_certificate_agree_with_frozen_values(tmp_path, capsys):
    assert run(["count", "--x", "10000"], tmp_path) == 0
    assert "E = 2728" in capsys.readouterr().out
    cdoc = json.loads((tmp_path / "count_bigomega_x10000.json").read_text())
    assert cdoc["E"] == 2728

    assert run(["certificate", "--x", "10000"], tmp_path) == 0
    assert "L = 1301 (witnesses checked: 1301)" in capsys.readouterr().out
    ldoc = json.loads((tmp_path / "certificate_bigomega_x10000.json").read_text())
    assert ldoc["L"] == 1301
    assert ldoc["witnesses_checked"] == 1301


def test_count_accepts_g_file(tmp_path, capsys):
    assert run(["construct", "--x", "10000"], tmp_path) == 0
    capsys.readouterr()
    g_path = str(tmp_path / "g.json")
    assert run(["count", "--x", "10000", "--g", g_path], tmp_path) == 0
    assert "E = 2728" in capsys.readouterr().out


def test_report_rerun_is_byte_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir(), b.mkdir()
    args = ["report", "--grid", "100,1000", "--eps", "0.1"]
    assert run(args, a) == 0
    assert run(args, b) == 0
    assert (a / "report.csv").read_bytes() == (b / "report.csv").read_bytes()
    assert (a / "report.json").read_bytes() == (b / "report.json").read_bytes()
    lines = (a / "report.csv").read_text().splitlines()
    assert lines[0] == "x,f,E,L,loglogx,eps,ratio_E,ratio_L"
    assert len(lines) == 3


@pytest.mark.parametrize("segment_size", ["131071", "131072", "262143", "262144", "1048576"])
def test_report_bytes_do_not_depend_on_views(tmp_path, segment_size):
    # 10**6 odd n up to 2*10**6, in views of 2**17 entries: blocks of 2**17 - 1
    # entries yield one view each, blocks of 2**17 one full view, blocks of
    # 2**18 - 1 a full view and one an entry short of it, blocks of 2**18 two
    # full views, and one 2**20 block eight views.
    # The digests were recorded from whole-block reads, before views existed.
    assert run(["report", "--grid", "100000,1000000,2000000", "--segment-size", segment_size], tmp_path) == 0
    written = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(tmp_path.iterdir())}
    assert written == {
        "report.csv": "0cda73a2e57bcabcebba4bcc0dcc870b724e379c8d86e8f420d1419f0f061f00",
        "report.json": "5f979da5d19a0a075f135606e60193c5f2505d55f0210f914879ab2a71da11d9",
    }


def test_report_empty_grid(tmp_path):
    assert run(["report", "--grid", ""], tmp_path) == 0
    assert (tmp_path / "report.csv").read_text() == "x,f,E,L,loglogx,eps,ratio_E,ratio_L\n"


def test_phi_output(tmp_path, capsys):
    assert run(["phi", "--x", "100", "--f", "omega"], tmp_path) == 0
    doc = json.loads((tmp_path / "phi_omega_x100.json").read_text())
    assert doc["x"] == 100
    assert doc["max_level_count"] == 56
    assert doc["phi"] == doc["B"] / doc["A"]


def test_verify_passes(tmp_path, capsys):
    assert run(["verify", "--x", "2000"], tmp_path) == 0
    out = capsys.readouterr().out
    assert "[FAIL]" not in out
    assert "7/7 checks passed" in out
    # Below the smallest member there is no witness, and L = 0 is right.
    for x in ("1", "2"):
        assert run(["verify", "--x", x], tmp_path) == 0, x
        out = capsys.readouterr().out
        assert "[FAIL]" not in out, x
        assert "L=0 <= E=" in out, x


def test_verify_fails_a_wrong_lift(tmp_path, capsys, monkeypatch):
    # Lifting omega by a, as for big_omega, keeps every total but puts the
    # even n at the wrong levels; the level tables, which lift nothing, tell.
    init = census_module.LevelSnapshots.__init__
    monkeypatch.setattr(census_module.LevelSnapshots, "__init__",
                        lambda self, ys, tag, odd_only: init(self, ys, "big_omega", odd_only))
    assert run(["verify", "--x", "2000"], tmp_path) == 1
    out = capsys.readouterr().out
    assert "[ ok ] count-lift" in out
    assert "[FAIL] census-tables" in out


def test_verify_fails_a_missed_member(tmp_path, capsys, monkeypatch):
    # A coprime mask that forgets the last member keeps the unrestricted
    # censuses, but counts its multiples in the restricted ones.
    mask = census_module.coprime_mask
    monkeypatch.setattr(census_module, "coprime_mask",
                        lambda lo, hi, members, step: mask(lo, hi, members[:-1], step))
    assert run(["verify", "--x", "2000"], tmp_path) == 1
    out = capsys.readouterr().out
    assert "[ ok ] sieve-vs-factorization" in out
    assert "[FAIL] census-tables" in out


def test_verify_fails_a_wrong_count_lift(tmp_path, capsys, monkeypatch):
    # Lifting omega's even n by b, as for big_omega, keeps the odd n right
    # and the big_omega certificate intact; only the direct count can tell.
    lift = proximity_module._even_matches
    monkeypatch.setattr(proximity_module, "_even_matches",
                        lambda d, seg, x, tag: lift(d, seg, x, "big_omega"))
    assert run(["verify", "--x", "2000"], tmp_path) == 1
    out = capsys.readouterr().out
    assert "[ ok ] certificate-soundness" in out
    assert "[FAIL] count-lift" in out


def test_verify_fails_a_wrong_prime_count(tmp_path, capsys, monkeypatch):
    # Level 1 of the tables one too high, a prime count off by one,
    # contradicts every census's level 1.
    tables = cli.level_tables

    def shifted(*args):
        values, table = tables(*args)
        table[:, 1] += 1
        return values, table

    monkeypatch.setattr(cli, "level_tables", shifted)
    assert run(["verify", "--x", "2000"], tmp_path) == 1
    out = capsys.readouterr().out
    assert "[ ok ] sieve-vs-factorization" in out
    assert "[FAIL] census-tables" in out


def test_verify_fails_a_wrong_tail(tmp_path, capsys, monkeypatch):
    # A banded tail one too high disagrees with the per-n count on the full
    # omega sweep, which count-lift reads too.
    tail = cli.concentration_tail
    monkeypatch.setattr(cli, "concentration_tail", lambda *args: tail(*args) + 1)
    assert run(["verify", "--x", "2000"], tmp_path) == 1
    out = capsys.readouterr().out
    assert "[ ok ] count-lift" in out
    assert "[FAIL] tail-bands" in out


def test_verify_fails_a_wrong_g_segment(tmp_path, capsys, monkeypatch):
    # Capping g at 63 instead of 64 changes no match, as no f(n) reaches 63, so
    # the full-sweep E agrees; only g per n can tell, at n = 2 * 3 * 5 * 11 * 17 * 29.
    real = cli._g_segment_values
    monkeypatch.setattr(cli, "_g_segment_values", lambda *args: np.minimum(real(*args), 63))
    assert run(["verify", "--x", "2000"], tmp_path) == 1
    out = capsys.readouterr().out
    assert "[ ok ] count-lift" in out
    assert "[FAIL] g-segments" in out


def test_verify_validates_g_file(tmp_path, capsys):
    assert run(["construct", "--x", "2000"], tmp_path) == 0
    capsys.readouterr()
    g_path = tmp_path / "g.json"
    assert run(["verify", "--x", "2000", "--g", str(g_path)], tmp_path) == 0
    assert "8/8 checks passed" in capsys.readouterr().out

    doc = json.loads(g_path.read_text())
    doc["table"][0]["value"] += 1
    doc["table"][0]["z"] += 1  # a row build_g could make, one level up: only a rebuild tells
    bad = tmp_path / "g_bad.json"
    bad.write_text(json.dumps(doc))
    assert run(["verify", "--x", "2000", "--g", str(bad)], tmp_path) == 1
    out = capsys.readouterr().out
    assert "[FAIL] g-file-integrity: table differs from rebuild" in out
    assert "7/8 checks passed" in out


def test_verify_rejects_unreadable_g(tmp_path, capsys):
    junk = tmp_path / "junk.json"
    # A hand g without x is valid, but has nothing to rebuild from.
    no_x = json.dumps({"f": "big_omega", "set": {"members": [3, 5]}, "table": [{"prime": 3, "value": 2}]})
    texts = (("{broken", ""), ("[1, 2]", ""), (DEEP_JSON, "malformed g file"),
             (no_x, "g file lacks construction provenance"))
    for text, reason in texts:
        junk.write_text(text)
        assert run(["verify", "--x", "2000", "--g", str(junk)], tmp_path) == 1
        assert f"[FAIL] g-file-integrity: unreadable or inconsistent: {reason}" in capsys.readouterr().out


def test_usage_errors_exit_2(tmp_path, capsys):
    assert run(["census", "--x", "0"], tmp_path) == 2
    assert run(["count", "--x", "100", "--g", str(tmp_path / "missing.json")], tmp_path) == 2
    assert run(["construct", "--x", "100", "--count", "0"], tmp_path) == 2
    assert run(["construct", "--x", "100", "--set", "paper", "--count", "0"], tmp_path) == 2
    with pytest.raises(SystemExit) as exc:
        run(["census", "--x", "10", "--f", "theta"], tmp_path)
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    ["report", "--grid", "10000", "--eps", "nan"],
    ["report", "--grid", "10000", "--eps", "inf"],
    ["construct", "--x", "1000", "--set", "paper", "--delta", "nan"],
    ["construct", "--x", "1000", "--set", "power", "--param", "inf"],
    ["report", "--grid=", "--eps", "-1"],
    ["construct", "--x", "1000", "--set", "paper", "--delta", "2000"],
    ["report", "--grid", "20000000", "--eps", "0"],
    ["report", "--grid", "8,20000000"],
    ["report", "--grid", "20000000", "--eps", "800"],
], ids=["eps-nan", "eps-inf", "delta-nan", "param-inf", "empty-grid-eps-negative", "delta-overflow",
        "eps-zero", "grid-below-16", "eps-overflow"])
def test_bad_float_flags_exit_2(tmp_path, capsys, monkeypatch, argv):
    # JSON has no NaN or infinity, and an infinite or huge exponent overflows
    # the set builder's float power: refused before any file is written.  The
    # report's eps and grid are refused before g is built at the largest x,
    # as is an eps whose (log log x)**(1/2 + eps) overflows there.
    calls, real = [], sieve.iter_factor_segments

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    for module in (sieve, census_module, proximity_module, cli):
        monkeypatch.setattr(module, "iter_factor_segments", counting)
    out = tmp_path / "out"
    assert run(argv, out) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert err.startswith("error: ")
    assert list(out.iterdir()) == []
    assert calls == []


@pytest.mark.parametrize("threads", ["0", "-1"])
@pytest.mark.parametrize("command", [["census", "--x", "100"], ["verify"]])
def test_threads_below_one_exit_2(tmp_path, capsys, command, threads):
    with pytest.raises(SystemExit) as exc:
        run([*command, "--threads", threads], tmp_path)
    assert exc.value.code == 2
    assert "--threads" in capsys.readouterr().err


@pytest.mark.parametrize("x", ["0", "-1"])
def test_verify_x_below_one_exit_2(tmp_path, capsys, x):
    # Refused while parsing, naming the flag, not by the sieve's range check.
    with pytest.raises(SystemExit) as exc:
        run(["verify", "--x", x], tmp_path)
    assert exc.value.code == 2
    assert "--x" in capsys.readouterr().err


def test_count_rejects_invalid_g_table(tmp_path, capsys):
    g_path = tmp_path / "bad_g.json"
    g_path.write_text(json.dumps({"f": "big_omega", "table": [
        {"prime": 4, "value": -3}, {"prime": 4, "value": 2},
    ]}))
    assert run(["count", "--x", "100", "--g", str(g_path)], tmp_path) == 2
    assert "g table" in capsys.readouterr().err
    assert not (tmp_path / "count_bigomega_x100.json").exists()


def test_certificate_check_failure_exit_1(tmp_path, capsys):
    # Witnesses r * 3**a with 7 | r have g(n) = 4 != big_omega(n).
    g_path = tmp_path / "bad.json"
    g_path.write_text(json.dumps({
        "f": "big_omega",
        "set": {"members": [3, 5]},
        "table": [{"prime": 3, "value": 2}, {"prime": 5, "value": 3}, {"prime": 7, "value": 2}],
    }))
    assert run(["certificate", "--x", "1000", "--g", str(g_path)], tmp_path) == 1
    err = capsys.readouterr().err
    assert err.splitlines() == ["error: certificate witness failed in [1, 1001)"]
    assert "Traceback" not in err
    assert not (tmp_path / "certificate_bigomega_x1000.json").exists()


def test_certificate_without_set_exit_2(tmp_path, capsys):
    g_path = tmp_path / "no_set.json"
    g_path.write_text(json.dumps({"f": "big_omega", "table": [{"prime": 3, "value": 2}]}))
    assert run(["certificate", "--x", "1000", "--g", str(g_path)], tmp_path) == 2
    err = capsys.readouterr().err
    assert err.splitlines() == ["error: certificate requires a nonempty prime set (via --g or set flags)"]


def test_g_file_hash_covers_its_g_not_its_name(tmp_path, capsys):
    # One table with sets [3] and [3, 5] gives two L under one file name, and
    # must hash apart; the second file copied under another name hashes the same.
    results = []
    for name, members in (("a/g.json", [3]), ("b/g.json", [3, 5]), ("c/copy.json", [3, 5])):
        path = tmp_path / name
        path.parent.mkdir()
        path.write_text(json.dumps({"f": "big_omega", "set": {"members": members},
                                    "table": [{"prime": 3, "value": 3}, {"prime": 5, "value": 1}]}))
        assert run(["certificate", "--x", "10000", "--g", str(path)], path.parent) == 0
        doc = json.loads((path.parent / "certificate_bigomega_x10000.json").read_text())
        results.append((doc["L"], doc["config_hash"]))
    (l_a, hash_a), (l_b, hash_b), copied = results
    assert (l_a, l_b) == (935, 815)
    assert hash_a != hash_b
    assert copied == (l_b, hash_b)


def test_capacity_exit_3(tmp_path, monkeypatch):
    monkeypatch.setenv("OMEGA_PROXIMITY_BUDGET", "1")
    assert run(["census", "--x", "2000000"], tmp_path) == 3


def test_phi_beyond_budget_exit_3(tmp_path, capsys, monkeypatch):
    # At 10**12 phi's node sums need about 846 MB and the working set of a
    # 2**18-entry block 8 MB: over a 512 MB budget, refused before it counts
    # or sweeps anything.
    def never(*args, **kwargs):
        raise AssertionError("phi counted primes past its budget")

    def never_swept(*args, **kwargs):  # phi sets up its sweep before the budget check
        raise AssertionError("phi swept past its budget")
        yield

    monkeypatch.setenv("OMEGA_PROXIMITY_BUDGET", "512")
    monkeypatch.setattr(proximity_module, "prime_pi", never)
    monkeypatch.setattr(proximity_module, "iter_factor_segments", never_swept)
    assert run(["phi", "--x", "1000000000000"], tmp_path) == 3
    assert "phi diagnostics needs about 855 MB" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_phi_prime_count_mismatch_exit_1(tmp_path, capsys, monkeypatch):
    # The sweep's primes must number pi(x): a count one too high is refused
    # after the sweep, one too low as soon as the sweep passes it, each with
    # one error line and no file.
    pi = proximity_module.prime_pi
    for shift in (1, -1):
        monkeypatch.setattr(proximity_module, "prime_pi", lambda x: pi(x) + shift)
        assert run(["phi", "--x", "100000"], tmp_path) == 1
        err = capsys.readouterr().err
        assert err.splitlines() == [f"error: phi's sweep found 9592 primes up to 100000, but pi(x) = {9592 + shift}"]
        assert list(tmp_path.iterdir()) == []


def test_certificate_runs_in_segment_memory(tmp_path, monkeypatch, capsys):
    # Whole-range certificate arrays would need about 71 MB at this x.
    monkeypatch.setenv("OMEGA_PROXIMITY_BUDGET", "40")
    assert run(["certificate", "--x", "4000000"], tmp_path) == 0
    assert "L = 476148 (witnesses checked: 476148)" in capsys.readouterr().out


def test_missing_out_directory_is_created(tmp_path):
    out = tmp_path / "new" / "dir"
    assert run(["census", "--x", "100"], out) == 0
    assert (out / "census_omega_x100.csv").is_file()


def test_malformed_budget_exit_2(tmp_path, monkeypatch):
    for budget in ("lots", "0", "-5"):
        monkeypatch.setenv("OMEGA_PROXIMITY_BUDGET", budget)
        assert run(["census", "--x", "100"], tmp_path) == 2, budget


@pytest.mark.parametrize("text", [
    json.dumps({"f": "big_omega"}),
    json.dumps({"table": [{"prime": 3}]}),
    json.dumps({"table": 5}),
    json.dumps([1, 2]),
    DEEP_JSON,
], ids=["no-table", "row-without-value", "table-not-a-list", "not-an-object", "nested-too-deep"])
@pytest.mark.parametrize("command", ["count", "certificate", "report"])
def test_malformed_g_file_exit_2(tmp_path, capsys, text, command):
    g_path = tmp_path / "g.json"
    g_path.write_text(text)
    scale = ["--grid", "1000"] if command == "report" else ["--x", "1000"]
    assert run([command, *scale, "--g", str(g_path)], tmp_path) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert err.startswith(f"error: malformed g file {g_path}")
    assert "Traceback" not in err


def _assert_g_file_refused(tmp_path, capsys, path, value):
    """construct's g.json with value at the keys in path fails count with one
    error line and no file, and fails verify's g-file check."""
    assert run(["construct", "--x", "2000"], tmp_path) == 0
    doc = json.loads((tmp_path / "g.json").read_text())
    *parents, key = path
    node = doc
    for k in parents:
        node = node[k]
    node[key] = value
    g_path = tmp_path / "g_bad.json"
    g_path.write_text(json.dumps(doc))
    capsys.readouterr()
    out = tmp_path / "out"
    assert run(["count", "--x", "1000", "--g", str(g_path)], out) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert err.startswith("error: ")
    assert list(out.iterdir()) == []
    assert run(["verify", "--x", "2000", "--g", str(g_path)], out) == 1
    captured = capsys.readouterr()
    assert "[FAIL] g-file-integrity: unreadable or inconsistent" in captured.out
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("x", [1000.0, "1000", True], ids=["float", "str", "bool"])
def test_g_file_x_must_be_an_integer(tmp_path, capsys, x):
    _assert_g_file_refused(tmp_path, capsys, ["x"], x)


@pytest.mark.parametrize("path, value", [
    (["set", "members", 0], 3.0),
    (["set", "members", -1], "29"),
    (["table", 0, "z"], 2.7),
    (["table", 0, "class"], "3"),
    (["table", 0, "fallback"], "false"),
    (["f"], "bigomega"),
    (["table", 0, "class"], 7),
    (["table", 1, "z"], -5),
    (["set", "kind"], 5),
    (["set", "delta"], "oops"),
    (["set", "exponent"], True),
    (["set", "exponent"], 3.0),
], ids=["member-float", "member-str", "z-float", "class-str", "fallback-str", "f-alias",
        "class-off-its-prime", "z-off-its-value", "kind-int", "delta-str", "exponent-bool",
        "exponent-off-its-members"])
def test_g_file_fields_are_read_without_coercion(tmp_path, capsys, path, value):
    # No field is coerced: 3.0 is not the member 3, nor "false" the boolean false.
    # Nor may a row contradict its prime: the class 7 on 3, the z -5 on 5.  Nor
    # may the power set's provenance: kind 5, a delta it never had, exponent true,
    # or an exponent whose set is [3, 11, 29, 67, 127], not these members.
    _assert_g_file_refused(tmp_path, capsys, path, value)


@pytest.mark.parametrize("command", [
    ["census"], ["construct"], ["count"], ["certificate"], ["phi"], ["verify"], ["report"],
])
def test_x_beyond_int64_sweep_exit_2(tmp_path, capsys, monkeypatch, command):
    # hi = x + 1 = 2**63 overflows the kernel's int64 arange: refused while
    # parsing, before any prime table or segment exists.
    def never(*args, **kwargs):
        raise AssertionError("nothing may be swept or allocated")

    monkeypatch.setenv("OMEGA_PROXIMITY_BUDGET", str(1 << 40))
    monkeypatch.setattr(sieve, "_segment_factor_counts", never)
    monkeypatch.setattr(sieve, "primes_up_to", never)
    top = str(2**63 - 1)
    scale = ["--grid", f"10000,{top}"] if command == ["report"] else ["--x", top]
    with pytest.raises(SystemExit) as exc:
        run([*command, *scale], tmp_path)
    assert exc.value.code == 2
    assert f"must be <= {2**63 - 2}" in capsys.readouterr().err


HASH_PAYLOADS = [
    {"command": "census", "x": 100, "f": "omega"},
    {"command": "report", "grid": [], "f": "big_omega", "eps": 0.1},
    {"command": "construct", "x": 1000, "f": "big_omega", "set": "paper", "count": 5,
     "delta": 0.5, "param": 2.0, "note": "Ω(n) ≤ g(n) · √x"},
    {"command": "count", "x": 10000, "f": "big_omega", "g": {
        "x": 10000, "f": "big_omega",
        "set": {"kind": "power", "members": [3, 5, 11, 17, 29], "exponent": 2.0},
        "table": [{"prime": 3, "value": 2, "class": 3, "z": 1, "fallback": False}],
    }},
]


def _canonical_sha256(payload):
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


@pytest.mark.parametrize("payload", HASH_PAYLOADS, ids=["census", "empty-report", "non-ascii", "nested-g"])
def test_config_hash_is_sha256_of_canonical_json(payload):
    assert cli.config_hash(payload) == _canonical_sha256(payload)


@pytest.mark.skipif(importlib.util.find_spec("_hashlib") is None, reason="hashlib has no OpenSSL")
def test_config_hash_fallback_to_hashlib_agrees():
    # Without the built-in SHA-256 modules, cli takes hashlib's, with the same digests.
    child = """
import hashlib, json, sys
sys.modules["_sha2"] = sys.modules["_sha256"] = None
from omega_proximity import cli
assert cli.sha256 is hashlib.sha256
print(json.dumps([cli.config_hash(p) for p in json.loads(sys.argv[1])]))
"""
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}
    done = subprocess.run([sys.executable, "-c", child, json.dumps(HASH_PAYLOADS)],
                          env=env, capture_output=True, text=True, check=True)
    assert json.loads(done.stdout) == [_canonical_sha256(p) for p in HASH_PAYLOADS]
