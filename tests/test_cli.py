"""Command-line front end, file outputs, and exit codes."""

import importlib
import json

import pytest

from omega_proximity import sieve
from omega_proximity.cli import main

# The package re-exports the function census under the module's name.
census_module = importlib.import_module("omega_proximity.census")
proximity_module = importlib.import_module("omega_proximity.proximity")


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
    assert "9/9 checks passed" in out
    # Below the smallest member there is no witness, and L = 0 is right.
    for x in ("1", "2"):
        assert run(["verify", "--x", x], tmp_path) == 0, x
        out = capsys.readouterr().out
        assert "[FAIL]" not in out, x
        assert "L=0 <= E=" in out, x


def test_verify_fails_a_wrong_lift(tmp_path, capsys, monkeypatch):
    # Lifting omega by a, as for big_omega, keeps every total but puts the
    # even n at the wrong levels; only a full sweep can tell.
    init = census_module.LevelSnapshots.__init__
    monkeypatch.setattr(census_module.LevelSnapshots, "__init__",
                        lambda self, ys, tag, odd_only: init(self, ys, "big_omega", odd_only))
    assert run(["verify", "--x", "2000"], tmp_path) == 1
    out = capsys.readouterr().out
    assert "[ ok ] census-partition" in out
    assert "[FAIL] census-lift" in out


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


def test_verify_validates_g_file(tmp_path, capsys):
    assert run(["construct", "--x", "2000"], tmp_path) == 0
    capsys.readouterr()
    g_path = tmp_path / "g.json"
    assert run(["verify", "--x", "2000", "--g", str(g_path)], tmp_path) == 0
    assert "10/10 checks passed" in capsys.readouterr().out

    doc = json.loads(g_path.read_text())
    doc["table"][0]["value"] += 1
    bad = tmp_path / "g_bad.json"
    bad.write_text(json.dumps(doc))
    assert run(["verify", "--x", "2000", "--g", str(bad)], tmp_path) == 1
    out = capsys.readouterr().out
    assert "[FAIL] g-file-integrity: table differs from rebuild" in out
    assert "9/10 checks passed" in out


def test_verify_rejects_unreadable_g(tmp_path, capsys):
    junk = tmp_path / "junk.json"
    for text in ("{broken", "[1, 2]"):
        junk.write_text(text)
        assert run(["verify", "--x", "2000", "--g", str(junk)], tmp_path) == 1
        assert "[FAIL] g-file-integrity: unreadable or inconsistent" in capsys.readouterr().out


def test_usage_errors_exit_2(tmp_path, capsys):
    assert run(["census", "--x", "0"], tmp_path) == 2
    assert run(["count", "--x", "100", "--g", str(tmp_path / "missing.json")], tmp_path) == 2
    assert run(["construct", "--x", "100", "--count", "0"], tmp_path) == 2
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
], ids=["eps-nan", "eps-inf", "delta-nan", "param-inf", "empty-grid-eps-negative", "delta-overflow"])
def test_bad_float_flags_exit_2(tmp_path, capsys, argv):
    # JSON has no NaN or infinity, and an infinite or huge exponent overflows
    # the set builder's float power: refused before any file is written.
    out = tmp_path / "out"
    assert run(argv, out) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert err.startswith("error: ")
    assert list(out.iterdir()) == []


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


def test_capacity_exit_3(tmp_path, monkeypatch):
    monkeypatch.setenv("OMEGA_PROXIMITY_BUDGET", "1")
    assert run(["census", "--x", "2000000"], tmp_path) == 3


def test_phi_beyond_budget_exit_3(tmp_path, capsys):
    # The 1/p buffer alone would need hundreds of GB: refused before any sweep.
    assert run(["phi", "--x", "1000000000000"], tmp_path) == 3
    assert "phi diagnostics needs about" in capsys.readouterr().err


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
    monkeypatch.setenv("OMEGA_PROXIMITY_BUDGET", "lots")
    assert run(["census", "--x", "100"], tmp_path) == 2


@pytest.mark.parametrize("doc", [
    {"f": "big_omega"},
    {"table": [{"prime": 3}]},
    {"table": 5},
    [1, 2],
], ids=["no-table", "row-without-value", "table-not-a-list", "not-an-object"])
@pytest.mark.parametrize("command", ["count", "certificate", "report"])
def test_malformed_g_file_exit_2(tmp_path, capsys, doc, command):
    g_path = tmp_path / "g.json"
    g_path.write_text(json.dumps(doc))
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
], ids=["member-float", "member-str", "z-float", "class-str", "fallback-str", "f-alias"])
def test_g_file_fields_are_read_without_coercion(tmp_path, capsys, path, value):
    # No field is coerced: 3.0 is not the member 3, nor "false" the boolean false.
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
