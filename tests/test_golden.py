"""Frozen output bytes: the sha256 of every file each subcommand writes.

The digests were recorded once and are not regenerated by the tests, so a
change to any byte of any output file (formatting, field order, a float
repr, a config hash) fails here, and so does a change to what a run
prints or the order it prints it in.  Every run repeats at a small segment size
with two threads: the files must not depend on either.
"""

import hashlib
import json

import pytest

from omega_proximity.cli import main

X = "100000"

# (subcommand arguments, {file name: sha256 of its bytes})
GOLDEN = {
    "census-omega": (
        ["census", "--x", X, "--f", "omega"],
        {
            "census_omega_x100000.csv":
                "12b88b42bbbe2e9328a5951fddbd2a48f209c72854ef6917ccbd7eed9db36b02",
            "census_omega_x100000.meta.json":
                "b83bd7ce582751d27dd0665fa214406c70a8d964fe2358650fab25bbabe0c3da",
        },
    ),
    "census-restricted": (
        ["census", "--x", X, "--f", "bigomega", "--restrict"],
        {
            "census_bigomega_x100000_coprime.csv":
                "691b948599080bc1ceb174d8d95735b335296eb692d2804b5d526e6aa5e6f395",
            "census_bigomega_x100000_coprime.meta.json":
                "54177b97149a7968eed0b49219f7af65b96fe38423f49ec43f2546035d1b7c1e",
        },
    ),
    # A set led by 2 admits odd n only, so the odd sweep needs no lift.
    "census-restricted-with-2": (
        ["census", "--x", X, "--f", "omega", "--restrict", "--set", "paper", "--count", "12"],
        {
            "census_omega_x100000_coprime.csv":
                "b62b4b1195b7b87b0516ab341b6163ac912e181ebc58cb31e15b03564317771c",
            "census_omega_x100000_coprime.meta.json":
                "5fb0d1e871a1985f1e498aa21a25eba2d807493f79c5cddb7ce589e0a686cb87",
        },
    ),
    # At a power of two every cutoff x >> a of the lift is exact.
    "census-power-of-two": (
        ["census", "--x", "65536", "--f", "bigomega"],
        {
            "census_bigomega_x65536.csv":
                "0bbd1b5ef7135f2b1ff74046d191d083f7ef8611d5679fc9ee53780903de1c06",
            "census_bigomega_x65536.meta.json":
                "547ef436f04155f0b654d0a2f372f7edad731c53b9bf23385c12224a9a54d51d",
        },
    ),
    "construct": (
        ["construct", "--x", X],
        {
            "g.json":
                "498d4da3821ecdd56191c491a0105b48467218cc6743e7429213515e37623466",
            "set.json":
                "bdad92fafce2ce8687243b429624ee9a5a26994bcad97437f740f0a0e00704a5",
        },
    ),
    "count-g": (
        ["count", "--x", X, "--g", "{g}"],
        {
            "count_bigomega_x100000.json":
                "196de7c3257438e9874857bc5ee20e7fe1a6b14fa5b33447cae49442629aa4c3",
        },
    ),
    "certificate": (
        ["certificate", "--x", X],
        {
            "certificate_bigomega_x100000.json":
                "06e4a736a0845032f4387c36735d64e0ca8b5024b344010618f49a36e1c20f3f",
        },
    ),
    "report": (
        ["report", "--grid", "1000,10000," + X],
        {
            "report.csv":
                "5c352b0b0b6c6d0f51c8ff4bba978a6d8ee2d6402d275a8b54f867de98527dfe",
            "report.json":
                "b149183fe497a8378bd9f128ae9132daf50f67b7ac0d04722498a54bfdec2bb3",
        },
    ),
    "report-empty": (
        ["report", "--grid", ""],
        {
            "report.csv":
                "9154dced225b8b0832cd5bfe56171a30bd0e864031f66017fb00c7c6635d2b33",
            "report.json":
                "32c8d1172a822c2504bb3854c447ab8c4556acf9600ad633799417ac0a2f4ef2",
        },
    ),
    "phi": (
        ["phi", "--x", X, "--f", "bigomega"],
        {
            "phi_bigomega_x100000.json":
                "82215596a004ad755a7e201d02b507faf23f8488033853aa9a5e56a1b45137c7",
        },
    ),
    # omega counts each prime power at 1 too, so phi must tell them from primes.
    "phi-omega": (
        ["phi", "--x", X, "--f", "omega"],
        {
            "phi_omega_x100000.json":
                "88977401297a3b82c023160c04fd490f6804961306827532c71866f6625790f4",
        },
    ),
    # g(2) = 3 off the set: an even n = 2**b m has g(n) = 3 g(m).
    "count-g-two-off-set": (
        ["count", "--x", X, "--g", "{g-two-off-set}"],
        {
            "count_bigomega_x100000.json":
                "8dd2fdea33819964fa49e70fe898c30b666a5fda5f8359085dc388e6d4c47957",
        },
    ),
    "count-omega-g-two-off-set": (
        ["count", "--x", X, "--f", "omega", "--g", "{g-two-off-set}"],
        {
            "count_omega_x100000.json":
                "26eb5bd413bf965543028fa54c61dbf468d94b7f5711978ea881992b23a3a6ee",
        },
    ),
    # 2 in the table but not the set: witnesses r * p**a may have r even.
    "certificate-g-two-neutral": (
        ["certificate", "--x", X, "--g", "{g-two-neutral}"],
        {
            "certificate_bigomega_x100000.json":
                "a3af6f1a10884ead8287ae3c1c48266dca9ea1e479eded86573f36a64cfa4099",
        },
    ),
    # 2 in the set with g(2) = 1: the witnesses' r are odd.
    "report-bigomega-paper": (
        ["report", "--grid", "1000,10000," + X, "--f", "bigomega", "--set", "paper", "--count", "12"],
        {
            "report.csv":
                "ef9fbcf5d82d0ef3ef8ce3da005dfb595ec156cf0ee87a5288499c169f62b3e5",
            "report.json":
                "441072f8d081554e757c13d31163cb4f276ba2fda1cf69cc770c58e0dc922c51",
        },
    ),
    "report-omega-paper": (
        ["report", "--grid", "1000,10000," + X, "--f", "omega", "--set", "paper", "--count", "12"],
        {
            "report.csv":
                "f18e0fde913fff8956443e00f91105dd67eeb83aba2a93f93e8bb32cc43c79d6",
            "report.json":
                "04ba0206e677a8ebf10b455da67520e95f09521726dd363cbba386fd4c9f2373",
        },
    ),
}

# sha256 of each run's stdout, with the --out directory written as {out}:
# the summary lines and the "wrote" lines, in their order.
STDOUT = {
    "census-omega": "6e5039fb475e996d71d9a2ef88fb80fbc1a6a85d945c03a5b7a526c9384525c5",
    "census-power-of-two": "a9cf4cb2f7a8f802e8c1784bdd9695842a557f17fca39ac186f0fa716cc7c689",
    "census-restricted": "c31c6099b7aca74be6354624c496fb358052db4eed1147ef6fdffd8021035eb2",
    "census-restricted-with-2": "cc2b36c18c3c113ae2d26b8cedc2ff9d18737cbd90485d4cc7dc2d206fc3cac6",
    "certificate": "269ba07480733d95dea3e89881dbfcc55f3401ae5393234beaacb6213580773a",
    "certificate-g-two-neutral": "352c7fbbf66c56907b833e2899f82927158451881f17d6b93f66cf63ce648a25",
    "construct": "37cbb1872539ffe3c023aad29d8ec625eedca648dcafdc11ec4e5eef12a08bb2",
    "count-g": "ef8607177d3490bd3b13ae6583f74c169689b7a0586913d34b0b329b674f9fdc",
    "count-g-two-off-set": "401ffeb21703a3fea313070d2a6464305e209dbd746e279596dc18c874ca0a86",
    "count-omega-g-two-off-set": "3117a0448e09af54a8e99807e00355581e22008a1231d79ede08e037105e8654",
    "phi": "059ff2f2d1eac3cbea9677636882f5eb4ff86df4c0647d45b80ed616c4d2405a",
    "phi-omega": "5512170415cd015e48464c5303842905f46e8350ec3712fc63ea14c8ff853262",
    "report": "70733e0968a81202d97742addde9ae58f8cc8b54c5623b618104790258e1dac9",
    "report-bigomega-paper": "7ab8b025bc33856c196a9de16bfbbad405a52d7f049006e4830998fce7cf8f12",
    "report-empty": "baead92f882cdd72de6cedb367116bb26b91e9b697bff35a3e1b4237becfadd2",
    "report-omega-paper": "575726344186feeab901c6ae2123181417fb6d105b3e27d78f82e05be99d82f7",
}


@pytest.fixture(scope="module")
def g_file(tmp_path_factory):
    out = tmp_path_factory.mktemp("g")
    assert main(["construct", "--x", X, "--out", str(out)]) == 0
    return str(out / "g.json")


@pytest.fixture(scope="module")
def g_files(g_file, tmp_path_factory):
    """The constructed g, and hand-written tables that hold 2 outside the set [3, 5, 11]."""
    out = tmp_path_factory.mktemp("hand")
    paths = {"{g}": g_file}
    for name, two in (("g-two-off-set", 3), ("g-two-neutral", 1)):
        path = out / (name.replace("-", "_") + ".json")
        table = [(2, two), (3, 3), (5, 2), (11, 4)]
        path.write_text(json.dumps({
            "f": "big_omega",
            "set": {"members": [3, 5, 11]},
            "table": [{"prime": p, "value": v} for p, v in table],
        }))
        paths["{" + name + "}"] = str(path)
    return paths


@pytest.mark.parametrize("sweep", [[], ["--segment-size", "4096", "--threads", "2"]],
                         ids=["default", "seg4096-t2"])
@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_output_bytes_are_frozen(name, sweep, tmp_path, g_files, capsys):
    argv, expected = GOLDEN[name]
    argv = [g_files.get(a, a) for a in argv]
    capsys.readouterr()
    assert main([*argv, *sweep, "--out", str(tmp_path)]) == 0
    written = {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(tmp_path.iterdir())
    }
    assert written == expected
    stdout = capsys.readouterr().out.replace(str(tmp_path), "{out}")
    assert hashlib.sha256(stdout.encode("utf-8")).hexdigest() == STDOUT[name]
