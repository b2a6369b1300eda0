"""Command-line interface.

Subcommands: census, construct, count, certificate, report, verify, phi.
Every run is seed-free and deterministic: identical arguments produce
byte-identical output files, each carrying a hash of the effective
configuration.  Exit codes: 0 success, 1 verification failure, 2 usage or
domain error, 3 capacity (memory budget) error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import sys

import numpy as np

try:  # CPython's built-in SHA-256 (_sha2 from 3.12): hashlib would map OpenSSL's libcrypto
    from _sha2 import sha256
except ImportError:
    try:
        from _sha256 import sha256
    except ImportError:  # built without it (Fedora and RHEL keep only blake2)
        from hashlib import sha256

from .budget import DEFAULT_SEGMENT_SIZE
from .census import census, census_csv_lines, census_metadata, concentration_tail, mode_k
from .errors import CapacityError, CertificateError
from .gfunction import GEntry, GFunction, build_g
from .primeset import PrimeSetS, power_prime_set, threshold_prime_set
from .proximity import (
    _g_segment_values,
    certificate_count,
    coincidence_count,
    growth_report,
    phi_diagnostics,
    phi_json_dict,
    report_csv_lines,
    report_grid,
    report_json_dict,
)
from .sieve import F_TAGS, LEVEL_CEILING, MAX_X, factorize, iter_factor_segments, level_tables

F_FLAG = {"omega": "omega", "bigomega": "big_omega"}
DEFAULT_GRID = "10000,100000,1000000,10000000"


def config_hash(payload: dict) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return sha256(text.encode("utf-8")).hexdigest()[:16]


def sweep_bound(raw: str) -> int:
    """An x no larger than sieve.MAX_X: its sweep's end x + 1 is an int64."""
    value = int(raw)
    if value > MAX_X:
        raise argparse.ArgumentTypeError(f"must be <= {MAX_X}, got {value}")
    return value


def grid_values(raw: str) -> list[int]:
    return [sweep_bound(part) for part in raw.split(",") if part.strip()]


def positive_int(raw: str) -> int:
    value = int(raw)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def positive_bound(raw: str) -> int:
    """A sweep_bound of at least 1."""
    return sweep_bound(str(positive_int(raw)))


def _build_set(args: argparse.Namespace) -> PrimeSetS:
    if args.set == "paper":
        return threshold_prime_set(args.delta, args.count)
    return power_prime_set(args.param, args.count)


def _set_payload(args: argparse.Namespace) -> dict:
    return {"set": args.set, "count": args.count, "delta": args.delta, "param": args.param}


def _load_g(path: str) -> GFunction:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return GFunction.from_json_dict(json.load(fh))
        except (KeyError, TypeError, AttributeError, RecursionError) as exc:
            # A field missing or of the wrong JSON type, or nesting deeper than
            # the parser goes: bad input, not a bug.
            raise ValueError(f"malformed g file {path}: {exc!r}") from exc


def _resolve_g(args: argparse.Namespace, x: int, tag: str) -> tuple[GFunction, dict]:
    """g from --g file when given, else built inline from the set flags."""
    if getattr(args, "g", None):
        g = _load_g(args.g)
        return g, {"g": g.to_json_dict()}
    g = build_g(x, _build_set(args), tag, args.segment_size, args.threads)
    return g, _set_payload(args)


def _write(args: argparse.Namespace, name: str, content: list[str] | dict) -> None:
    """Write name under --out, CSV lines or a JSON document indented by 2
    (NaN and infinity are refused, as JSON has neither), and print its path."""
    path = os.path.join(args.out, name)
    if isinstance(content, dict):
        text = json.dumps(content, indent=2, allow_nan=False) + "\n"
    else:
        text = "\n".join(content) + "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
    print(f"wrote {path}")


def cmd_census(args: argparse.Namespace) -> int:
    tag = F_FLAG[args.f]
    restrict = _build_set(args) if args.restrict else None
    table = census(args.x, tag, restrict, args.segment_size, args.threads)
    payload = {"command": "census", "x": args.x, "f": tag}
    if restrict is not None:
        payload.update(_set_payload(args))
    digest = config_hash(payload)
    suffix = "_coprime" if restrict is not None else ""
    base = f"census_{args.f}_x{args.x}{suffix}"
    k_star, best = mode_k(table)
    print(f"census: x={args.x} f={tag} total={table.total()} mode_k={k_star} mode_count={best}")
    _write(args, base + ".csv", census_csv_lines(table))
    _write(args, base + ".meta.json", census_metadata(table, base + ".csv", digest))
    return 0


def cmd_construct(args: argparse.Namespace) -> int:
    tag = F_FLAG[args.f]
    pset = _build_set(args)
    g = build_g(args.x, pset, tag, args.segment_size, args.threads)
    payload = {"command": "construct", "x": args.x, "f": tag, **_set_payload(args)}
    digest = config_hash(payload)
    print(f"set: {list(pset.members)}")
    print(f"g table: {g.table}")
    _write(args, "set.json", {**pset.to_json_dict(), "config_hash": digest})
    _write(args, "g.json", {**g.to_json_dict(), "config_hash": digest})
    return 0


def _write_g_result(args: argparse.Namespace, command: str, g_payload: dict, fields: dict) -> None:
    """Write <command>_<f>_x<x>.json: x, f, fields and the configuration hash."""
    tag = F_FLAG[args.f]
    digest = config_hash({"command": command, "x": args.x, "f": tag, **g_payload})
    _write(args, f"{command}_{args.f}_x{args.x}.json",
           {"x": args.x, "f": tag, **fields, "config_hash": digest})


def cmd_count(args: argparse.Namespace) -> int:
    tag = F_FLAG[args.f]
    g, g_payload = _resolve_g(args, args.x, tag)
    value = coincidence_count(args.x, tag, g, args.segment_size, args.threads)
    print(f"E = {value}")
    _write_g_result(args, "count", g_payload, {"E": value, "g": g.to_json_dict()})
    return 0


def cmd_certificate(args: argparse.Namespace) -> int:
    tag = F_FLAG[args.f]
    g, g_payload = _resolve_g(args, args.x, tag)
    if g.prime_set is None or not g.prime_set.members:
        raise ValueError("certificate requires a nonempty prime set (via --g or set flags)")
    l_count, checked = certificate_count(args.x, g, tag, args.segment_size, args.threads)
    print(f"L = {l_count} (witnesses checked: {checked})")
    fields = {"L": l_count, "witnesses_checked": checked, "g": g.to_json_dict()}
    _write_g_result(args, "certificate", g_payload, fields)
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    tag = F_FLAG[args.f]
    grid = report_grid(args.grid, args.eps)  # before g is built or read
    payload = {"command": "report", "grid": grid, "f": tag, "eps": args.eps}
    if not grid:
        rows, doc = (), {"f": tag, "eps": args.eps, "rows": [], "config_hash": config_hash(payload)}
        print("empty grid: wrote header-only report")
    else:
        g, g_payload = _resolve_g(args, grid[-1], tag)
        rows = growth_report(grid, args.eps, tag, g, args.segment_size, args.threads)
        doc = report_json_dict(rows, tag, args.eps, g, config_hash({**payload, **g_payload}))
        for row in rows:
            print(
                f"x={row.x} E={row.e_count} L={row.l_count} "
                f"ratio_E={row.ratio_e:.6f} ratio_L={row.ratio_l:.6f}"
            )
    _write(args, "report.csv", report_csv_lines(rows, tag, args.eps))
    _write(args, "report.json", doc)
    return 0


def cmd_phi(args: argparse.Namespace) -> int:
    tag = F_FLAG[args.f]
    diag = phi_diagnostics(args.x, tag, segment_size=args.segment_size, threads=args.threads)
    digest = config_hash({"command": "phi", "x": args.x, "f": tag})
    print(
        f"A = {diag.a_sum!r}, B = {diag.b_sum!r}, phi = {diag.phi!r}, "
        f"max_level_count = {diag.max_level_count}, K = {diag.k_of_x!r}"
    )
    _write(args, f"phi_{args.f}_x{args.x}.json", phi_json_dict(diag, digest))
    return 0


def _verify_checks(args: argparse.Namespace) -> list[tuple[str, bool, str]]:
    x = args.x
    seg = args.segment_size
    threads = args.threads
    checks: list[tuple[str, bool, str]] = []

    # Each census, of all n and of those coprime to the power set, against the level tables'
    # last row, which Lucy's recurrence counts with no sweep and no prime table past sqrt(x).
    pset = power_prime_set(2.0, 5)
    ok = all(
        census(x, tag, s, seg, threads).counts
        == {k: int(c) for k, c in enumerate(level_tables(x, tag, s.members if s else ())[1][-1]) if c}
        for tag in F_TAGS for s in (None, pset)
    )
    checks.append(("census-tables", ok, f"census = level tables at x={x}, both tags, restricted or not"))

    # One full sweep per tag: its first entries against per-n trial division, and odd
    # sweeps lifted to every n against it: E for g(2) = 1, 2.
    span = min(x, 10_000)
    factors = [factorize(n) for n in range(1, span + 1)]
    g = build_g(x, pset, "big_omega", seg, threads)
    g_two = GFunction(None, None, "big_omega", (GEntry(2, 2, None, None, False), *g.entries))
    # The omega sweep also counts the tail per n >= 2: |omega(n) - log log n| > (log log x)**1.1.
    threshold = math.log(math.log(x)) ** 1.1 if x >= 3 else None
    sieve_ok = count_ok = True
    tail = 0
    for tag in F_TAGS:  # big_omega last: certificate-soundness reads its E
        direct, head = np.zeros(2, dtype=np.int64), []
        for s in iter_factor_segments(1, x + 1, seg, threads, tag):
            head += s.f[: max(span + 1 - s.lo, 0)].tolist()
            direct += [np.count_nonzero(s.f == _g_segment_values(gg, s.lo, s.hi)) for gg in (g, g_two)]
            if tag == "omega" and threshold is not None:
                dev = np.log(np.log(np.arange(max(s.lo, 2), s.hi, dtype=np.float64)))
                tail += int(np.count_nonzero(np.abs(s.f[max(2 - s.lo, 0) :] - dev) > threshold))
        sieve_ok &= head == [len(set(fs)) if tag == "omega" else len(fs) for fs in factors]
        e_counts = [coincidence_count(x, tag, gg, seg, threads) for gg in (g, g_two)]
        count_ok &= direct.tolist() == e_counts
    checks.insert(0, ("sieve-vs-factorization", sieve_ok, f"all n in [1, {span}]"))
    checks.append(("count-lift", count_ok, f"E lifted = full-sweep E at x={x}, both tags, g(2) = 1, 2"))
    if threshold is not None:
        banded = concentration_tail(x, 0.1)
        checks.append(("tail-bands", tail == banded, f"per-n tail {tail} = banded tail {banded}"))

    # Known small values.
    t100 = census(100, "omega")
    e100 = coincidence_count(100, "big_omega", GFunction.identity())
    ok = t100.get(1) == 35 and e100 == 25
    checks.append(("level-counts-at-100", ok, "35 one-prime levels, 25 identity matches"))

    # Certificate soundness end to end.
    l_count, _ = certificate_count(x, g, "big_omega", seg, threads)
    e_count = e_counts[0]  # count-lift's E for g, on the last tag swept: big_omega
    # At least one witness once the smallest member is at most x.
    ok = l_count <= e_count and (l_count > 0 or pset.members[0] > x)
    checks.append(("certificate-soundness", ok, f"L={l_count} <= E={e_count}"))

    # The vectorised g that E, L and count-lift read, against g per n, capped as they read
    # it: from 1, from P - 1999 with P the product of g_two's table primes, where g_two
    # peaks, and from three odd lo < max(x, 2); step 2 needs an odd lo.
    rng = random.Random(20260819)
    lows = [1, math.prod(g_two.table) - 1999, *(2 * rng.randrange(max(x, 2) // 2) + 1 for _ in range(3))]
    ok = all(
        _g_segment_values(gg, lo, lo + 4000, step).tolist()
        == [min(gg.value(n), LEVEL_CEILING) for n in range(lo, lo + 4000, step)]
        for gg in (g, g_two) for lo in lows for step in (1, 2)
    )
    checks.append(("g-segments", ok, f"g, and g with g(2) = 2, on [lo, lo + 4000) for lo in {lows}"))

    # Optional g file integrity: reparse and rebuild from provenance.
    if args.g:
        try:
            loaded = _load_g(args.g)
            if loaded.x is None or loaded.prime_set is None:
                raise ValueError("g file lacks construction provenance")
            rebuilt = build_g(loaded.x, loaded.prime_set, loaded.f_tag, seg, threads)
            ok = rebuilt.entries == loaded.entries
            detail = "table matches rebuild" if ok else "table differs from rebuild"
        except (OSError, ValueError) as exc:
            ok = False
            detail = f"unreadable or inconsistent: {exc}"
        checks.append(("g-file-integrity", ok, detail))

    return checks


def cmd_verify(args: argparse.Namespace) -> int:
    checks = _verify_checks(args)
    failed = 0
    for name, ok, detail in checks:
        mark = " ok " if ok else "FAIL"
        print(f"[{mark}] {name}: {detail}")
        if not ok:
            failed += 1
    print(f"{len(checks) - failed}/{len(checks)} checks passed")
    return 0 if failed == 0 else 1


def _add_common(p: argparse.ArgumentParser, with_x: bool = True) -> None:
    if with_x:
        p.add_argument("--x", type=sweep_bound, required=True, help="inclusive upper bound")
    p.add_argument("--segment-size", type=int, default=DEFAULT_SEGMENT_SIZE,
                   help="entries per sieve block (>= 64), read in views of at most 2**17;"
                   " results do not depend on this")
    p.add_argument("--threads", type=positive_int, default=1,
                   help="worker threads; results do not depend on this")
    p.add_argument("--out", default=".", help="output directory")


def _add_set_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--set", choices=("paper", "power"), default="power",
                   help="prime-set rule: threshold j**(1+delta) from 2, or odd j**param")
    p.add_argument("--param", type=float, default=2.0,
                   help="exponent for --set power (default 2)")
    p.add_argument("--delta", type=float, default=0.5,
                   help="threshold exponent offset for --set paper (default 0.5)")
    p.add_argument("--count", type=int, default=5, help="number of members (default 5)")


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="omega-proximity",
        description="Factor-count censuses and coincidence counts for constructed "
        "strongly multiplicative functions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("census", help="level census of omega or big_omega up to x")
    _add_common(p)
    p.add_argument("--f", choices=sorted(F_FLAG), default="omega")
    p.add_argument("--restrict", action="store_true",
                   help="count only integers coprime to the constructed set")
    _add_set_flags(p)
    p.set_defaults(func=cmd_census)

    p = sub.add_parser("construct", help="build the prime set and its g function")
    _add_common(p)
    p.add_argument("--f", choices=sorted(F_FLAG), default="bigomega")
    _add_set_flags(p)
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("count", help="coincidence count E = #{n <= x : f(n) = g(n)}")
    _add_common(p)
    p.add_argument("--f", choices=sorted(F_FLAG), default="bigomega")
    p.add_argument("--g", default=None, help="g JSON from construct (else built inline)")
    _add_set_flags(p)
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("certificate", help="certified lower bound L with witness check")
    _add_common(p)
    p.add_argument("--f", choices=sorted(F_FLAG), default="bigomega")
    p.add_argument("--g", default=None, help="g JSON from construct (else built inline)")
    _add_set_flags(p)
    p.set_defaults(func=cmd_certificate)

    p = sub.add_parser("report", help="growth ratios across a grid of x")
    _add_common(p, with_x=False)
    p.add_argument("--grid", type=grid_values, default=DEFAULT_GRID,
                   help="comma-separated x values (empty for header-only output)")
    p.add_argument("--eps", type=float, default=0.1)
    p.add_argument("--f", choices=sorted(F_FLAG), default="bigomega")
    p.add_argument("--g", default=None, help="g JSON from construct (else built at max x)")
    _add_set_flags(p)
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("verify", help="run the self-check suite; exit 1 on any failure")
    _add_common(p, with_x=False)
    p.add_argument("--x", type=positive_bound, default=10_000, help="scale for the checks")
    p.add_argument("--g", default=None, help="also validate this g JSON file")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("phi", help="prime-power moment sums and busiest level at x")
    _add_common(p)
    p.add_argument("--f", choices=sorted(F_FLAG), default="omega")
    p.set_defaults(func=cmd_phi)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        os.makedirs(args.out, exist_ok=True)
        return args.func(args)
    except CapacityError as exc:
        print(f"capacity error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OverflowError, OSError) as exc:  # OverflowError: a float flag too large
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CertificateError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
