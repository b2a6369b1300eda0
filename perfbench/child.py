"""Child-process side of the benchmark.

run.py starts this file in a fresh interpreter with the checkout's src/ on
PYTHONPATH.  It has three modes:

    child.py setup -- CLI_ARGS...
        Run the CLI until it makes its first computing call (a sweep, g
        construction, E, L, phi), then exit 0.  The parent times the
        launch, so this measures interpreter start, package import, argument
        parsing and prime-set construction.

    child.py trace TRACE_JSON -- CLI_ARGS...
        Run omega_proximity.cli.main(CLI_ARGS) with spans recorded around the
        public functions of every layer, then write the spans, the counts and
        the captured census tables to TRACE_JSON.

    child.py layers TRACE_JSON OUT_JSON
        Cross-check the censuses captured in TRACE_JSON against sums built
        from primes_up_to, then time the fixed-size layer probes (one kernel
        segment, sweeps at five segment sizes and two thread counts, the
        tail), and write the results to OUT_JSON.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import math
import statistics
import sys
import time

import numpy as np

from omega_proximity import cli
from omega_proximity.census import concentration_tail
from omega_proximity.sieve import iter_factor_segments, primes_up_to

# Public functions wrapped in the traced run, with the module that defines
# each.  Every module of the package that imported one of them gets the
# wrapper too, so calls through any import site are seen.
DEFINED_IN = {
    "iter_factor_segments": "sieve",
    "primes_up_to": "sieve",
    "coprime_mask": "primeset",
    "threshold_prime_set": "primeset",
    "power_prime_set": "primeset",
    "census": "census",
    "concentration_tail": "census",
    "compute_maximizer": "gfunction",
    "build_g": "gfunction",
    "coincidence_count": "proximity",
    "certificate_count": "proximity",
    "phi_diagnostics": "proximity",
    "require_budget": "budget",
}

# Calls that end set-up: the first computing call the CLI makes.
SETUP_ENDS_AT = (
    "iter_factor_segments",
    "census",
    "build_g",
    "coincidence_count",
    "certificate_count",
    "phi_diagnostics",
)


def patch_everywhere(make_wrapper, names) -> None:
    """Replace each named function at every import site in the package."""
    # omega_proximity/__init__.py re-exports the function census, which hides
    # the submodule of that name from attribute access: go through sys.modules.
    modules = [
        mod
        for modname, mod in sorted(sys.modules.items())
        if modname == "omega_proximity" or modname.startswith("omega_proximity.")
    ]
    for name in names:
        original = getattr(sys.modules["omega_proximity." + DEFINED_IN[name]], name)
        wrapper = make_wrapper(name, original)
        for mod in modules:
            if getattr(mod, name, None) is original:
                setattr(mod, name, wrapper)


class Tracer:
    """Spans (name, start, end, parent) and counts, kept in memory."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: dict[str, int] = {}
        self.censuses: list[dict] = []

    @contextlib.contextmanager
    def span(self, name: str):
        record = [name, time.perf_counter(), None, self.stack[-1] if self.stack else -1]
        self.stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self.stack.pop()

    def add(self, key: str, amount: int) -> None:
        self.counts[key] = self.counts.get(key, 0) + int(amount)

    def peak(self, key: str, value: int) -> None:
        self.counts[key] = max(self.counts.get(key, 0), int(value))

    def record(self, name: str, args: dict, result) -> None:
        """Counts taken at the boundary of one finished call."""
        if name == "coprime_mask":
            self.add("primeset.coprime_mask_n", args["hi"] - args["lo"])
        elif name == "compute_maximizer":
            self.add("gfunction.maximizers", 1)
        elif name == "certificate_count":
            self.add("proximity.witnesses_checked", result[1])
            # The certificate keeps f, g and the coprime flags over 0..x:
            # 1 + 8 + 1 bytes per integer.
            self.peak("proximity.certificate_bytes", 10 * (args["x"] + 1))
        elif name == "require_budget":
            self.peak("budget.estimate_bytes", args["nbytes"])
        elif name == "census":
            restrict = args.get("restrict")
            self.censuses.append(
                {
                    "x": result.x,
                    "f": result.f_tag,
                    "members": list(restrict.members) if restrict is not None else [],
                    "counts": {str(k): v for k, v in result.counts.items()},
                }
            )

    def wrapper(self, name: str, fn):
        if name == "iter_factor_segments":
            return self._segments_wrapper(fn)
        signature = inspect.signature(fn)
        span_name = f"{DEFINED_IN[name]}.{name}"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            if name == "require_budget":
                result = fn(*args, **kwargs)
            else:
                with self.span(span_name):
                    result = fn(*args, **kwargs)
            self.record(name, bound.arguments, result)
            return result

        return traced

    def _segments_wrapper(self, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.add("sieve.sweeps", 1)
            return self._traced_segments(fn(*args, **kwargs))

        return traced

    def _traced_segments(self, segments):
        # Time spent inside the generator's next() is the sieve's busy time;
        # it is a child span of whichever layer is consuming the sweep.
        while True:
            with self.span("sieve.next"):
                seg = next(segments, None)
            if seg is None:
                return
            self.add("sieve.integers_swept", seg.hi - seg.lo)
            yield seg


class _SetupDone(BaseException):
    """Raised at the first computing call; BaseException so no handler in
    the CLI mistakes it for a domain error."""


def run_setup(cli_args: list[str]) -> int:
    def stop(name, fn):
        @functools.wraps(fn)
        def stopped(*args, **kwargs):
            raise _SetupDone(name)

        return stopped

    patch_everywhere(stop, SETUP_ENDS_AT)
    try:
        cli.main(cli_args)
    except _SetupDone:
        return 0
    print("set-up probe: the command made no computing call", file=sys.stderr)
    return 4


def run_trace(trace_path: str, cli_args: list[str]) -> int:
    tracer = Tracer()
    patch_everywhere(tracer.wrapper, DEFINED_IN)
    with tracer.span("cli.main"):
        code = cli.main(cli_args)
    with open(trace_path, "w", encoding="utf-8") as fh:
        json.dump(
            {
                "exit_code": code,
                "spans": tracer.spans,
                "counts": tracer.counts,
                "censuses": tracer.censuses,
            },
            fh,
        )
    return code


def _coprime_prefix(limit: int, members: list[int]) -> np.ndarray:
    """prefix[v] = #{1 <= n <= v : n has no factor in members}."""
    keep = np.ones(limit + 1, dtype=bool)
    keep[0] = False
    for m in members:
        keep[::m] = False
    return np.cumsum(keep, dtype=np.int64)


def crosscheck(censuses: list[dict]) -> list[str]:
    """Check sum_k k * pi_k(y) of each census against divisor sums.

    For n <= y coprime to the set S, sum f(n) counts pairs (p**a, n) with
    p**a | n and p outside S: a = 1 only for omega, every a for big_omega.
    Each p**a contributes C_S(y // p**a), the number of m <= y // p**a
    coprime to S (C_S(v) = v when S is empty).  The level totals must also
    add up to C_S(y).  The primes come from primes_up_to, not the sieve.
    """
    if not censuses:
        return []
    primes = primes_up_to(max(2, max(c["x"] for c in censuses))).primes
    prefixes: dict[tuple, np.ndarray] = {}
    for c in censuses:
        members = tuple(c["members"])
        if members and members not in prefixes:
            limit = max(d["x"] for d in censuses if tuple(d["members"]) == members)
            prefixes[members] = _coprime_prefix(limit, list(members))
    problems = []
    for c in censuses:
        y, members = c["x"], tuple(c["members"])
        coprime_upto = (lambda v: prefixes[members][v]) if members else (lambda v: v)
        ps = primes[: int(np.searchsorted(primes, y, side="right"))]
        if members:
            ps = ps[~np.isin(ps, members)]
        expected = int(np.sum(coprime_upto(y // ps)))
        if c["f"] == "big_omega":
            base, power = ps, ps.copy()
            while True:
                more = power <= y // base
                if not more.any():
                    break
                base, power = base[more], power[more] * base[more]
                expected += int(np.sum(coprime_upto(y // power)))
        counts = {int(k): v for k, v in c["counts"].items()}
        weighted = sum(k * v for k, v in counts.items())
        total = int(coprime_upto(y))
        if weighted != expected or sum(counts.values()) != total:
            problems.append(
                f"census x={y} f={c['f']} set={list(members)}: "
                f"sum k*pi_k = {weighted} (divisor sum {expected}), "
                f"total {sum(counts.values())} (coprime count {total})"
            )
    return problems


def kernel_traffic(lo: int, hi: int) -> tuple[float, float]:
    """Strided updates and bytes per integer of one kernel segment [lo, hi).

    Computed, not measured: each multiple of p bumps omega (uint8 read and
    write, 2 B); each multiple of p**a bumps big_omega (2 B) and divides the
    int64 remainder (16 B).  Dense passes over the whole segment are left out.
    """
    ops = 0
    nbytes = 0
    for p in primes_up_to(math.isqrt(hi - 1)).primes.tolist():
        hits = (hi - 1) // p - (lo - 1) // p
        if hits == 0:
            continue
        ops += hits
        nbytes += 2 * hits
        q = p
        while q < hi:
            hits = (hi - 1) // q - (lo - 1) // q
            if hits == 0:
                break
            ops += 2 * hits
            nbytes += 18 * hits
            q *= p
    span = hi - lo
    return ops / span, nbytes / span


def _sweep_seconds(lo: int, hi: int, segment_size: int, threads: int) -> float:
    start = time.perf_counter()
    for _ in iter_factor_segments(lo, hi, segment_size, threads):
        pass
    return time.perf_counter() - start


KERNEL_LO = 10**8
KERNEL_SPAN = 1 << 20
KERNEL_REPEATS = 5
SWEEP_X = 2 * 10**7
SWEEP_SEGMENT_BITS = (14, 16, 18, 20, 22)
TAIL_X = 10**7
TAIL_DELTA = 0.1


def run_layers(trace_path: str, out_path: str) -> int:
    with open(trace_path, encoding="utf-8") as fh:
        censuses = json.load(fh)["censuses"]
    problems = crosscheck(censuses)

    hi = KERNEL_LO + KERNEL_SPAN
    _sweep_seconds(KERNEL_LO, hi, KERNEL_SPAN, 1)  # fills the sieve-prime cache
    kernel_s = statistics.median(
        _sweep_seconds(KERNEL_LO, hi, KERNEL_SPAN, 1) for _ in range(KERNEL_REPEATS)
    )
    ops_per_n, bytes_per_n = kernel_traffic(KERNEL_LO, hi)
    metrics = {
        "sieve.kernel_ns_per_n": (kernel_s * 1e9 / KERNEL_SPAN, "ns/n"),
        "sieve.kernel_ops_per_n": (ops_per_n, "ops/n"),
        "sieve.kernel_bytes_per_n": (bytes_per_n, "B/n"),
    }
    by_bits = {}
    for bits in SWEEP_SEGMENT_BITS:
        by_bits[bits] = _sweep_seconds(1, SWEEP_X + 1, 1 << bits, 1)
        metrics[f"sieve.sweep_ns_per_n.seg{bits}"] = (by_bits[bits] * 1e9 / SWEEP_X, "ns/n")
    two_threads = _sweep_seconds(1, SWEEP_X + 1, 1 << 20, 2)
    metrics["sieve.scaling_eff_2t"] = (by_bits[20] / (2 * two_threads), "ratio")
    start = time.perf_counter()
    concentration_tail(TAIL_X, TAIL_DELTA)
    metrics["census.tail_s"] = (time.perf_counter() - start, "s")

    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump({"problems": problems, "censuses_checked": len(censuses), "metrics": metrics}, fh)
    return 0


def main(argv: list[str]) -> int:
    mode, rest = argv[0], argv[1:]
    if mode == "setup":
        return run_setup(rest[rest.index("--") + 1 :])
    if mode == "trace":
        return run_trace(rest[0], rest[rest.index("--") + 1 :])
    if mode == "layers":
        return run_layers(rest[0], rest[1])
    print(f"unknown mode {mode!r}", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
