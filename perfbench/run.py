"""Benchmark of the omega-proximity command-line program.

Run from the root of a checkout:

    python3 perfbench/run.py --workload report-default --seed 1 --seconds 40 --trace 0

Each run first checks that the workload's command writes byte-identical
files at --threads 1 and 2 and at segment sizes 2^16 and 2^20, on a smaller
input drawn from --seed.  Then:

--trace 0  launches the workload's command at --threads 1, again and again
           for --seconds, checks every output against frozen values and
           prints the end-to-end metrics setup_s, wall_s and peak_rss_mb,
           plus failed_frac: runs that exited nonzero or failed an output
           check, over runs attempted.
--trace 1  launches it once untraced and once traced (child.py trace), checks
           the traced files against the untraced ones byte for byte and the
           traced counts against closed forms, cross-checks every census the
           command made, and prints the per-layer metrics.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  Exit status: 0 when every check passed, 1
when an output check or a gate failed, 2 for bad usage or a checkout
without src/omega_proximity.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CHILD = Path(__file__).resolve().parent / "child.py"
WORK = ROOT / ".perfbench-work"

DEADLINE_S = 170.0
SETUP_PROBES_PER_RUN = 3  # set-up probes before each timed run
TIMED_ARGS = ("--threads", "1")
GATE_CONFIGS = {
    "t1-s20": ("--threads", "1", "--segment-size", str(1 << 20)),
    "t2-s20": ("--threads", "2", "--segment-size", str(1 << 20)),
    "t1-s16": ("--threads", "1", "--segment-size", str(1 << 16)),
}
SEGMENT_SIZE = 1 << 20  # the CLI default, used by every timed run
WORKING_BYTES_PER_N = 32  # mirrors omega_proximity.budget.WORKING_BYTES_PER_N


class GateFailure(Exception):
    """A check that must pass before any result is written did not."""


# ---------------------------------------------------------------- workloads


def _report_rows(out: Path) -> list[dict]:
    if not (out / "report.csv").is_file():
        raise ValueError("report.csv is missing")
    return json.loads((out / "report.json").read_text(encoding="utf-8"))["rows"]


def _check_report(e_values: list[int], l_values: list[int]) -> Callable[[Path], list[str]]:
    def check(out: Path) -> list[str]:
        rows = _report_rows(out)
        got_e = [r["E"] for r in rows]
        got_l = [r["L"] for r in rows]
        problems = []
        if got_e != e_values:
            problems.append(f"E = {got_e}, expected {e_values}")
        if got_l != l_values:
            problems.append(f"L = {got_l}, expected {l_values}")
        if any(l > e for e, l in zip(got_e, got_l)):
            problems.append(f"L > E in some row: L = {got_l}, E = {got_e}")
        return problems

    return check


def _check_phi(out: Path) -> list[str]:
    doc = json.loads((out / "phi_omega_x100000000.json").read_text(encoding="utf-8"))
    expected = {
        "max_level_count": 34800362,
        "A": "5762831.474822608",
        "B": "3.948121595607829",
        "phi": "6.851009981563551e-07",
    }
    got = {
        "max_level_count": doc["max_level_count"],
        "A": repr(doc["A"]),
        "B": repr(doc["B"]),
        "phi": repr(doc["phi"]),
    }
    return [f"{k} = {got[k]}, expected {v}" for k, v in expected.items() if got[k] != v]


@dataclass(frozen=True)
class Workload:
    argv: tuple[str, ...]
    x_max: int
    integers_swept: int  # closed form for the current sweep plan
    maximizers: int
    check: Callable[[Path], list[str]]
    gate_argv: Callable[[random.Random], list[str]]


# Why each workload was chosen is recorded in BENCHMARK.json.  The expected
# E, L and phi values, the swept-integer counts and the maximizer counts were
# frozen from the first commit that had this benchmark.
WORKLOADS = {
    "report-default": Workload(
        argv=("report", "--f", "bigomega"),
        x_max=10**7,
        integers_swept=29_395_485,
        maximizers=5,
        check=_check_report(
            [2579, 22921, 205155, 1852731], [1341, 13133, 124051, 1156671]
        ),
        gate_argv=lambda rng: [
            "report", "--f", "bigomega", "--grid", f"10000,100000,{rng.randint(500_000, 1_000_000)}",
        ],
    ),
    "wide-set": Workload(
        argv=(
            "report", "--f", "omega", "--grid", "20000000",
            "--set", "paper", "--delta", "0.5", "--count", "40",
        ),
        x_max=2 * 10**7,
        integers_swept=73_054_706,
        maximizers=40,
        check=_check_report([6903738], [3544302]),
        gate_argv=lambda rng: [
            "report", "--f", "omega", "--grid", str(rng.randint(1_000_000, 2_000_000)),
            "--set", "paper", "--delta", "0.5", "--count", "40",
        ],
    ),
    "phi-1e8": Workload(
        argv=("phi", "--x", "100000000", "--f", "omega"),
        x_max=10**8,
        integers_swept=10**8,
        maximizers=0,
        check=_check_phi,
        gate_argv=lambda rng: ["phi", "--x", str(rng.randint(2_000_000, 4_000_000)), "--f", "omega"],
    ),
}


# ---------------------------------------------------------------- processes


@dataclass(frozen=True)
class Launch:
    wall_s: float
    peak_rss_mb: float
    exit_code: int
    log: Path


class Runner:
    """Starts children one at a time and waits for each; all share one deadline."""

    def __init__(self, deadline: float) -> None:
        self.deadline = deadline
        self.env = {k: v for k, v in os.environ.items() if k != "OMEGA_PROXIMITY_BUDGET"}
        self.env["PYTHONPATH"] = str(SRC)
        self.logs = WORK / "logs"
        self.logs.mkdir(parents=True, exist_ok=True)
        self.launched = 0

    def launch(self, cmd: list[str]) -> Launch:
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise GateFailure("out of time before the next launch")
        self.launched += 1
        log_path = self.logs / f"{self.launched:03d}.log"
        with open(log_path, "wb") as log:
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, stdout=log, stderr=subprocess.STDOUT, env=self.env, cwd=ROOT)
            timer = threading.Timer(remaining, proc.kill)
            timer.start()
            try:
                # wait4 gives this child's own rusage, so ru_maxrss is its peak RSS.
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return Launch(wall, usage.ru_maxrss / 1024.0, proc.returncode, log_path)

    def cli(self, argv: list[str], out: Path) -> Launch:
        _fresh_dir(out)
        return self.launch([sys.executable, "-m", "omega_proximity", *argv, "--out", str(out)])

    def child(self, *args: str) -> Launch:
        return self.launch([sys.executable, str(CHILD), *args])


def _fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def _tail(log: Path, lines: int = 5) -> str:
    return "\n".join(log.read_text(encoding="utf-8", errors="replace").splitlines()[-lines:])


def _files(out: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())}


def _outputs_problems(run: Launch, out: Path, check: Callable[[Path], list[str]]) -> list[str]:
    if run.exit_code != 0:
        return [f"exit code {run.exit_code}: {_tail(run.log)}"]
    try:
        return check(out)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [f"unreadable output: {exc!r}"]


# ---------------------------------------------------------------- gates


def invariance_gate(runner: Runner, argv: list[str]) -> None:
    """Outputs must not depend on --threads or --segment-size."""
    reference = None
    for label, extra in GATE_CONFIGS.items():
        out = WORK / "gate" / label
        run = runner.cli([*argv, *extra], out)
        if run.exit_code != 0:
            raise GateFailure(f"invariance gate: {label} exited {run.exit_code}: {_tail(run.log)}")
        files = _files(out)
        if reference is None:
            reference = (label, files)
        elif files != reference[1]:
            raise GateFailure(
                f"invariance gate: {' '.join(argv)} writes different files at "
                f"{label} and {reference[0]}"
            )


# ---------------------------------------------------------------- facts


_CACHE_UNITS = {"KiB": 1 << 10, "MiB": 1 << 20, "GiB": 1 << 30}


def _llc() -> tuple[str, int]:
    """Last-level cache as lscpu prints it, and its size in bytes (0 if unknown)."""
    try:
        text = subprocess.run(
            ["lscpu"], capture_output=True, text=True, env={**os.environ, "LC_ALL": "C"}, timeout=10
        ).stdout
    except (OSError, subprocess.SubprocessError):
        return "unknown", 0
    caches = [line for line in text.splitlines() if line.strip().startswith(("L2 cache", "L3 cache"))]
    if not caches:
        return "unknown", 0
    value = caches[-1].split(":", 1)[1].strip()  # e.g. "105 MiB (1 instance)"
    number, unit = (value.split() + ["", ""])[:2]
    try:
        return value, int(float(number) * _CACHE_UNITS.get(unit, 0))
    except ValueError:
        return value, 0


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True, cwd=ROOT, timeout=10
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() or None


def _src_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "omega_proximity").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def machine_facts() -> dict:
    llc, llc_bytes = _llc()
    working_set = WORKING_BYTES_PER_N * SEGMENT_SIZE
    fits = "fits" if 0 < working_set <= llc_bytes else "may not fit"
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "last_level_cache": llc,
        "segment_size": SEGMENT_SIZE,
        "threads": 1,
        "git_commit": _git_commit(),
        "src_sha256_16": _src_digest(),
        "note": (
            f"one 2^20 segment has a computed working set of about {working_set >> 20} MB "
            f"({WORKING_BYTES_PER_N} B/n), which {fits} in the last-level cache; "
            "sieve.kernel_bytes_per_n is computed traffic, not measured bandwidth"
        ),
    }


# ---------------------------------------------------------------- modes


def timed_runs(runner: Runner, wl: Workload, seconds: float) -> tuple[dict, int, int]:
    """End-to-end metrics with tracing off."""
    setup_argv = [*wl.argv, *TIMED_ARGS, "--out", str(WORK / "setup")]
    (WORK / "setup").mkdir(parents=True, exist_ok=True)
    runner.child("setup", "--", *setup_argv)  # warm-up: byte-compiles, fills the file cache
    setups, walls, rsss, rounds = [], [], [], []
    attempted = failed = 0
    start = time.monotonic()
    while True:
        round_start = time.monotonic()
        # On a shared host the CPU's speed drifts over tens of seconds, so the
        # set-up probes are spread over the whole run, as the timed runs are.
        for _ in range(SETUP_PROBES_PER_RUN):
            probe = runner.child("setup", "--", *setup_argv)
            if probe.exit_code != 0:
                raise GateFailure(f"set-up probe exited {probe.exit_code}: {_tail(probe.log)}")
            setups.append(probe.wall_s)
        out = WORK / "timed"
        run = runner.cli([*wl.argv, *TIMED_ARGS], out)
        attempted += 1
        problems = _outputs_problems(run, out, wl.check)
        if problems:
            failed += 1
            print(f"run {attempted} failed: " + "; ".join(problems), file=sys.stderr)
        if run.exit_code == 0:
            # A run with wrong output still ran to the end: its time counts.
            walls.append(run.wall_s)
            rsss.append(run.peak_rss_mb)
        rounds.append(time.monotonic() - round_start)
        if time.monotonic() - start + statistics.median(rounds) > seconds:
            break
    if not walls:
        raise GateFailure("no timed run exited 0")
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (statistics.median(walls), "s"),
        "peak_rss_mb": (statistics.median(rsss), "MB"),
    }
    print(f"setup_s from {len(setups)} launches, wall_s and peak_rss_mb from {len(walls)} runs")
    return metrics, attempted, failed


def _layer_metrics(trace: dict, wl: Workload, untraced: Launch, traced: Launch) -> dict:
    spans = trace["spans"]
    covered = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            covered[parent] += end - start

    def total(name: str) -> float:
        return sum(end - start for n, start, end, _ in spans if n == name)

    def self_time(name: str) -> float:
        return sum(s[2] - s[1] - covered[i] for i, s in enumerate(spans) if s[0] == name)

    counts = trace["counts"]
    swept = counts.get("sieve.integers_swept", 0)
    estimate_mb = counts.get("budget.estimate_bytes", 0) / (1 << 20)
    return {
        "sieve.busy_s": (total("sieve.next"), "s"),
        "sieve.integers_swept": (swept, "count"),
        "sieve.sweeps": (counts.get("sieve.sweeps", 0), "count"),
        "sieve.redundancy": (swept / wl.x_max, "ratio"),
        "sieve.primes_up_to_s": (total("sieve.primes_up_to"), "s"),
        "primeset.set_build_s": (
            total("primeset.threshold_prime_set") + total("primeset.power_prime_set"), "s"
        ),
        "primeset.coprime_mask_s": (total("primeset.coprime_mask"), "s"),
        "primeset.coprime_mask_n": (counts.get("primeset.coprime_mask_n", 0), "count"),
        "census.self_s": (self_time("census.census"), "s"),
        "gfunction.build_g_s": (total("gfunction.build_g"), "s"),
        "gfunction.maximizers": (counts.get("gfunction.maximizers", 0), "count"),
        "proximity.coincidence_s": (self_time("proximity.coincidence_count"), "s"),
        "proximity.certificate_s": (self_time("proximity.certificate_count"), "s"),
        "proximity.witnesses_checked": (counts.get("proximity.witnesses_checked", 0), "count"),
        "proximity.certificate_bytes": (counts.get("proximity.certificate_bytes", 0), "B"),
        "proximity.phi_self_s": (self_time("proximity.phi_diagnostics"), "s"),
        "budget.estimate_mb": (estimate_mb, "MB"),
        "budget.estimate_over_rss": (estimate_mb / untraced.peak_rss_mb, "ratio"),
        "cli.self_s": (self_time("cli.main"), "s"),
        "trace.overhead_s": (traced.wall_s - untraced.wall_s, "s"),
    }


def traced_run(runner: Runner, wl: Workload) -> tuple[dict, int, int]:
    """Per-layer metrics from one traced run, next to one untraced run."""
    plain_out, traced_out = WORK / "untraced", WORK / "traced"
    untraced = runner.cli([*wl.argv, *TIMED_ARGS], plain_out)
    problems = _outputs_problems(untraced, plain_out, wl.check)
    if problems:
        raise GateFailure("untraced run: " + "; ".join(problems))

    trace_path = WORK / "trace.json"
    _fresh_dir(traced_out)
    traced = runner.child(
        "trace", str(trace_path), "--", *wl.argv, *TIMED_ARGS, "--out", str(traced_out)
    )
    if traced.exit_code != 0:
        raise GateFailure(f"traced run exited {traced.exit_code}: {_tail(traced.log)}")
    if _files(traced_out) != _files(plain_out):
        raise GateFailure("traced run wrote different files from the untraced run")
    trace = json.loads(trace_path.read_text(encoding="utf-8"))
    metrics = _layer_metrics(trace, wl, untraced, traced)

    # Count gate: a wrapper that missed an import site undercounts here.
    for key, expected in (
        ("sieve.integers_swept", wl.integers_swept),
        ("gfunction.maximizers", wl.maximizers),
    ):
        if metrics[key][0] != expected:
            raise GateFailure(f"count gate: {key} = {metrics[key][0]}, closed form {expected}")

    layers_path = WORK / "layers.json"
    run = runner.child("layers", str(trace_path), str(layers_path))
    if run.exit_code != 0:
        raise GateFailure(f"layer probes exited {run.exit_code}: {_tail(run.log)}")
    layers = json.loads(layers_path.read_text(encoding="utf-8"))
    if layers["problems"]:
        raise GateFailure("census cross-check: " + "; ".join(layers["problems"]))
    print(f"census cross-check passed on {layers['censuses_checked']} censuses")
    metrics.update((key, tuple(pair)) for key, pair in layers["metrics"].items())
    return metrics, 2, 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "omega_proximity" / "__init__.py").is_file():
        print(f"no package source at {SRC / 'omega_proximity'}", file=sys.stderr)
        return 2

    # On SIGTERM, unwind through Runner.launch so the running child is killed too.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    wl = WORKLOADS[args.workload]
    _fresh_dir(WORK)
    runner = Runner(time.monotonic() + DEADLINE_S)
    facts = machine_facts()
    try:
        invariance_gate(runner, wl.gate_argv(random.Random(args.seed)))
        if args.trace:
            metrics, attempted, failed = traced_run(runner, wl)
        else:
            metrics, attempted, failed = timed_runs(runner, wl, args.seconds)
    except GateFailure as exc:
        print(f"FAILED: {exc}", file=sys.stderr)
        return 1

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record = {"workload": args.workload, "argv": list(wl.argv), "seed": args.seed, "facts": facts, **result}
    (WORK / f"BENCH_{args.workload}_trace{args.trace}.json").write_text(
        json.dumps(record, indent=2) + "\n", encoding="utf-8"
    )
    print("facts: " + json.dumps(facts))
    for key, (value, unit) in metrics.items():
        print(f"{args.workload} {key} = {value:.6g} {unit}")
    # failed_frac is never in the metrics: it is 0 on a correct program, and
    # the result line carries it as failed / attempted.
    print(f"{args.workload} failed_frac = {failed / attempted:.6g} ratio ({failed} of {attempted} runs)")
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
