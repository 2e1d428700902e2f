"""End-to-end benchmark of the fermirep CLI, with an optional traced run.

    python3 perfbench/run.py [--workload suite|export|sector|all] [--seed N]
                             [--seconds S] [--trace 0|1]

Run from any directory; the package is taken from ``src/`` next to this
directory.  Each workload is a closed loop with one client: a *pass* is a
fixed sequence of CLI invocations, each in a fresh child process (users
pay cold imports and cold caches on every invocation), and passes repeat
until ``--seconds`` of passes have run and the workload's minimum pass
count is reached (see ``MIN_PASSES``).  Every output is checked;
the last line printed is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  The exit code is 0 only when every check
passed, 2 when the package cannot be found.

Untraced runs report the end-to-end metrics.  ``--trace 1`` runs three
passes instead: untraced, with spans only (layer times and counts), and
with spans plus tracemalloc (layer memory; tracemalloc slows allocation-
heavy code several-fold, so its times are not used).  It reports the
per-layer metrics (see ``tracer.py``) and the overhead of each traced pass.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CHILD = HERE / "child.py"
WORK_PARENT = ROOT / ".perfbench_work"

AS_LIMIT_BYTES = 3 << 30  # per child; a runaway build fails instead of exhausting the machine
CHILD_TIMEOUT_S = 150.0
RUN_DEADLINE_S = 170.0  # no child may run past this point of a run
SETUP_PROBES = 3  # extra invocations per run that only sample setup_s
MB = 1e6


# -- invocations -------------------------------------------------------------------


@dataclass
class Op:
    """One CLI invocation and the check its output must pass."""

    kind: str  # probe, build, verify or eval
    args: list[str]
    check: Callable[["Result"], str | None]


@dataclass
class Result:
    op: Op
    wall: float
    setup: float | None
    maxrss_kb: int
    rc: int
    timed_out: bool
    stdout: str
    stderr: str
    record: dict = field(default_factory=dict)
    spans_path: str = ""
    failure: str | None = None


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("FERMIREP_MAX_MODES", None)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


class Runner:
    """Spawns children one at a time inside a private work directory."""

    def __init__(self, work: Path, deadline: float):
        self.work = work
        self.deadline = deadline
        self.env = _child_env()
        self.count = 0

    def invoke(self, op: Op, trace: int = 0, env: bool = False) -> Result:
        self.count += 1
        base = self.work / f"inv-{self.count:04d}"
        record_path = f"{base}.json"
        timeout = min(CHILD_TIMEOUT_S, self.deadline - time.monotonic())
        if timeout <= 0:
            result = Result(op, 0.0, None, 0, -1, True, "", "")
            result.failure = "run deadline reached before start"
            return result
        cmd = [sys.executable, str(CHILD), record_path, str(AS_LIMIT_BYTES),
               str(trace), "1" if env else "0", "--", *op.args]
        fired: list[bool] = []
        with open(f"{base}.out", "w+b") as out, open(f"{base}.err", "w+b") as err:
            spawn = time.monotonic()
            proc = subprocess.Popen(cmd, cwd=ROOT, env=self.env, stdin=subprocess.DEVNULL,
                                    stdout=out, stderr=err)

            def kill() -> None:
                fired.append(True)
                proc.kill()

            timer = threading.Timer(timeout, kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
                timer.join()
            end = time.monotonic()
            proc.returncode = os.waitstatus_to_exitcode(status)
            out.seek(0)
            err.seek(0)
            stdout = out.read().decode(errors="replace")
            stderr = err.read().decode(errors="replace")
        record = {}
        if os.path.exists(record_path):
            with open(record_path) as fh:
                record = json.load(fh)
        setup = record["entry"] - spawn if "entry" in record else None
        result = Result(op, end - spawn, setup, usage.ru_maxrss, proc.returncode,
                        bool(fired), stdout, stderr, record, record_path + ".spans.npz")
        result.failure = _failure(result)
        return result


def _failure(r: Result) -> str | None:
    if r.timed_out:
        return f"timed out after {r.wall:.1f} s"
    if r.rc != 0:
        out = r.stdout.strip().splitlines()[:1] or ["no stdout"]
        err = r.stderr.strip().splitlines()[-1:] or ["no stderr"]
        return f"exit code {r.rc}: {out[0]} | {err[0]}"
    if "entry" not in r.record:
        return "no entry record"
    try:
        return r.op.check(r)
    except (OSError, ValueError, KeyError) as exc:
        return f"output unreadable: {exc!r}"


# -- output checks ------------------------------------------------------------------


def check_probe(r: Result) -> str | None:
    out = r.stdout.strip()
    return None if out == "-x^2 + 4x - 3" else f"selective polynomial printed as {out!r}"


def check_report(path: Path) -> Callable[[Result], str | None]:
    def check(r: Result) -> str | None:
        report = json.loads(path.read_text())
        checks = report["checks"]
        if not checks:
            return "report has no checks"
        failed = [c["name"] for c in checks if not c["passed"]]
        if failed or not report["overall"]:
            return f"{len(failed)} checks failed, first {failed[:1]}"
        m = re.match(r"(\d+) checks, (\d+) failed", r.stdout)
        if m is None or int(m.group(1)) != len(checks) or int(m.group(2)) != 0:
            return f"summary line {r.stdout.splitlines()[:1]} disagrees with the report"
        return None

    return check


def check_build(out: Path, expected: int) -> Callable[[Result], str | None]:
    def check(r: Result) -> str | None:
        manifest = json.loads((out / "manifest.json").read_text())
        files = [g["file"] for g in manifest["generators"]]
        if len(files) != expected:
            return f"manifest lists {len(files)} generators, expected {expected}"
        m = re.match(r"wrote (\d+) generator files", r.stdout)
        if m is None or int(m.group(1)) != expected:
            return f"build reported {r.stdout.strip()!r}, expected {expected} files"
        absent = [f for f in files if not (out / f).is_file()]
        return f"{len(absent)} generator files missing" if absent else None

    return check


def check_eval(r: Result) -> str | None:
    m = re.search(r"max difference vs .*: (\S+)\s*$", r.stdout)
    if m is None:
        return f"no difference printed: {r.stdout.strip()!r}"
    return None if float(m.group(1)) == 0.0 else f"difference {m.group(1)} != 0"


# -- workloads ----------------------------------------------------------------------


def gell_mann_terms(d: int) -> list[tuple[str, int, int]]:
    """(kind, j, k) of each generalized Gell-Mann generator, in the documented order."""
    terms = []
    for k in range(2, d + 1):
        for j in range(1, k):
            terms += [("sym", j, k), ("asym", j, k)]
        terms.append(("diag", k - 1, k))
    return terms


def gell_mann_expression(kind: str, j: int, k: int) -> str:
    """The bilinear sum a+_a G^{ab} a_b of one generator as an eval expression.

    Terms are written in the summation order of `standard_rep`, and the
    diagonal coefficients as the doubles it uses, so the result must match
    the exported file exactly.
    """
    if kind == "sym":
        return f"adag({j})*a({k}) + adag({k})*a({j})"
    if kind == "asym":
        return f"-i*adag({j})*a({k}) + i*adag({k})*a({j})"
    s = math.sqrt(2.0 / (j * (j + 1)))
    head = " + ".join(f"{s!r}*N({r})" for r in range(1, j + 1))
    return f"{head} - {j * s!r}*N({k})"


def suite_pass(out: Path, rng: random.Random) -> list[Op]:
    report = out / "report.json"
    args = ["verify", "--n-max", "6", "--format", "json", "--report", str(report)]
    return [Op("verify", args, check_report(report))]


EXPORT_MODES = 12
EXPORT_EVALS = ("sym", "asym", "diag", None)  # None: any generator


def export_pass(out: Path, rng: random.Random) -> list[Op]:
    n = EXPORT_MODES
    built = out / f"un-standard-{n}"
    report = out / "report.json"
    ops = [
        Op("build", ["build", "un-standard", "--n", str(n), "--out", str(built)],
           check_build(built, n * n - 1)),
        Op("verify", ["verify", "--from", str(built), "--format", "json", "--report", str(report)],
           check_report(report)),
    ]
    terms = gell_mann_terms(n)
    for kind in EXPORT_EVALS:
        idx = rng.choice([a for a, t in enumerate(terms) if kind in (None, t[0])])
        ops.append(Op("eval", ["eval", gell_mann_expression(*terms[idx]), "--n", str(n),
                               "--check", str(built / f"generator_{idx + 1:03d}.json")],
                      check_eval))
    return ops


# ucnm (8,2) is left out: its dense 783^3 structure-constant tensor is 7.7 GB.
SECTOR_BUILDS = (("ucnm", 6, 2), ("mixed", 5, 2))


def sector_pass(out: Path, rng: random.Random) -> list[Op]:
    ops = []
    for group, n, m in SECTOR_BUILDS:
        built = out / f"{group}-{n}-{m}"
        report = out / f"{group}-report.json"
        ops += [
            Op("build", ["build", group, "--n", str(n), "--m", str(m), "--out", str(built)],
               check_build(built, math.comb(n, m) ** 2 - 1)),
            Op("verify", ["verify", "--from", str(built), "--format", "json",
                          "--report", str(report)], check_report(report)),
        ]
    return ops


WORKLOADS = {"suite": suite_pass, "export": export_pass, "sector": sector_pass}
# Passes per untraced run, at the least.  On a shared 2-vCPU host the speed
# of the machine drifts by 15-30 % within minutes, so a run's median needs
# about 50 s of passes on suite (one invocation of 15-20 s per pass) and 30 s
# on export; one sector pass (about 25 s, two-thirds of it BLAS-bound) is
# already steady.
MIN_PASSES = {"suite": 3, "export": 2, "sector": 1}
KINDS = ("build", "verify", "eval")


# -- runs ---------------------------------------------------------------------------


@dataclass
class PassStats:
    wall: float = 0.0
    kinds: dict[str, float] = field(default_factory=dict)
    export_bytes: int = 0
    layers: dict[str, float] = field(default_factory=dict)


@dataclass
class RunStats:
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    setup: list[float] = field(default_factory=list)
    maxrss_kb: int = 0
    passes: list[PassStats] = field(default_factory=list)
    spans: PassStats | None = None  # traced runs: spans only
    memory: PassStats | None = None  # traced runs: spans plus tracemalloc
    env: dict = field(default_factory=dict)

    def add(self, r: Result) -> None:
        self.attempted += 1
        if r.failure:
            self.failures.append(f"{r.op.kind} {' '.join(r.op.args)[:100]}: {r.failure}")
        if r.setup is not None:
            self.setup.append(r.setup)
        self.maxrss_kb = max(self.maxrss_kb, r.maxrss_kb)

    def check_repeats(self) -> None:
        """Counts that depend only on the inputs must be equal in every pass."""
        sizes = {p.export_bytes for p in self.passes + [self.spans, self.memory] if p}
        if len(sizes) > 1:
            self.failures.append(f"build output size differs between passes: {sorted(sizes)}")
        if self.spans and self.memory:
            for key in DETERMINISTIC_COUNTS:
                a, b = self.spans.layers.get(key), self.memory.layers.get(key)
                if a != b:
                    self.failures.append(f"{key} differs between traced passes: {a} vs {b}")


DETERMINISTIC_COUNTS = ("verify.checks", "schwinger.nnz_out",
                        "cli.matfile.bytes_written")


def run_pass(runner: Runner, stats: RunStats, ops: list[Op], trace: int) -> PassStats:
    ps = PassStats()
    for op in ops:
        r = runner.invoke(op, trace=trace)
        stats.add(r)
        ps.wall += r.wall
        ps.kinds[op.kind] = ps.kinds.get(op.kind, 0.0) + r.wall
        if op.kind == "build" and r.failure is None:
            out = Path(op.args[op.args.index("--out") + 1])
            ps.export_bytes += sum(f.stat().st_size for f in out.iterdir())
        if trace and "trace" in r.record:
            for key, value in _layer_summary(r).items():
                old = ps.layers.get(key, 0.0)
                ps.layers[key] = max(old, value) if key.endswith(".peak_mb") else old + value
    return ps


def _layer_summary(r: Result) -> dict[str, float]:
    import numpy as np  # only traced runs need it

    from tracer import summarize

    with np.load(r.spans_path) as spans:
        return summarize(r.record["trace"], spans)


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> RunStats:
    WORK_PARENT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=WORK_PARENT))
    start = time.monotonic()
    runner = Runner(work, start + RUN_DEADLINE_S)
    stats = RunStats()
    rng = random.Random(seed)

    def one_pass(mode: int) -> PassStats:
        out = work / f"pass-{runner.count:04d}"
        out.mkdir()
        ps = run_pass(runner, stats, WORKLOADS[name](out, rng), mode)
        shutil.rmtree(out)
        return ps

    try:
        for k in range(SETUP_PROBES):
            probe = Op("probe", ["table", "selective", "--n", "4", "--m", "2"], check_probe)
            r = runner.invoke(probe, env=k == 0)
            stats.add(r)
            stats.env = stats.env or r.record.get("env", {})
        if trace:
            stats.passes.append(one_pass(0))
            stats.spans = one_pass(1)
            stats.memory = one_pass(2)
        else:
            begin = time.monotonic()
            while not stats.failures:
                stats.passes.append(one_pass(0))
                if (len(stats.passes) >= MIN_PASSES[name]
                        and time.monotonic() - begin >= seconds):
                    break
        stats.check_repeats()
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_PARENT.rmdir()
        except OSError:
            pass
    return stats


# -- reporting ----------------------------------------------------------------------


def high_percentile(samples: list[float]) -> tuple[int, float] | None:
    """Highest percentile with at least ten samples above it."""
    n = len(samples)
    if n < 20:  # below that, the percentile would sit under the median
        return None
    return (100 * (n - 10)) // n, sorted(samples)[n - 11]


def end_to_end(stats: RunStats) -> tuple[dict[str, tuple[float, str]], list[str]]:
    """Metrics for the JSON line, and table rows for every end-to-end metric."""
    passes = stats.passes
    series: dict[str, tuple[list[float], str]] = {
        "setup_s": (stats.setup, "s"),
        "wall_s": ([p.wall for p in passes], "s"),
    }
    for kind in KINDS:
        values = [p.kinds[kind] for p in passes if kind in p.kinds]
        if values:
            series[f"{kind}_s"] = (values, "s")
    if any(p.export_bytes for p in passes):
        series["export_mb"] = ([p.export_bytes / MB for p in passes], "MB")
    rows = []
    metrics = {}
    for name, (values, unit) in series.items():
        if not values:
            continue
        med = statistics.median(values)
        hp = high_percentile(values)
        tail = f"p{hp[0]}={hp[1]:.4f}" if hp else "p=n/a"
        rows.append(f"  {name:<14} median={med:<12.6g} {tail:<14} n={len(values):<4} {unit}")
        metrics[name] = (med, unit)
    peak = stats.maxrss_kb * 1024 / MB
    rows.append(f"  {'peak_rss_mb':<14} max={peak:<15.6g} {'':<14} n={stats.attempted:<4} MB")
    metrics["peak_rss_mb"] = (peak, "MB")
    rate = len(stats.failures) / stats.attempted
    rows.append(f"  {'error_rate':<14} {rate:<19.4g} {'':<14} n={stats.attempted:<4} ratio")
    # build_s, eval_s and export_mb exist on some workloads only, and error_rate
    # is 0 when all is well.  verify_s is table-only too: it equals wall_s on
    # suite and is most of it on sector, and export's 8 s verify step alone
    # spread past the 0.25 bound on a shared host.  The JSON line carries the rest.
    shared = ("setup_s", "wall_s", "peak_rss_mb")
    return {k: metrics[k] for k in shared if k in metrics}, rows


def per_layer(stats: RunStats) -> dict[str, tuple[float, str]]:
    from tracer import metric_units

    out = {}
    for name, unit in metric_units().items():
        source = stats.memory if name.endswith(".peak_mb") else stats.spans
        out[name] = (source.layers.get(name, 0.0) if source else 0.0, unit)
    untraced = stats.passes[0].wall if stats.passes else 0.0
    for name, source in (("trace.overhead_s", stats.spans),
                         ("trace.memory_overhead_s", stats.memory)):
        out[name] = (source.wall - untraced if source else 0.0, "s")
    return out


def git_sha() -> str:
    git = ROOT / ".git"
    head = git / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    if (git / name).is_file():
        return (git / name).read_text().strip()
    packed = git / "packed-refs"
    lines = packed.read_text().splitlines() if packed.is_file() else []
    return next((ln.split()[0] for ln in lines if ln.endswith(" " + name)), "unknown")


def report(name: str, seed: int, trace: bool, stats: RunStats) -> dict[str, tuple[float, str]]:
    print(f"workload {name}  seed {seed}  trace {int(trace)}  "
          f"untraced passes {len(stats.passes)}")
    env = {"git": git_sha(), "nproc": os.cpu_count(),
           "affinity": len(os.sched_getaffinity(0)), **stats.env}
    print("  env " + json.dumps(env))
    for failure in stats.failures:
        print(f"  FAIL {failure}")
    for k, p in enumerate(stats.passes, start=1):
        kinds = ", ".join(f"{kind} {t:.3f}" for kind, t in p.kinds.items())
        print(f"  pass {k}: wall {p.wall:.3f} s ({kinds})")
    metrics, rows = end_to_end(stats)
    print("\n".join(rows))
    if trace:
        metrics = per_layer(stats)
        for key, (value, unit) in metrics.items():
            print(f"  {key:<34} {value:<14.6g} {unit}")
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "fermirep" / "cli" / "main.py").is_file():
        print(f"error: fermirep sources not found under {SRC}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    attempted = failed = 0
    metrics: dict[str, dict] = {}
    for name in names:
        stats = run_workload(name, args.seed, args.seconds, bool(args.trace))
        attempted += stats.attempted
        failed += len(stats.failures)
        prefix = f"{name}." if args.workload == "all" else ""
        for key, (value, unit) in report(name, args.seed, bool(args.trace), stats).items():
            metrics[prefix + key] = {"value": value, "unit": unit}
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
