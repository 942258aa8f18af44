"""zfpd benchmark: cold-process CLI workloads with a correctness gate on every run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; ``zfpd`` is imported from its
``src`` directory, so nothing needs installing.  Workloads (the reasons for
each are in ``perfbench/README.md``):

    verify-except-T9
                zfpd verify --ids <every id but T9> --workers 2
    verify-all  zfpd verify --ids all --workers 2
    check7      zfpd verify --ids T1,T2,T3,T8,T10,T12,T16 --max-n 7
                --universe <orders 1..7 of perfbench/data/connected_1to8.g6>
                --workers 1
    check8      the same with --max-n 8 and orders 1..8
    compute     zfpd compute --params zf,pd,dom,tdom,pathcover,spider
                over graphs generated from --seed
    trees       zfpd verify --ids T7 --max-n 10 --workers 1

``--trace 0`` starts a fresh ``zfpd`` process per timed run, repeating until
``--seconds`` have passed (at least one run), and reports the end-to-end
metrics, with times at reference speed (see ``GAUGE_REF_S``).  ``--trace 1`` makes one traced in-process run (``tracer.py``) plus
untraced runs to compare against, and reports per-layer metrics.  Every run's
exit status and output are checked.  The last line of stdout is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--workload all`` runs every workload in turn, each as above, and ends
with one summary line whose metric names carry the workload as a prefix.
``--record`` instead runs the workload once and stores its output as the
reference later runs are compared with.
"""

from __future__ import annotations

import argparse
import array
import functools
import json
import os
import platform
import re
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import inputs

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "perfbench"
UNIVERSE = BENCH / "data" / "connected_1to8.g6"
REFERENCE = BENCH / "reference"

# Everything, the last run included, must end this long after start.
DEADLINE_S = 170.0
# Half the import probes run before the timed runs and half after, and
# setup_s is their median: a single probe (about 0.1 s) jitters by tens of
# percent.
SETUP_PROBES = 32
# The shared machine's speed drifts by 20-50% over seconds and minutes, more
# than the bounds.  So every timed run and every import probe is followed by
# the gauge, a fixed piece of pure-Python work in the benchmark process, and
# each time is reported at reference speed: as measured, times
# GAUGE_REF_S / the gauge's time.  GAUGE_REF_S is about the gauge's time on
# the 2-vCPU machine the bounds were set on.  Keep the gauge's work fixed:
# changing it changes every reported time.
GAUGE_REF_S = 0.1
GAUGE_REPEAT = 10
GAUGE_ORDER = 7
DEFAULT_SEED = 1

COMPUTE_PARAMS = ",".join(inputs.COMPUTE_PARAMS)


@dataclass(frozen=True)
class Workload:
    # zfpd arguments; "{input}" stands for the seeded input file and
    # "{universe}" for the connected graphs of orders 1..--max-n
    args: tuple[str, ...]
    status: int  # exit status of a correct run: T8 and T16 fail by design

    @property
    def seeded(self) -> bool:
        return "{input}" in self.args

    @property
    def workers(self) -> int:
        return int(self.args[self.args.index("--workers") + 1]) if "--workers" in self.args else 1


THEOREMS = [f"T{i}" for i in range(1, 17)]

WORKLOADS = {
    # Every verifier at its default cap but T9, whose order-8 universe build
    # alone takes over 30 s: a run takes a few seconds, so an invocation
    # reports the median of several runs.
    "verify-except-T9": Workload(("verify", "--ids", ",".join(t for t in THEOREMS if t != "T9"),
                                  "--workers", "2", "--format", "json"), 1),
    # Not in BENCHMARK.json (see README.md): one run takes over 30 s, so an
    # invocation would report a single run.
    "verify-all": Workload(("verify", "--ids", "all", "--workers", "2", "--format", "json"), 1),
    # The order-8 sweep takes 15-25 s a run; order 7 about 2 s, so an
    # invocation reports the median of several runs.
    "check7": Workload(("verify", "--ids", "T1,T2,T3,T8,T10,T12,T16", "--max-n", "7",
                        "--universe", "{universe}", "--workers", "1", "--format", "json"), 1),
    # Not in BENCHMARK.json (see README.md): the ROADMAP's order-8 sweep, by hand.
    "check8": Workload(("verify", "--ids", "T1,T2,T3,T8,T10,T12,T16", "--max-n", "8",
                        "--universe", "{universe}", "--workers", "1", "--format", "json"), 1),
    "compute": Workload(("compute", "--input", "{input}", "--params", COMPUTE_PARAMS, "--format", "json"), 0),
    # Not in BENCHMARK.json (see README.md): run by hand to show tree enumeration.
    "trees": Workload(("verify", "--ids", "T7", "--max-n", "10", "--workers", "1", "--format", "json"), 0),
}

END_TO_END = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}

PER_LAYER = {
    "families.enumerate_connected.self_s": "s",
    "families.enumerate_trees.self_s": "s",
    "families.canonical_key.calls": "count",
    "families.canonical_key.self_s": "s",
    "families.read_graph6_lines.self_s": "s",
    "families.parse_graph6.calls": "count",
    "families.parse_graph6.self_s": "s",
    "propagation.closure.calls": "count",
    "propagation.closure_with_log.calls": "count",
    "invariants.find_zero_forcing_set.calls": "count",
    "invariants.find_zero_forcing_set.self_s": "s",
    "invariants.find_power_dominating_set.calls": "count",
    "invariants.find_power_dominating_set.self_s": "s",
    "invariants.find_power_dominating_set.hit_ratio": "ratio",
    "invariants.zero_forcing_number.self_s": "s",
    "invariants.power_domination_number.self_s": "s",
    "invariants.domination_number.self_s": "s",
    "invariants.total_domination_number.self_s": "s",
    "invariants.path_cover_number.self_s": "s",
    "invariants.spider_number.self_s": "s",
    "structure.is_outerplanar.calls": "count",
    "structure.is_outerplanar.self_s": "s",
    "structure.is_planar.calls": "count",
    "structure.is_planar.self_s": "s",
    "products.cartesian_product.self_s": "s",
    "products.lexicographic_product.self_s": "s",
    **{f"theorems.{t}.s": "s" for t in THEOREMS},
    "theorems.universe.s": "s",
    "theorems.check.s": "s",
    "cli.main.self_s": "s",
    "cli.pool.efficiency": "ratio",
    "trace.overhead_s": "s",
}


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


@dataclass
class Run:
    gauge_s: float  # the gauge's time right after the run
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    problem: str | None  # why the run counts as failed, or None


# ---------------------------------------------------------------------------
# processes


def _env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def _kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def _reap_group(pgid: int) -> None:
    """Kill what is left of a run's process group and wait until it is gone."""
    _kill_group(pgid)
    for _ in range(500):
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.01)


def spawn(cmd: list[str], out: Path, timeout: float) -> tuple[int | None, float, float, float]:
    """Run ``cmd`` in its own session; return (exit status or None if killed, wall, cpu, peak RSS MB).

    CPU time and peak RSS come from ``wait4``, which folds in every descendant
    the process waited for (the verifier pool's workers).
    """
    with open(out, "wb") as fh_out, open(out.with_suffix(".err"), "wb") as fh_err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=fh_out, stderr=fh_err, env=_env(), cwd=WORK, start_new_session=True)
        timer = threading.Timer(max(timeout, 0.0), _kill_group, (proc.pid,))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - t0
        except BaseException:  # interrupted: stop the run before giving up
            _kill_group(proc.pid)
            os.waitpid(proc.pid, 0)
            raise
        finally:
            timer.cancel()
            _reap_group(proc.pid)
    proc.returncode = code = os.waitstatus_to_exitcode(status)
    killed = code == -signal.SIGKILL
    return (None if killed else code), wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024


def _zfpd_cmd(args: list[str]) -> list[str]:
    return [sys.executable, "-m", "zfpd.cli", *args]


def preflight() -> None:
    """Check that ``zfpd`` imports from this checkout's sources (and warm the bytecode cache)."""
    if not (SRC / "zfpd" / "__init__.py").is_file():
        raise BenchError(f"no zfpd sources under {SRC}")
    for path in (UNIVERSE, REFERENCE):
        if not path.exists():
            raise BenchError(f"missing {path}")
    probe = WORK / "preflight.out"
    code, *_ = spawn([sys.executable, "-c", "import zfpd; print(zfpd.__file__)"], probe, 60)
    where = probe.read_text(encoding="utf-8").strip()
    if code != 0 or not Path(where).resolve().is_relative_to(SRC.resolve()):
        raise BenchError(f"zfpd does not import from {SRC}: {where or probe.with_suffix('.err').read_text()}")


def universe_lines(max_n: int) -> list[str]:
    """The graphs of order up to ``max_n`` in ``UNIVERSE``, in file order."""
    return [ln for ln in UNIVERSE.read_text(encoding="ascii").splitlines()
            if ln and not ln.startswith("#") and ord(ln[0]) - 63 <= max_n]


@functools.cache
def _gauge_lines() -> list[str]:
    return universe_lines(GAUGE_ORDER)


def gauge() -> float:
    """Seconds taken by fixed pure-Python work: the benchmark's own check of the order-7 universe."""
    lines = _gauge_lines()
    start = time.perf_counter()
    for _ in range(GAUGE_REPEAT):
        inputs.check_universe(lines, GAUGE_ORDER)
    return time.perf_counter() - start


def at_reference_speed(pairs) -> float:
    """Median over (time, gauge time) pairs of the time at reference speed."""
    return statistics.median(t * GAUGE_REF_S / g for t, g in pairs)


def setup_times(count: int) -> list[tuple[float, float]]:
    """(wall, gauge) of ``count`` fresh interpreters each running ``import zfpd``."""
    pairs = []
    for _ in range(count):
        code, wall, _, _ = spawn([sys.executable, "-c", "import zfpd"], WORK / "setup.out", 60)
        if code != 0:
            raise BenchError("import zfpd failed")
        pairs.append((wall, gauge()))
    return pairs


# ---------------------------------------------------------------------------
# inputs and output checks


def _normalize(text: bytes) -> bytes:
    return re.sub(rb'"elapsed_s": [-0-9.eE+]+', b'"elapsed_s": 0', text)


def _reference_path(name: str, seed: int) -> Path:
    return REFERENCE / (f"{name}-seed{seed}.json" if WORKLOADS[name].seeded else f"{name}.json")


class Job:
    """One workload with its inputs prepared and the check for its output."""

    def __init__(self, name: str, seed: int) -> None:
        self.name = name
        self.seed = seed
        self.spec = WORKLOADS[name]
        universe_path = ""
        if "{universe}" in self.spec.args:
            # The orders up to --max-n of a fixed file, never reordered by
            # the seed: T10 and T16 report the first witness in universe
            # order and T16 stops early, so order changes both the output
            # and the work done.
            max_n = int(self.spec.args[self.spec.args.index("--max-n") + 1])
            lines = universe_lines(max_n)
            problem = inputs.check_universe(lines, max_n)
            if problem:
                raise BenchError(f"{UNIVERSE}, orders up to {max_n}: {problem}")
            universe_path = str(WORK / f"connected_1to{max_n}.g6")
            Path(universe_path).write_text("".join(ln + "\n" for ln in lines), encoding="ascii")
        self.graphs: list[str] = []
        input_path = ""
        if self.spec.seeded:
            self.graphs = inputs.compute_graphs(seed)
            input_path = str(WORK / f"compute-seed{seed}.g6")
            Path(input_path).write_text("".join(g + "\n" for g in self.graphs), encoding="ascii")
        fill = {"{input}": input_path, "{universe}": universe_path}
        self.args = [fill.get(a, a) for a in self.spec.args]
        ref = _reference_path(name, seed)
        self.reference = _normalize(ref.read_bytes()) if ref.exists() else None

    def serial_args(self) -> list[str]:
        """The same command with the verifier pool switched off."""
        args = list(self.args)
        if "--workers" in args:
            args[args.index("--workers") + 1] = "1"
        return args

    def problem(self, code: int | None, out: Path) -> str | None:
        if code is None:
            return "killed at the deadline"
        if code != self.spec.status:
            return f"exit status {code}, expected {self.spec.status}"
        text = out.read_bytes()
        if self.spec.seeded:
            try:
                problem = inputs.compute_problem(self.graphs, json.loads(text))
            except (ValueError, KeyError, TypeError, IndexError, AttributeError) as exc:
                problem = f"malformed output: {exc!r}"
            if problem:
                return problem
        if self.reference is not None and _normalize(text) != self.reference:
            return "output differs from the reference"
        return None


def timed_run(job: Job, cmd: list[str], deadline: float, tag: str) -> Run:
    out = WORK / f"{job.name}.{tag}.out"
    code, wall, cpu, rss = spawn(cmd, out, deadline - time.monotonic())
    return Run(gauge(), wall, cpu, rss, job.problem(code, out))


# ---------------------------------------------------------------------------
# traced run -> per-layer metrics


def read_spans(prefix: Path) -> tuple[dict, dict[str, array.array]]:
    header = json.loads(prefix.with_suffix(".json").read_text(encoding="ascii"))
    n = header["spans"]
    cols: dict[str, array.array] = {}
    with open(prefix.with_suffix(".bin"), "rb") as fh:
        for col, code in (("name", "i"), ("parent", "i"), ("start", "d"), ("end", "d")):
            cols[col] = array.array(code)
            cols[col].fromfile(fh, n)
    return header, cols


def layer_metrics(header: dict, cols: dict[str, array.array]) -> dict[str, float]:
    """Calls, inclusive and self time per span name; self time excludes child spans."""
    names = header["names"]
    name, parent, start, end = cols["name"], cols["parent"], cols["start"], cols["end"]
    dur = [e - s for s, e in zip(start, end)]
    child = [0.0] * len(dur)
    for i, p in enumerate(parent):
        if p >= 0:
            child[p] += dur[i]
    calls = [0] * len(names)
    total = [0.0] * len(names)
    self_s = [0.0] * len(names)
    for i, nid in enumerate(name):
        calls[nid] += 1
        total[nid] += dur[i]
        self_s[nid] += dur[i] - child[i]
    out: dict[str, float] = {}
    for nid, label in enumerate(names):
        out[f"{label}.calls"] = calls[nid]
        out[f"{label}.s"] = total[nid]
        out[f"{label}.self_s"] = self_s[nid]
    # Universe time counts outermost universe spans only (``trees`` may call ``connected``).
    uid = names.index("theorems.universe") if "theorems.universe" in names else -1
    universe = 0.0
    for i, nid in enumerate(name):
        if nid == uid:
            p = parent[i]
            while p >= 0 and name[p] != uid:
                p = parent[p]
            if p < 0:
                universe += dur[i]
    out["theorems.universe.s"] = universe
    for label, count in header["counts"].items():
        out[f"{label}.calls"] = count
    for label, hits in header["hits"].items():
        out[f"{label}.hit_ratio"] = hits / out[f"{label}.calls"] if out[f"{label}.calls"] else 0.0
    return out


def traced(job: Job, deadline: float) -> tuple[list[Run], dict[str, float]]:
    trace_dir = WORK / "trace"
    trace_dir.mkdir(exist_ok=True)
    run_id = f"{job.name}-seed{job.seed}-{os.getpid()}"
    prefix = trace_dir / run_id
    serial = job.serial_args()
    cmd = [sys.executable, str(BENCH / "tracer.py"), str(prefix), run_id, "--", *serial]
    runs = [timed_run(job, cmd, deadline, "traced")]
    pool = None
    if serial != job.args:
        pool = timed_run(job, _zfpd_cmd(job.args), deadline, "pool")
        runs.append(pool)
    # The untraced run of the traced command; on a pool workload it is skipped
    # when it could not end before the deadline, and the pool run stands in.
    if pool is None or time.monotonic() + 1.5 * runs[0].wall_s < deadline:
        runs.append(timed_run(job, _zfpd_cmd(serial), deadline, "serial"))
    else:
        print("note: no time left for the serial untraced run; trace.overhead_s compares with the pool run")
    pool_wall = (pool or runs[-1]).wall_s
    try:
        got = layer_metrics(*read_spans(prefix))
    except (OSError, ValueError, EOFError) as exc:
        runs[0].problem = runs[0].problem or f"no spans: {exc}"
        got = {"theorems.universe.s": 0.0}
    tids = sum(got.get(f"theorems.{t}.s", 0.0) for t in THEOREMS)
    got["theorems.check.s"] = tids - got["theorems.universe.s"]
    got["cli.pool.efficiency"] = tids / (job.spec.workers * pool_wall)
    got["trace.overhead_s"] = runs[0].wall_s - runs[-1].wall_s
    return runs, {k: got.get(k, 0) for k in PER_LAYER}


# ---------------------------------------------------------------------------


def environment(job: Job) -> dict:
    sha = None
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            sha = None
    return {
        "workload": job.name, "seed": job.seed, "git_sha": sha,
        "python": platform.python_version(), "nproc": os.cpu_count(), "workers": job.spec.workers,
    }


def record(job: Job, deadline: float) -> int:
    out = WORK / f"{job.name}.record.out"
    code, *_ = spawn(_zfpd_cmd(job.args), out, deadline - time.monotonic())
    job.reference = None
    problem = job.problem(code, out)
    if problem:
        print(f"error: not recording: {problem}", file=sys.stderr)
        return 1
    ref = _reference_path(job.name, job.seed)
    ref.write_bytes(_normalize(out.read_bytes()))
    print(f"recorded {ref}")
    return 0


def bench(name: str, seed: int, seconds: float, trace: int) -> dict:
    """Run one workload, print its report and return its result object."""
    deadline = time.monotonic() + DEADLINE_S
    job = Job(name, seed)
    if job.reference is None and not job.spec.seeded:
        raise BenchError(f"missing reference {_reference_path(job.name, job.seed)}")
    if trace:
        runs, metrics = traced(job, deadline)
        units = PER_LAYER
    else:
        setup = setup_times(SETUP_PROBES // 2)
        runs = []
        stop = time.monotonic() + seconds
        # Start another run only while it can finish well before the deadline.
        while not runs or (time.monotonic() < stop and time.monotonic() + 2 * runs[-1].wall_s < deadline):
            runs.append(timed_run(job, _zfpd_cmd(job.args), deadline, "run"))
        setup += setup_times(SETUP_PROBES - len(setup))
        metrics = {
            "wall_s": at_reference_speed((r.wall_s, r.gauge_s) for r in runs),
            "cpu_s": at_reference_speed((r.cpu_s, r.gauge_s) for r in runs),
            "peak_rss_mb": statistics.median(r.peak_rss_mb for r in runs),
            "setup_s": at_reference_speed(setup),
        }
        units = END_TO_END
        print("times below are at reference speed; as measured, medians: " + " ".join([
            f"wall_s={statistics.median(r.wall_s for r in runs):.6g}",
            f"cpu_s={statistics.median(r.cpu_s for r in runs):.6g}",
            f"setup_s={statistics.median(w for w, _ in setup):.6g}",
            f"gauge_s={statistics.median(g for _, g in setup + [(0, r.gauge_s) for r in runs]):.6g}",
            f"(reference {GAUGE_REF_S})",
        ]))
    failed = [r.problem for r in runs if r.problem]
    env = environment(job)
    with open(WORK / "runs.jsonl", "a", encoding="ascii") as fh:
        fh.write(json.dumps({**env, "trace": trace, "runs": len(runs), "failed": len(failed)}) + "\n")
    print("environment: " + " ".join(f"{k}={v}" for k, v in env.items()))
    for problem in failed:
        print(f"failed run: {problem}")
    for key, value in metrics.items():
        print(f"{key} = {value:.6g} {units[key]}")
    print(f"error_rate = {len(failed) / len(runs):.6g} ({len(failed)} of {len(runs)} runs)")
    return {
        "correct": not failed,
        "attempted": len(runs),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true")
    args = parser.parse_args(argv)
    # Turn a termination request into SystemExit, so the running zfpd process
    # group is killed and reaped on the way out.
    signal.signal(signal.SIGTERM, lambda signum, _frame: sys.exit(128 + signum))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        WORK.mkdir(parents=True, exist_ok=True)
        preflight()
        if args.record:
            return max(record(Job(name, args.seed), time.monotonic() + DEADLINE_S) for name in names)
        results = {}
        for name in names:
            print(f"== {name}")
            results[name] = bench(name, args.seed, args.seconds, args.trace)
            print(json.dumps(results[name]))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if len(results) > 1:
        # One summary line for --workload all, metrics prefixed by workload.
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": v for n, r in results.items() for k, v in r["metrics"].items()},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
