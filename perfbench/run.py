"""infwidth benchmark: end-to-end and per-layer metrics of the CLI workloads.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload verify-sweep --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --self-check [--workload limit-deep] [--seed 0]

With ``--trace 0`` it reports ``setup_s`` (median of several cold starts),
``wall_s`` (median time of one pass over the command list) and
``peak_rss_mb`` (largest over the pass processes), and prints
``failed_frac``.  With ``--trace 1`` it reports the per-layer metrics of a
traced replay (see ``replay.py``).  Every pass runs in a fresh
``python3 perfbench/worker.py`` process that imports ``infwidth`` from this
checkout's ``src``; this process only starts them and imports nothing else.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  See README.md.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
WORKLOADS = ("verify-sweep", "limit-deep", "trace-spectra")
SETUP_SAMPLES = 8  # set-up-only starts, besides the start of each pass process
DEADLINE_S = 170.0  # the whole run, set-up starts included



def _units(kind: str) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


class BenchError(Exception):
    pass


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    # one process, BLAS pool no larger than the CPUs this process may use
    threads = str(len(os.sched_getaffinity(0)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    return env


def _start(mode: str, workload: str, seed: int, deadline: float,
           trace_file: str | None = None) -> tuple[float, dict]:
    """Start a worker; return (seconds until it was ready, its result)."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--mode", mode,
           "--workload", workload, "--seed", str(seed), "--root", ROOT]
    if trace_file:
        cmd += ["--trace-file", trace_file]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=_child_env(), cwd=ROOT)
    killer = threading.Timer(max(0.0, deadline - time.monotonic()), proc.kill)
    killer.start()
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - t0
        rest = proc.stdout.read()
        rc = proc.wait()
    finally:
        killer.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if ready.strip() != "ready" or rc != 0:
        raise BenchError(f"worker {mode} {workload} failed (exit {rc})")
    if mode == "setup":
        return setup_s, {}
    lines = rest.strip().splitlines()
    if not lines:
        raise BenchError(f"worker {mode} {workload} printed no result")
    return setup_s, json.loads(lines[-1])


def _git_sha() -> str:
    # --git-dir so that a checkout that is not a repository reads "unknown"
    try:
        return subprocess.run(["git", "--git-dir", os.path.join(ROOT, ".git"), "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def _caches() -> dict[str, str]:
    out = {}
    for d in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        try:
            with open(os.path.join(d, "level")) as fh:
                level = fh.read().strip()
            with open(os.path.join(d, "type")) as fh:
                kind = fh.read().strip()
            with open(os.path.join(d, "size")) as fh:
                out[f"L{level} {kind}"] = fh.read().strip()
        except OSError:
            continue
    return out


def environment(versions: dict) -> dict:
    env = _child_env()
    return {
        "git_sha": _git_sha(),
        **versions,
        "blas_threads": env["OPENBLAS_NUM_THREADS"],
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "caches": _caches(),
    }


def _emit(correct: bool, attempted: int, failed: int, metrics: dict, units: dict) -> None:
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }))


class Tally:
    """Commands attempted and failed over the passes of one run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.first: dict[str, str] = {}  # label -> digest of its first output

    def add(self, res: dict, reference: dict | None = None) -> None:
        """Count one pass; a traced pass must match its untraced reference."""
        for i, c in enumerate(res["commands"]):
            problems = list(c["problems"])
            if self.first.setdefault(c["label"], c["digest"]) != c["digest"]:
                problems.append("output differs from the first pass")
            if reference is not None and reference["commands"][i]["digest"] != c["digest"]:
                problems.append("traced replay output differs from the untraced run")
            self.attempted += 1
            if problems:
                self.failed += 1
                self.problems += [f"{c['label']}: {p}" for p in problems]


def _report(workload: str, seed: int, runs: list[dict], tally: Tally, traced: int) -> None:
    env = environment(runs[0]["versions"])
    with open(os.path.join(OUT, "env.json"), "w") as fh:
        json.dump(env, fh, indent=1)
    print(f"env {json.dumps(env)}")
    for p in runs[0]["programs"]:
        print(f"program {p['name']}: depth {p['depth']}, affine share {p['affine_share']:.3f}")
    for problem in tally.problems[:20]:
        print(f"problem {problem}")
    stats = sum(c["verify"][0] for c in runs[0]["commands"])
    fails = [f"{c['label']} {stat}" for c in runs[0]["commands"] for stat in c["verify"][1]]
    print(f"{workload} seed {seed}: {len(runs[0]['commands'])} commands, "
          f"{len(runs)} untraced passes, {traced} traced passes")
    print(f"  verify verdicts: {len(fails)} FAIL of {stats}" + "".join(f"; FAIL {f}" for f in fails))
    print(f"  failed_frac {tally.failed / tally.attempted:g} ratio "
          f"({tally.failed} of {tally.attempted} commands)")


def bench(workload: str, seed: int, seconds: float, trace: bool) -> int:
    deadline = time.monotonic() + DEADLINE_S
    os.makedirs(OUT, exist_ok=True)
    trace_file = os.path.join(OUT, f"spans-{workload}-seed{seed}.jsonl")
    if trace and os.path.exists(trace_file):
        os.remove(trace_file)
    setups = [] if trace else [_start("setup", workload, seed, deadline)[0]
                               for _ in range(SETUP_SAMPLES)]
    tally = Tally()
    runs, traces = [], []
    t0 = time.monotonic()
    # each pass in a fresh process: every pass pays the cold start a CLI user pays
    while not runs or time.monotonic() - t0 < seconds:
        setup_s, res = _start("run", workload, seed, deadline)
        setups.append(setup_s)
        runs.append(res)
        tally.add(res)
        if trace:
            tres = _start("trace", workload, seed, deadline, trace_file)[1]
            traces.append(tres)
            tally.add(tres, reference=res)
    _report(workload, seed, runs, tally, len(traces))
    correct = tally.failed == 0
    walls = [r["wall"] for r in runs]
    if trace:
        # means, not medians, so that the layer times still sum to the wall
        layers = {k: statistics.fmean(t["layers"][k] for t in traces)
                  for k in traces[0]["layers"]}
        cmds = runs[0]["commands"]
        layers["cli.verify_stats"] = sum(c["verify"][0] for c in cmds)
        layers["cli.verify_fail_stats"] = sum(len(c["verify"][1]) for c in cmds)
        layers["bench.trace_overhead_frac"] = (
            statistics.fmean(t["wall"] for t in traces) / statistics.fmean(walls) - 1.0)
        units = _units("per_layer")
        for k, unit in units.items():
            print(f"  {k:36s} {layers[k]:.6g} {unit}")
        print(f"  spans written to {os.path.relpath(trace_file, ROOT)}")
        _emit(correct, tally.attempted, tally.failed, layers, units)
        return 0
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(walls),
        "peak_rss_mb": max(r["peak_rss_mb"] for r in runs),
    }
    print(f"  setup_s     {metrics['setup_s']:.4f} s (median of {len(setups)} starts)")
    print(f"  wall_s      {metrics['wall_s']:.4f} s (median of {len(walls)} passes: "
          + ", ".join(f"{w:.3f}" for w in walls) + ")")
    print(f"  peak_rss_mb {metrics['peak_rss_mb']:.1f} MB (largest of {len(runs)} passes)")
    _emit(correct, tally.attempted, tally.failed, metrics, _units("end_to_end"))
    return 0


def self_check(names: list[str], seed: int) -> int:
    """--workers 1 vs 2 bytes on one command, and one traced against one untraced pass."""
    ok = True
    for workload in names:
        deadline = time.monotonic() + DEADLINE_S
        tally = Tally()
        tally.problems += _start("selfcheck", workload, seed, deadline)[1]["problems"]
        res = _start("run", workload, seed, deadline)[1]
        tally.add(res)
        trace_file = os.path.join(OUT, f"spans-selfcheck-{workload}.jsonl")
        if os.path.exists(trace_file):
            os.remove(trace_file)
        tres = _start("trace", workload, seed, deadline, trace_file)[1]
        tally.add(tres, reference=res)
        overhead = tres["wall"] / res["wall"] - 1.0
        ok = ok and not tally.problems
        print(f"self-check {workload}: {'FAILED' if tally.problems else 'ok'} "
              f"(workers 1 vs 2, traced replay vs untraced CSV); "
              f"bench.trace_overhead_frac {overhead:.4f}")
        for problem in tally.problems:
            print(f"  problem {problem}")
    return 0 if ok else 1


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-check", action="store_true",
                    help="check --workers 1 vs 2 bytes and the traced replay")
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "infwidth", "cli.py")):
        print(f"no infwidth sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    try:
        if args.self_check:
            return self_check([args.workload] if args.workload else list(WORKLOADS), args.seed)
        if args.workload is None:
            ap.error("--workload is required")
        return bench(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
