"""One benchmark process: set up a workload, then make one pass over it.

Started by ``run.py`` in a fresh interpreter with the checkout's ``src`` on
``PYTHONPATH``, so every pass pays the cold start a CLI user pays.  It
prints ``ready`` once imports and program set-up are done, and one JSON
result line when it ends.

Modes:
  setup      set up and exit (a set-up time sample)
  run        one untraced pass over the commands through ``infwidth.cli.run``
  trace      one traced pass through the replay in ``replay.py``; its spans
             are appended to ``--trace-file``
  selfcheck  one command with --workers 1 and with --workers 2
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import sys
import tempfile
import time

import numpy
import scipy

import infwidth
from infwidth import cli

import checks
import replay
import workloads

# command whose --workers 1 and --workers 2 outputs the self-check compares
SELF_CHECK_COMMAND = {"verify-sweep": 0, "limit-deep": 0, "trace-spectra": 3}


def run_pass(cmds, work: str, runner) -> tuple[float, list[tuple[int, str, str]]]:
    """Wall time of one pass and each command's (exit code, CSV, stderr)."""
    paths = [os.path.join(work, f"cmd{i}.csv") for i in range(len(cmds))]
    codes, errs = [], []
    t0 = time.perf_counter()
    for cmd, path in zip(cmds, paths):
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            codes.append(runner([*cmd.argv, "--out", path]))
        errs.append(err.getvalue())
    wall = time.perf_counter() - t0
    outputs = []
    for rc, path, err in zip(codes, paths, errs):
        with open(path) as fh:
            outputs.append((rc, fh.read(), err))
        os.remove(path)
    return wall, outputs


def _digest(text: str, err: str) -> str:
    return hashlib.sha256(f"{text}\0{err}".encode()).hexdigest()


def _self_check(cmd, work: str) -> list[str]:
    outs = []
    for workers in ("1", "2"):
        argv = list(cmd.argv)
        argv[argv.index("--workers") + 1] = workers
        outs.append(run_pass([workloads.Command(cmd.label, tuple(argv))], work, cli.run)[1][0])
    if outs[0] != outs[1]:
        return [f"{cmd.label}: --workers 1 and --workers 2 outputs differ"]
    return []


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--mode", choices=("setup", "run", "trace", "selfcheck"), required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--root", required=True)
    ap.add_argument("--trace-file", default=None)
    args = ap.parse_args()

    src = os.path.join(os.path.abspath(args.root), "src", "infwidth")
    if os.path.dirname(os.path.abspath(infwidth.__file__)) != src:
        print(f"infwidth imported from {infwidth.__file__}, not from {src}", file=sys.stderr)
        return 2

    out_dir = os.path.join(args.root, "perfbench", "out")
    os.makedirs(out_dir, exist_ok=True)
    result = {}
    with tempfile.TemporaryDirectory(dir=out_dir) as work:
        cmds, programs = workloads.prepare(args.workload, args.seed, work)
        print("ready", flush=True)
        if args.mode == "setup":
            return 0
        if args.mode == "selfcheck":
            print(json.dumps({"problems": _self_check(cmds[SELF_CHECK_COMMAND[args.workload]],
                                                      work)}))
            return 0
        if args.mode == "trace":
            tracer = replay.Tracer()
            with tracer.span("bench.pass"):
                wall, outputs = run_pass(cmds, work, lambda argv: replay.run(tracer, argv))
            result["layers"] = replay.layer_metrics(tracer.spans, wall)
            with open(args.trace_file, "a") as fh:
                for span in tracer.spans:
                    fh.write(json.dumps({"process": os.getpid(), **span}) + "\n")
        else:
            wall, outputs = run_pass(cmds, work, cli.run)

    texts = {cmd.label: text for cmd, (_, text, _) in zip(cmds, outputs)}
    commands = []
    for cmd, (rc, text, err) in zip(cmds, outputs):
        commands.append({
            "label": cmd.label,
            "digest": _digest(text, err),
            "problems": checks.check(cmd, rc, text, err, texts.get(cmd.stderr_from)),
            "verify": checks.verify_verdicts(text) if cmd.argv[0] == "verify" else [0, []],
        })
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    result.update({
        "wall": wall,
        "commands": commands,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "programs": programs,
        "versions": {"python": sys.version.split()[0], "numpy": numpy.__version__,
                     "scipy": scipy.__version__,
                     "blas": f"{blas.get('name')} {blas.get('version')}",
                     "blas_config": blas.get("openblas configuration", "")},
    })
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
