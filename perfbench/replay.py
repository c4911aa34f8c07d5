"""Traced replay of the ``infwidth`` CLI commands.

Each ``_replay_<command>`` mirrors ``infwidth.cli.cmd_<command>``: it calls
the same library functions with the same arguments in the same order, and
wraps each call into a layer (``dsl``, ``finite``, ``limits``, ``freeness``)
in a span.  What is not inside a layer span is CLI work (``cli.other_s``).
The replay writes its CSV with the CLI's own writer, so its bytes can be
compared with an untraced run of the same command.  It needs
``--workers 1``, the only setting the benchmark uses, because the CLI's
thread pool would interleave the spans of different cells.
"""

from __future__ import annotations

import inspect
import math
import sys
import time
from contextlib import contextmanager

import numpy as np

from infwidth import cli, corpus, dsl, freeness
from infwidth.finite import MatFactor, dims_for_scale, empirical_average, instantiate, word_classes
from infwidth.freeness import (
    ACTIVATIONS,
    FREENESS_EXACT_CAP,
    FREENESS_PROBES,
    centered_trace,
    fip_witness_program,
    jacobian_finite,
    jacobian_limit_moments,
)
from infwidth.limits import build_replicated
from infwidth.program import MatMul, Moment

LAYERS = ("dsl", "finite", "limits", "freeness")
JACOBIAN_DENSE_CAP = inspect.signature(jacobian_finite).parameters["cap"].default


class Tracer:
    """Spans kept in memory: id, parent id, name, start, end and counts."""

    def __init__(self):
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, **counts):
        rec = {"id": len(self.spans), "parent": self._open[-1] if self._open else None,
               "name": name, **counts}
        self.spans.append(rec)
        self._open.append(rec["id"])
        rec["start"] = time.perf_counter()
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._open.pop()

    def call(self, name: str, fn, *args, **kwargs):
        with self.span(name):
            return fn(*args, **kwargs)


def run(tr: Tracer, argv: list[str]) -> int:
    """Replay of ``cli.run``: same parsing, same error row and exit codes."""
    args = cli.build_parser().parse_args(argv)
    try:
        if getattr(args, "workers", 1) != 1:
            raise ValueError("the traced replay runs with --workers 1 only")
        with tr.span(f"cli.{args.command}"):
            return _REPLAY[args.command](tr, args)
    except Exception as exc:  # mirrors cli.run: errors become CSV + exit 2
        cli._write_csv(getattr(args, "out", None), ("error", "kind", "message"),
                       [("error", type(exc).__name__, str(exc))])
        return 2


# ---------------------------------------------------------------------------
# Layer calls
# ---------------------------------------------------------------------------


def _resolve_program(tr: Tracer, spec: str):
    if spec.startswith("@"):
        return spec[1:], tr.call("dsl.parse", corpus.load_program, spec[1:])
    with open(spec) as fh:
        text = fh.read()
    return spec, tr.call("dsl.parse", dsl.parse_program, text)


def _resolve_word(tr: Tracer, spec: str):
    if not spec.startswith("@"):
        raise ValueError("the replay reads bundled words only")
    return tr.call("dsl.parse", corpus.load_word, spec[1:])


def _instantiate(tr: Tracer, program, dims, seed):
    with tr.span("finite.instantiate") as rec:
        r = instantiate(program, dims, seed)
    rec["entries"] = sum(m.size for m in r.matrices.values())
    return r


def _build(tr: Tracer, program, n_samples, seed, replicas):
    with tr.span("limits.build", replicas=replicas) as rec:
        state = build_replicated(program, n_samples=n_samples, seed=seed, replicas=replicas)
    states = state.states
    rec["matmuls"] = len(states) * sum(isinstance(i, MatMul) for i in program.instructions)
    # each matmul's correction solves over its opposite family's inputs
    rec["correction_pairs"] = sum(len(info[0]) for st in states
                                  for info in st.correction_info.values())
    rec["sample_cols"] = sum(len(st.cols) + len(st.gauss_cols) for st in states)
    rec["degenerate_gvar"] = sum(d.startswith("DegenerateGVar") for d in state.diagnostics())
    return state


def _query(tr: Tracer, fn, *args):
    return tr.call("limits.query", fn, *args)


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def _replay_limit(tr: Tracer, args) -> int:
    name, program = _resolve_program(tr, args.program)
    tests = cli._parse_tests(program, name, args.test)
    state = _build(tr, program, args.ensemble, args.seed, args.replicas)
    rows = []
    for nm in program.scalar_names:
        val, se = _query(tr, state.scalar_limit, nm)
        rows.append((nm, "scalar_limit", val, se))
    # the property recomputes every replica's coefficients on each access
    for gvar in sorted(_query(tr, getattr, state, "correction_info")):
        ys, coeffs, ses = _query(tr, getattr, state, "correction_info")[gvar]
        for y, a, se in zip(ys, coeffs, ses):
            rows.append((f"zdot:{gvar}:{y}", "zdot_coeff", float(a), float(se)))
    for label, expr, vecs in tests:
        val, se = _query(tr, state.expect, expr, vecs)
        rows.append((f"avg:{label}", "expectation", val, se))
    rows.sort(key=lambda r: (r[1], r[0]))
    cli._write_csv(args.out, ("object", "kind", "value", "stderr"), rows)
    return 0


def _replay_verify(tr: Tracer, args) -> int:
    name, program = _resolve_program(tr, args.program)
    tests = cli._parse_tests(program, name, args.test)
    sizes = cli._parse_int_list(args.n)
    if sizes != sorted(sizes):
        raise ValueError("size sweep must be ascending")
    seeds = cli._seed_list(args)
    state = _build(tr, program, args.ensemble, args.seed, args.replicas)
    rows, all_pass = _consistency_table(tr, program, tests, sizes, seeds, state, args.tol)
    cli._write_csv(args.out, ("stat", "n", "empirical", "limit", "gap", "stderr", "verdict"), rows)
    return 0 if all_pass else 1


def _consistency_table(tr: Tracer, program, tests, sizes, seeds, state, tol):
    """cli.consistency_table with workers=1, its layer calls in spans."""
    per_cell = []
    for n, seed in [(n, s) for n in sizes for s in seeds]:
        r = _instantiate(tr, program, dims_for_scale(program, n), seed)
        vals = {}
        for label, expr, vecs in tests:
            vals[f"avg:{label}"] = tr.call("finite.empirical_average", empirical_average,
                                           r, expr, vecs)
        for ins in program.instructions:
            if isinstance(ins, Moment):
                vals[f"scalar:{ins.out}"] = r.scalars[ins.out]
        per_cell.append((n, vals))
        del r

    limit_of = {}
    for label, expr, vecs in tests:
        limit_of[f"avg:{label}"] = _query(tr, state.expect, expr, vecs)
    for ins in program.instructions:
        if isinstance(ins, Moment):
            limit_of[f"scalar:{ins.out}"] = _query(tr, state.scalar_limit, ins.out)

    rows = []
    all_pass = True
    for stat in sorted(limit_of):
        lim, lim_se = limit_of[stat]
        scale = max(1.0, abs(lim))
        gaps = {}
        for n in sizes:
            samples = [vals[stat] for (m, vals) in per_cell if m == n]
            emp = float(np.mean(samples))
            emp_se = (
                float(np.std(samples, ddof=1) / math.sqrt(len(samples)))
                if len(samples) > 1
                else 0.0
            )
            gaps[n] = (emp, abs(emp - lim) / scale, math.hypot(emp_se, lim_se) / scale)
        n0, n1 = sizes[0], sizes[-1]
        ok = cli.sweep_passes(gaps[n0][1], gaps[n1][1], gaps[n1][2], n0, n1, tol)
        all_pass = all_pass and ok
        for n in sizes:
            emp, gap, se = gaps[n]
            verdict = ("pass" if ok else "FAIL") if n == n1 else ""
            rows.append((stat, n, emp, lim, gap, se, verdict))
    rows.sort(key=lambda r: (r[0], r[1]))
    return rows, all_pass


def _replay_free(tr: Tracer, args) -> int:
    _, program = _resolve_program(tr, args.program)
    word = _resolve_word(tr, args.word)
    sizes = cli._parse_int_list(args.n)
    seeds = cli._seed_list(args)
    method = cli._parse_method(args.method)
    if isinstance(method, tuple):
        report = _freeness_sweep(tr, program, word, sizes, seeds, method=method[0],
                                 probes=method[1])
    else:
        report = _freeness_sweep(tr, program, word, sizes, seeds, method=method)
    cli._write_csv(args.out, ("n", "seed_count", "median_abs", "mean_abs", "std"),
                   [tuple(r) for r in report.rows])
    print(f"decay_slope {report.slope!r}", file=sys.stderr)
    if args.witness:
        witness = tr.call("freeness.fip_witness_program", fip_witness_program, program, word)
        state = _build(tr, witness.program, args.ensemble, args.seed, args.replicas)
        val, se = _query(tr, state.scalar_limit, witness.final_scalar)
        print(f"witness_limit {val!r} stderr {se!r}", file=sys.stderr)
    return 0


def _freeness_sweep(tr: Tracer, program, word, n_list, seeds, method="auto",
                    cap=FREENESS_EXACT_CAP, probes=FREENESS_PROBES):
    """freeness.freeness_sweep, its layer calls in spans."""
    if sorted(n_list) != list(n_list):
        raise ValueError("n_list must be ascending")
    side = word_classes(program, word.factors[0][1].terms[0][1])[0]
    # the probe path applies every monomial once for its centering constant
    # and once in the centered product, each to a block of `probes` columns
    mat_factors = sum(isinstance(f, MatFactor) for _, poly in word.factors
                      for _, w in poly.terms for f in w.factors)
    rows = []
    medians = []
    for n in n_list:
        vals = []
        for seed in seeds:
            r = _instantiate(tr, program, dims_for_scale(program, n), seed)
            exact = method == "exact" or (method == "auto" and r.dims[side] <= cap)
            with tr.span("freeness.centered_trace", exact=int(exact),
                         probe_matvecs=0 if exact else 2 * probes * mat_factors):
                vals.append(abs(centered_trace(r, word, method=method, cap=cap, probes=probes)))
        vals_arr = np.array(vals)
        med = float(np.median(vals_arr))
        rows.append((n, len(seeds), med, float(vals_arr.mean()), float(vals_arr.std())))
        medians.append(med)
    return freeness.FreenessReport(tuple(rows), freeness._loglog_slope(n_list, medians))


def _replay_jacobian(tr: Tracer, args) -> int:
    if args.phi not in ACTIVATIONS:
        raise ValueError(f"unknown activation {args.phi!r}; have {sorted(ACTIVATIONS)}")
    phi, phi_prime = ACTIVATIONS[args.phi]
    rho_list = [float(t) for t in args.rho_list.split(",")] if args.rho_list else None
    lim = tr.call("freeness.jacobian_limit_moments", jacobian_limit_moments,
                  args.layers, phi, phi_prime, args.q1, args.kmax, rho_list)
    seeds = cli._seed_list(args)
    dense = args.size <= JACOBIAN_DENSE_CAP
    # the probe path applies J^T J (2 matrices per layer) k_max times
    matvecs = 0 if dense else args.kmax * FREENESS_PROBES * 2 * (args.layers - 1)
    cells = []
    for seed in seeds:
        with tr.span("freeness.jacobian_finite", svd=int(dense), probe_matvecs=matvecs):
            cells.append(jacobian_finite(args.layers, args.size, phi, phi_prime,
                                         args.q1, seed, args.kmax))
    emp = np.mean(cells, axis=0)
    rows = []
    for k in range(1, args.kmax + 1):
        e, l = float(emp[k - 1]), float(lim[k - 1])
        rows.append((k, e, l, abs(e - l) / max(1.0, abs(l))))
    cli._write_csv(args.out, ("k", "empirical", "limit", "rel_gap"), rows)
    return 0


_REPLAY = {
    "limit": _replay_limit,
    "verify": _replay_verify,
    "free": _replay_free,
    "jacobian": _replay_jacobian,
}


# ---------------------------------------------------------------------------
# Per-layer metrics of one traced pass
# ---------------------------------------------------------------------------


def layer_metrics(spans: list[dict], wall: float) -> dict[str, float]:
    """Layer times and work counts of the spans of one pass lasting ``wall`` s."""
    def pick(name, **where):
        return [s for s in spans if s["name"] == name
                and all(s.get(k) == v for k, v in where.items())]

    def secs(name, **where):
        return math.fsum(s["end"] - s["start"] for s in pick(name, **where))

    def count(name, key, **where):
        return sum(s[key] for s in pick(name, **where))

    inst = pick("finite.instantiate")
    entries = sum(s["entries"] for s in inst)
    inst_s = secs("finite.instantiate")
    traces = pick("freeness.centered_trace")
    layer_names = {s["name"] for s in spans if s["name"].split(".")[0] in LAYERS}
    return {
        "finite.instantiate_s": inst_s,
        "finite.instantiate_calls": len(inst),
        "finite.sample_rate_mentries_per_s": entries / inst_s / 1e6 if inst_s > 0 else 0.0,
        "finite.matrix_entries": entries,
        "finite.dense_mb": max((s["entries"] for s in inst), default=0) * 8 / 1e6,
        "finite.empirical_average_s": secs("finite.empirical_average"),
        "limits.build_s": secs("limits.build"),
        "limits.build_s.r1": secs("limits.build", replicas=1),
        "limits.build_s.r8": secs("limits.build", replicas=8),
        "limits.matmuls": count("limits.build", "matmuls"),
        "limits.correction_pairs": count("limits.build", "correction_pairs"),
        "limits.sample_cols": count("limits.build", "sample_cols"),
        "limits.query_s": secs("limits.query"),
        "limits.degenerate_gvar": count("limits.build", "degenerate_gvar"),
        "freeness.centered_trace_s": secs("freeness.centered_trace"),
        "freeness.exact_traces": sum(s["exact"] for s in traces),
        "freeness.probe_traces": sum(1 - s["exact"] for s in traces),
        "freeness.probe_matvecs": (count("freeness.centered_trace", "probe_matvecs")
                                   + count("freeness.jacobian_finite", "probe_matvecs")),
        "freeness.fip_witness_program_s": secs("freeness.fip_witness_program"),
        "freeness.jacobian_finite_s": secs("freeness.jacobian_finite"),
        "freeness.svd_calls": count("freeness.jacobian_finite", "svd"),
        "freeness.jacobian_limit_moments_s": secs("freeness.jacobian_limit_moments"),
        "dsl.parse_s": secs("dsl.parse"),
        "cli.other_s": wall - math.fsum(secs(name) for name in layer_names),
        "bench.traced_wall_s": wall,
    }

