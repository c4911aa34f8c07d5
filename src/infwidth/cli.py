"""Command-line interface: deterministic CSV experiments over programs.

Commands
--------
sim       finite-size statistics (moment scalars and coordinate averages)
limit     limit report: scalar limits, correction coefficients, expectations
verify    consistency sweep: empirical averages against limit expectations
law       closed-form law tables and densities
free      centered alternating-word traces over a size sweep
jacobian  finite-size Jacobian moments against the free-convolution limit
canon     parse a program and print its canonical form

Programs are given as file paths or as ``@name`` for a bundled example.
Identical configurations produce byte-identical CSV output regardless of
the worker-thread count: cells are computed independently and rows are
sorted before writing.
"""

from __future__ import annotations

import argparse
import csv
import io
import math
import sys

import numpy as np

from . import corpus, dsl, exprs, laws
from .finite import dims_for_scale, empirical_average, instantiate, map_threads
from .freeness import (
    ACTIVATIONS,
    FREENESS_PROBES,
    JACOBIAN_KMAX,
    fip_witness_program,
    freeness_sweep,
    jacobian_finite,
    jacobian_limit_moments,
)
from .limits import DEFAULT_SAMPLES, build_replicated
from .program import Moment, Program


def _write_csv(path: str | None, header: tuple[str, ...], rows: list[tuple]) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([repr(c) if isinstance(c, float) else str(c) for c in row])
    text = buf.getvalue()
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _resolve_program(spec: str) -> tuple[str, Program]:
    if spec.startswith("@"):
        name = spec[1:]
        return name, corpus.load_program(name)
    with open(spec) as fh:
        text = fh.read()
    return spec, dsl.parse_program(text)


def _resolve_word(spec: str):
    if spec.startswith("@"):
        return corpus.load_word(spec[1:])
    with open(spec) as fh:
        word = dsl.parse_word(fh.read())
    if not word.factors:  # the empty product would trace to 1 at every size
        raise ValueError(f"word file {spec!r} holds no factors")
    return word


def _parse_int_list(text: str) -> list[int]:
    vals = [int(t) for t in text.split(",") if t]
    if not vals or any(v < 1 for v in vals):
        raise ValueError("sizes must be positive integers")
    repeated = sorted({v for v in vals if vals.count(v) > 1})
    if repeated:  # each cell of a repeated size would be counted once per copy
        raise ValueError(f"sizes must be distinct; repeated: {','.join(map(str, repeated))}")
    return vals


def _parse_method(text: str) -> tuple[str, int]:
    """(method, probes) of a --method value: auto, exact, hutch or hutch:p."""
    if text in ("auto", "exact", "hutch"):
        return text, FREENESS_PROBES
    probes = text.removeprefix("hutch:")
    if probes != text and probes.isdecimal():
        return "hutch", int(probes)
    raise ValueError(f"unknown method {text!r}; use auto, exact, hutch or hutch:p")


def _parse_tests(program: Program, name: str, test_flags: list[str]):
    """Test pairs: explicit --test 'expr:v1,v2' flags, else bundled defaults."""
    tests: list[tuple[str, exprs.Expr, list[str]]] = []
    source = test_flags or [
        f"{expr}:{','.join(vecs)}" for expr, vecs in corpus.VERIFY_TESTS.get(name, [])
    ]
    for flag in source:
        expr_text, _, vec_text = flag.rpartition(":")
        if not expr_text:
            raise ValueError(f"test flag {flag!r} is not of the form EXPR:V1,V2")
        vecs = [v.strip() for v in vec_text.split(",")]
        tests.append((flag, exprs.parse_expr(expr_text), vecs))
    return tests


def _sweep_tests(program: Program, name: str, test_flags: list[str]):
    """_parse_tests for sim and verify, whose rows are moment scalars and test averages."""
    tests = _parse_tests(program, name, test_flags)
    if not tests and not any(isinstance(ins, Moment) for ins in program.instructions):
        raise ValueError(f"program {name!r} has no moment scalar to verify: give a --test")
    return tests


def _seed_list(args) -> list[int]:
    if args.seeds < 1:
        raise ValueError("--seeds must be >= 1")
    if getattr(args, "workers", 1) < 1:
        raise ValueError("--workers must be >= 1")
    return [args.seed + i for i in range(args.seeds)]


def _cell_stats(program: Program, tests, n: int, seed: int) -> list[tuple[str, float]]:
    """(stat, value) of every moment scalar and test average of one finite cell."""
    r = instantiate(program, dims_for_scale(program, n), seed)
    out = [(f"scalar:{ins.out}", r.scalars[ins.out])
           for ins in program.instructions if isinstance(ins, Moment)]
    out += [(f"avg:{label}", empirical_average(r, expr, vecs)) for label, expr, vecs in tests]
    return out


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_sim(args) -> int:
    name, program = _resolve_program(args.program)
    tests = _sweep_tests(program, name, args.test)
    sizes = _parse_int_list(args.n)
    seeds = _seed_list(args)
    cells = [(n, s) for n in sizes for s in seeds]

    def run_cell(cell):
        n, seed = cell
        return [(stat, n, seed, val, 0.0) for stat, val in _cell_stats(program, tests, n, seed)]

    rows = [row for chunk in map_threads(run_cell, cells, args.workers) for row in chunk]
    rows.sort(key=lambda r: (r[0], r[1], r[2]))
    _write_csv(args.out, ("stat", "n", "seed", "value", "stderr"), rows)
    return 0


def _limit_rows(program: Program, state, tests):
    rows = []
    for nm in program.scalar_names:
        val, se = state.scalar_limit(nm)
        rows.append((nm, "scalar_limit", val, se))
    for gvar, (ys, coeffs, ses) in sorted(state.correction_info.items()):
        for y, a, se in zip(ys, coeffs, ses):
            rows.append((f"zdot:{gvar}:{y}", "zdot_coeff", float(a), float(se)))
    for label, expr, vecs in tests:
        val, se = state.expect(expr, vecs)
        rows.append((f"avg:{label}", "expectation", val, se))
    rows.sort(key=lambda r: (r[1], r[0]))
    return rows


def _limit_state(program: Program, args, tests):
    """The limit of a program under --ensemble, --seed and --replicas, which
    answers the expectations of `tests` (label, expr, vectors) and every
    scalar and correction; each replica is reduced to those answers as soon
    as it is built."""
    return build_replicated(program, n_samples=args.ensemble, seed=args.seed,
                            replicas=args.replicas,
                            tests=[(expr, vecs) for _, expr, vecs in tests])


def cmd_limit(args) -> int:
    name, program = _resolve_program(args.program)
    tests = _parse_tests(program, name, args.test)
    state = _limit_state(program, args, tests)
    rows = _limit_rows(program, state, tests)
    if not rows:
        raise ValueError(f"program {name!r} has no scalar or correction to report: give a --test")
    _write_csv(args.out, ("object", "kind", "value", "stderr"), rows)
    return 0


def sweep_passes(gap_first: float, gap_last: float, stderr_last: float,
                 n_first: int, n_last: int, tol: float) -> bool:
    """Consistency verdict for one statistic over an ascending size sweep.

    The terminal gap must have shrunk relative to the first size (up to a
    factor-five allowance at the square-root rate) or be statistically
    indistinguishable from zero, and must sit under the tolerance floor.
    """
    noise = 3.0 * stderr_last
    shrink_ok = gap_last <= max(noise, 5.0 * gap_first * math.sqrt(n_first / n_last))
    tol_ok = gap_last <= max(noise, tol)
    return shrink_ok and tol_ok


def consistency_table(program: Program, tests, sizes: list[int], seeds: list[int],
                      state, workers: int, tol: float):
    """Empirical averages vs limit expectations over a size sweep.

    Returns (rows, all_pass) where each row is (stat, n, empirical, limit,
    scaled gap, scaled stderr, verdict); the verdict is set on the largest
    size.  Gaps are scaled by max(1, |limit|).
    """
    cells = [(n, s) for n in sizes for s in seeds]

    def run_cell(cell):
        return cell[0], dict(_cell_stats(program, tests, *cell))

    per_cell = map_threads(run_cell, cells, workers)

    limit_of: dict[str, tuple[float, float]] = {}
    for label, expr, vecs in tests:
        limit_of[f"avg:{label}"] = state.expect(expr, vecs)
    for ins in program.instructions:
        if isinstance(ins, Moment):
            limit_of[f"scalar:{ins.out}"] = state.scalar_limit(ins.out)

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
        ok = sweep_passes(gaps[n0][1], gaps[n1][1], gaps[n1][2], n0, n1, tol)
        all_pass = all_pass and ok
        for n in sizes:
            emp, gap, se = gaps[n]
            verdict = ("pass" if ok else "FAIL") if n == n1 else ""
            rows.append((stat, n, emp, lim, gap, se, verdict))
    rows.sort(key=lambda r: (r[0], r[1]))
    return rows, all_pass


def cmd_verify(args) -> int:
    if not (math.isfinite(args.tol) and args.tol >= 0):
        raise ValueError(f"verify needs a finite --tol >= 0 (got {args.tol})")
    name, program = _resolve_program(args.program)
    tests = _sweep_tests(program, name, args.test)
    sizes = _parse_int_list(args.n)
    if sizes != sorted(sizes):
        raise ValueError("size sweep must be ascending")
    seeds = _seed_list(args)
    state = _limit_state(program, args, tests)
    rows, all_pass = consistency_table(
        program, tests, sizes, seeds, state, workers=args.workers, tol=args.tol
    )
    _write_csv(args.out, ("stat", "n", "empirical", "limit", "gap", "stderr", "verdict"), rows)
    return 0 if all_pass else 1


def cmd_law(args) -> int:
    if args.law == "mp" and (args.rho is None or args.rho <= 0):
        raise ValueError("mp law needs --rho > 0")
    for flag, value in (("--rho", args.rho), ("--xmin", args.xmin), ("--xmax", args.xmax)):
        if value is not None and not math.isfinite(value):
            raise ValueError(f"law needs a finite {flag} (got {value})")
    if args.density and args.law != "catalan":
        if args.points < 1:
            raise ValueError(f"--points must be >= 1 (got {args.points})")
        xs = np.linspace(args.xmin, args.xmax, args.points)
        rows = [(float(v), laws.law_density(args.law, float(v), args.rho)[0]) for v in xs]
        atom = laws.law_density(args.law, 0.0, args.rho)[1]
        if atom > 0:  # the point mass at zero, which no density row carries
            rows.append(("atom", atom))
        _write_csv(args.out, ("x", "density"), rows)
        return 0
    rmin = 0 if args.law == "catalan" else 1
    if args.rmax < rmin:
        raise ValueError(f"{args.law} law needs --rmax >= {rmin} (got {args.rmax})")
    rows = []
    try:  # a Catalan number beyond the float range raises OverflowError
        if args.law == "semicircle":
            for r in range(1, args.rmax + 1):
                rows.append(("semicircle", "", r, laws.semicircle_moment(r)))
        elif args.law == "mp":
            for r in range(1, args.rmax + 1):
                try:
                    rows.append(("mp", args.rho, r, laws.mp_moment(r, args.rho)))
                except ValueError as exc:
                    raise ValueError(
                        f"--rho {args.rho} is too large for the mp law at --rmax "
                        f"{args.rmax}: {exc}"
                    ) from None
            rows.append(("mp", args.rho, "atom", laws.mp_atom(args.rho)))
        elif args.law == "catalan":
            for r in range(0, args.rmax + 1):
                rows.append(("catalan", "", r, float(laws.catalan(r))))
    except OverflowError:
        raise ValueError(
            f"{args.law} law moment {r} exceeds the float range: lower --rmax (got {args.rmax})"
        ) from None
    _write_csv(args.out, ("law", "param", "r", "value"), rows)
    return 0


def cmd_free(args) -> int:
    _, program = _resolve_program(args.program)
    word = _resolve_word(args.word)
    sizes = _parse_int_list(args.n)
    seeds = _seed_list(args)
    method, probes = _parse_method(args.method)
    if args.witness:  # a witness error must come before the sweep's rows
        witness = fip_witness_program(program, word)
        state = _limit_state(witness.program, args, [])
        val, se = state.scalar_limit(witness.final_scalar)
    report = freeness_sweep(program, word, sizes, seeds, method=method, probes=probes,
                            workers=args.workers)
    _write_csv(args.out, ("n", "seed_count", "median_abs", "mean_abs", "std"), report.rows)
    print(f"decay_slope {report.slope!r}", file=sys.stderr)
    if args.witness:
        print(f"witness_limit {val!r} stderr {se!r}", file=sys.stderr)
    return 0


def cmd_jacobian(args) -> int:
    if args.phi not in ACTIVATIONS:
        raise ValueError(f"unknown activation {args.phi!r}; have {sorted(ACTIVATIONS)}")
    phi, phi_prime = ACTIVATIONS[args.phi]
    if args.kmax < 1:
        raise ValueError(f"jacobian needs --kmax >= 1 (got {args.kmax})")
    if args.kmax > JACOBIAN_KMAX:
        raise ValueError(f"jacobian needs --kmax <= {JACOBIAN_KMAX} (got {args.kmax})")
    rho_list = [float(t) for t in args.rho_list.split(",")] if args.rho_list else None
    if rho_list and any(rho != 1.0 for rho in rho_list):
        raise ValueError("finite Jacobians use square layers: every --rho-list ratio must be 1")
    lim = jacobian_limit_moments(args.layers, phi, phi_prime, args.q1, args.kmax, rho_list)
    seeds = _seed_list(args)

    def run_cell(seed):
        return jacobian_finite(
            args.layers, args.size, phi, phi_prime, args.q1, seed, args.kmax
        )

    emp = np.mean(map_threads(run_cell, seeds, args.workers), axis=0)
    rows = []
    for k in range(1, args.kmax + 1):
        e, l = float(emp[k - 1]), float(lim[k - 1])
        rows.append((k, e, l, abs(e - l) / max(1.0, abs(l))))
    _write_csv(args.out, ("k", "empirical", "limit", "rel_gap"), rows)
    return 0


def cmd_canon(args) -> int:
    _, program = _resolve_program(args.program)
    text = dsl.print_program(program)
    if args.out and args.out != "-":
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


def _add_common(p, *, cells=True, ensemble=False, sweep=False):
    p.add_argument("--out", default=None, help="output CSV path (default stdout)")
    p.add_argument("--seed", type=int, default=0, help="base seed")
    if cells:
        p.add_argument("--seeds", type=int, default=1, help="number of seeds")
        p.add_argument("--workers", type=int, default=1, help="worker threads")
    if ensemble:
        p.add_argument("--ensemble", type=int, default=DEFAULT_SAMPLES,
                       help="limit-ensemble sample count (total over replicas)")
        p.add_argument("--replicas", type=int, default=1,
                       help="independent limit ensembles; >1 gives honest stderr")
    if sweep:
        p.add_argument("--n", required=True, help="comma-separated base sizes")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="infwidth", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sim", help="finite-size statistics")
    p.add_argument("--program", required=True)
    p.add_argument("--test", action="append", default=[], help="EXPR:V1,V2 test average")
    _add_common(p, sweep=True)
    p.set_defaults(fn=cmd_sim)

    p = sub.add_parser("limit", help="limit report")
    p.add_argument("--program", required=True)
    p.add_argument("--test", action="append", default=[])
    p.add_argument("--workers", type=int, default=1,
                   help="accepted, but replicas are built one at a time")
    _add_common(p, cells=False, ensemble=True)
    p.set_defaults(fn=cmd_limit)

    p = sub.add_parser("verify", help="consistency sweep of finite vs limit")
    p.add_argument("--program", required=True)
    p.add_argument("--test", action="append", default=[])
    p.add_argument("--tol", type=float, default=0.05)
    _add_common(p, ensemble=True, sweep=True)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("law", help="closed-form law tables")
    p.add_argument("law", choices=["semicircle", "mp", "catalan"])
    p.add_argument("--rho", type=float, default=None)
    p.add_argument("--rmax", type=int, default=8)
    p.add_argument("--density", action="store_true")
    p.add_argument("--xmin", type=float, default=0.0)
    p.add_argument("--xmax", type=float, default=4.0)
    p.add_argument("--points", type=int, default=200)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_law)

    p = sub.add_parser("free", help="centered alternating-word trace sweep")
    p.add_argument("--program", required=True)
    p.add_argument("--word", required=True)
    p.add_argument("--method", default="auto", help="auto, exact, hutch or hutch:p")
    p.add_argument("--witness", action="store_true",
                   help="also run the limit of the equivalent scalar program")
    _add_common(p, ensemble=True, sweep=True)
    p.set_defaults(fn=cmd_free)

    p = sub.add_parser("jacobian", help="Jacobian moments: finite vs limit")
    p.add_argument("--layers", type=int, default=2)
    p.add_argument("--phi", default="identity")
    p.add_argument("--q1", type=float, default=1.0)
    p.add_argument("--size", type=int, default=1024, help="width of every layer")
    p.add_argument("--kmax", type=int, default=3)
    p.add_argument("--rho-list", default=None, help="per-layer shape ratios")
    _add_common(p)
    p.set_defaults(fn=cmd_jacobian)

    p = sub.add_parser("canon", help="canonical form of a program")
    p.add_argument("--program", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_canon)

    return ap


def run(argv: list[str]) -> int:
    """Run one command; on error, emit a machine-readable error row and rc 2,
    to --out, or to stdout when --out cannot be written."""
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except Exception as exc:  # deliberate: errors become CSV + nonzero exit
        row = [("error", type(exc).__name__, str(exc))]
        try:
            _write_csv(getattr(args, "out", None), ("error", "kind", "message"), row)
        except OSError:
            _write_csv(None, ("error", "kind", "message"), row)
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
