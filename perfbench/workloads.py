"""The benchmark workloads as lists of ``infwidth`` CLI commands.

Every command runs with ``--workers 1``.  Each carries the closed-form values
its output is checked against (see ``checks.py``), keyed by the CSV label of
the row they apply to.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

from infwidth import corpus, dsl, laws

import gen

ENSEMBLE = "200000"
VERIFY_SIZES = "256,1024,4096"
VERIFY_SEEDS = "8"
FREE_SEEDS = "4"
JACOBIAN_SEEDS = "4"

MP_RATIO = {"mp_half": 0.5, "mp_one": 1.0, "mp_two": 2.0}


@dataclass(frozen=True)
class Command:
    label: str
    argv: tuple[str, ...]  # arguments of infwidth.cli.run, without --out
    exact: dict[str, float] = field(default_factory=dict)  # CSV label -> closed form
    witness_zero: bool = False  # the free witness limit must be 0
    stderr_from: str | None = None  # label of the command whose stderrs bound `exact`


def _verify_exact(name: str) -> dict[str, float]:
    """Closed forms of the bundled verify statistics."""
    out = {}
    for expr, vecs in corpus.VERIFY_TESTS[name]:
        stat = f"avg:{expr}:{','.join(vecs)}"
        if name == "semicircle":
            out[stat] = laws.semicircle_moment(int(vecs[1][1:]))
        elif name in MP_RATIO:
            out[stat] = laws.mp_moment(int(vecs[1][1:]), MP_RATIO[name])
    if name == "atav":
        # x = A^T A v: E[v x] is the zdot coefficient 1 times E[v^2] = 1
        out = {"avg:x1 * x2:v,x": 1.0, "avg:x1^2:x": laws.mp_moment(2, 1.0)}
    if name == "giabreak":
        out = {"avg:x1:dx1": 2.0, "avg:x1^2:h2": 1.0}
    return out


def _chain_exact(chain: gen.Chain) -> dict[str, float]:
    if chain.affine_share < 1.0:
        return {}
    out = {}
    for expr, vecs in chain.tests:
        a, *b = [int(v[1:]) for v in vecs.split(",")]
        value = laws.semicircle_moment(b[0]) if expr == "x1 * x2" else float(laws.catalan(a))
        out[f"avg:{expr}:{vecs}"] = value
    return out


def _verify_sweep(seed: int) -> list[Command]:
    return [
        Command(
            f"verify {name}",
            ("verify", "--program", f"@{name}", "--n", VERIFY_SIZES, "--seeds", VERIFY_SEEDS,
             "--ensemble", ENSEMBLE, "--replicas", "8", "--seed", str(seed), "--workers", "1"),
            _verify_exact(name),
        )
        for name in corpus.VERIFY_TESTS
    ]


def _limit_deep(seed: int, workdir: str) -> tuple[list[Command], list[gen.Chain]]:
    chains = gen.generate(seed)
    cmds = []
    for chain in chains:
        path = os.path.join(workdir, f"{chain.name}.ntp")
        with open(path, "w") as fh:
            fh.write(chain.text)
        tests = [a for e, v in chain.tests for a in ("--test", f"{e}:{v}")]
        cmds += _replica_pair(chain.name, path, seed, tests, _chain_exact(chain))
    # shallow reference whose correction coefficient is exactly 1
    cmds += _replica_pair("atav", "@atav", seed, [], {"zdot:x:v": 1.0, **_verify_exact("atav")})
    return cmds, chains


def _replica_pair(name: str, program: str, seed: int, tests: list[str],
                  exact: dict[str, float]) -> list[Command]:
    """One limit command at replicas 8 and one at replicas 1, same total ensemble.

    A single ensemble's stderr conditions on the covariances and coefficients
    it estimated itself, so it understates the error of deep programs (see
    the repository README).  The R=1 closed-form checks therefore use the
    replica-spread stderr of the R=8 run, which spends the same budget.
    """
    def argv(replicas):
        return ("limit", "--program", program, "--ensemble", ENSEMBLE, "--replicas", replicas,
                "--seed", str(seed), "--workers", "1", *tests)
    r8 = f"limit {name} R=8"
    return [Command(r8, argv("8"), exact),
            Command(f"limit {name} R=1", argv("1"), exact, stderr_from=r8)]


def _trace_spectra(seed: int) -> list[Command]:
    s = ("--seed", str(seed), "--workers", "1")
    return [
        Command("free word_a hutch:256",
                ("free", "--program", "@fipbase", "--word", "@word_a", "--method", "hutch:256",
                 "--witness", "--n", "256,512,1024,2048", "--seeds", FREE_SEEDS,
                 "--ensemble", ENSEMBLE, "--replicas", "8", *s),
                witness_zero=True),
        Command("free word_b auto",
                ("free", "--program", "@fipbase", "--word", "@word_b",
                 "--n", "256,512,1024", "--seeds", FREE_SEEDS, *s)),
        Command("free negative auto",
                ("free", "--program", "@fipbase", "--word", "@negative",
                 "--n", "256,512,1024", "--seeds", FREE_SEEDS, *s)),
        # relu: E[step^2] = 1/2 per diagonal, so tr(J^T J)/n -> 2^-(layers-1)
        Command("jacobian relu L=4 n=1024",
                ("jacobian", "--layers", "4", "--phi", "relu", "--size", "1024",
                 "--kmax", "6", "--seeds", JACOBIAN_SEEDS, *s),
                {"1": 0.5 ** 3}),
        Command("jacobian tanh L=3 n=2048",
                ("jacobian", "--layers", "3", "--phi", "tanh", "--size", "2048",
                 "--kmax", "6", "--seeds", JACOBIAN_SEEDS, *s)),
    ]


def prepare(workload: str, seed: int, workdir: str) -> tuple[list[Command], list[dict]]:
    """Commands of one workload and a description of the programs it generated.

    Generated programs are written to ``workdir`` and parsed back; their
    canonical form must round-trip through ``print_program``/``parse_program``.
    """
    if workload == "verify-sweep":
        for name in corpus.VERIFY_TESTS:
            corpus.load_program(name)
        return _verify_sweep(seed), []
    if workload == "limit-deep":
        cmds, chains = _limit_deep(seed, workdir)
        programs = []
        for chain in chains:
            program = dsl.parse_program(chain.text)
            if dsl.parse_program(dsl.print_program(program)) != program:
                raise ValueError(f"{chain.name} does not round-trip through the DSL")
            programs.append({"name": chain.name, "depth": chain.depth,
                             "affine_share": chain.affine_share})
        corpus.load_program("atav")
        return cmds, programs
    if workload == "trace-spectra":
        corpus.load_program("fipbase")
        for name in ("word_a", "word_b", "negative"):
            corpus.load_word(name)
        return _trace_spectra(seed), []
    raise ValueError(f"unknown workload {workload!r}")
