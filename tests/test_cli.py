import csv
import hashlib
import importlib.util
import io
import json
import os
import re
import shlex
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import infwidth
from infwidth import cli, corpus, freeness
from infwidth.cli import build_parser, run, sweep_passes
from infwidth.finite import ELEMENT_CAP
from infwidth.laws import semicircle_moment
from infwidth.limits import LimitState, ReplicatedLimit


def _run(tmp_path, *argv):
    out = tmp_path / "out.csv"
    rc = run(list(argv) + ["--out", str(out)])
    return rc, out.read_bytes()


def test_sim_deterministic_bytes(tmp_path):
    args = ["sim", "--program", "@atav", "--n", "64,128", "--seeds", "3",
            "--test", "x1 * x2:v,x"]
    rc1, b1 = _run(tmp_path, *args)
    rc2, b2 = _run(tmp_path, *args)
    assert rc1 == rc2 == 0
    assert b1 == b2
    header = b1.decode().splitlines()[0]
    assert header == "stat,n,seed,value,stderr"


def test_workers_do_not_change_output(tmp_path):
    # every cell is a pure function of its (n, seed): jacobian forms its W_l
    # at --size 200 (exact path) and samples probe blocks at --size 1100
    # (probe path)
    for argv in (
        ["sim", "--program", "@semicircle", "--n", "64,128", "--seeds", "4",
         "--test", "x1 * x2:z0,z2"],
        ["jacobian", "--layers", "3", "--phi", "relu", "--size", "200", "--seeds", "2",
         "--kmax", "4"],
        ["jacobian", "--layers", "2", "--phi", "relu", "--size", "1100", "--seeds", "2",
         "--kmax", "3"],
    ):
        runs = {_run(tmp_path, *argv, "--workers", workers) for workers in ("1", "2", "8")}
        assert len(runs) == 1 and next(iter(runs))[0] == 0, argv


def test_workers_do_not_change_multi_block_draws(tmp_path):
    # sim samples every product of W : 2100 x 2100 without forming it
    base = ["sim", "--program", "@semicircle", "--n", "2100", "--seeds", "2"]
    runs = {_run(tmp_path, *base, "--workers", workers) for workers in ("1", "2", "8")}
    assert len(runs) == 1 and next(iter(runs))[0] == 0


def test_verify_workers_identical_and_exit_code(tmp_path):
    base = ["verify", "--program", "@atav", "--n", "64,256", "--seeds", "4",
            "--ensemble", "20000"]
    rc1, b1 = _run(tmp_path, *base, "--workers", "1")
    rc8, b8 = _run(tmp_path, *base, "--workers", "8")
    assert b1 == b8
    assert rc1 == rc8 == 0


def test_limit_report_schema(tmp_path):
    import csv as csvmod
    import io

    rc, data = _run(tmp_path, "limit", "--program", "@atav", "--ensemble", "20000",
                    "--test", "x1 * x2:v,x", "--replicas", "4")
    assert rc == 0
    rows = list(csvmod.reader(io.StringIO(data.decode())))
    assert rows[0] == ["object", "kind", "value", "stderr"]
    kinds = {r[1] for r in rows[1:]}
    assert kinds == {"zdot_coeff", "expectation"}
    zdot = [r for r in rows if r[0] == "zdot:x:v"]
    assert len(zdot) == 1
    assert abs(float(zdot[0][2]) - 1.0) < 0.1


def test_law_mp_second_moment(tmp_path):
    rc, data = _run(tmp_path, "law", "mp", "--rho", "0.5", "--rmax", "4")
    assert rc == 0
    lines = data.decode().splitlines()
    assert lines[0] == "law,param,r,value"
    row = dict((ln.split(",")[2], ln.split(",")[3]) for ln in lines[1:])
    assert float(row["2"]) == 1.5
    assert float(row["atom"]) == 0.0


def test_law_density_schema(tmp_path):
    rc, data = _run(tmp_path, "law", "semicircle", "--density", "--xmin", "-2",
                    "--xmax", "2", "--points", "11")
    assert rc == 0
    lines = data.decode().splitlines()
    assert lines[0] == "x,density"
    assert len(lines) == 12


def test_free_schema(tmp_path):
    rc, data = _run(tmp_path, "free", "--program", "@fipbase", "--word", "@negative",
                    "--n", "64,128", "--seeds", "3")
    assert rc == 0
    lines = data.decode().splitlines()
    assert lines[0] == "n,seed_count,median_abs,mean_abs,std"
    assert len(lines) == 3


def test_jacobian_schema(tmp_path):
    rc, data = _run(tmp_path, "jacobian", "--layers", "2", "--phi", "relu",
                    "--size", "128", "--seeds", "2", "--kmax", "2")
    assert rc == 0
    lines = data.decode().splitlines()
    assert lines[0] == "k,empirical,limit,rel_gap"
    first = lines[1].split(",")
    assert float(first[2]) == pytest.approx(0.5, abs=1e-12)  # relu Jacobian m1


def test_jacobian_empty_support_prints_zero_moments(tmp_path):
    # at n = 1 and seed 0, h1 and h2 are at most 0: J keeps no column, and the
    # moments of the empty Gram matrix are 0.0
    rc, data = _run(tmp_path, "jacobian", "--layers", "3", "--phi", "relu",
                    "--size", "1", "--kmax", "2")
    assert rc == 0
    rows = list(csv.reader(io.StringIO(data.decode())))
    assert [row[1] for row in rows] == ["empirical", "0.0", "0.0"]


def test_error_produces_csv_row_and_rc2(tmp_path):
    for argv in (["sim", "--program", "@nope", "--n", "64"],
                 ["free", "--program", "@fipbase", "--word", "@nope", "--n", "64"]):
        rc, data = _run(tmp_path, *argv)
        assert rc == 2
        lines = data.decode().splitlines()
        assert lines[0] == "error,kind,message"
        assert lines[1].startswith("error,KeyError,")


@pytest.mark.parametrize("argv", [
    ["sim", "--program", "@semicircle", "--n", "64,128,64", "--seeds", "2"],
    ["verify", "--program", "@semicircle", "--n", "64,64", "--seeds", "4",
     "--ensemble", "20000"],
    ["free", "--program", "@fipbase", "--word", "@word_a", "--n", "32,32", "--seeds", "2"],
], ids=["sim", "verify", "free"])
def test_a_repeated_size_is_an_error_that_names_it(tmp_path, argv):
    # each seed of a repeated size would be counted once per copy
    rc, data = _run(tmp_path, *argv)
    assert rc == 2
    size = argv[argv.index("--n") + 1].split(",")[0]
    assert data.decode().splitlines() == [
        "error,kind,message", f"error,ValueError,sizes must be distinct; repeated: {size}"]


@pytest.mark.parametrize("argv, message", [
    (["verify", "--program", "@semicircle", "--n", "64,32", "--seeds", "2",
      "--ensemble", "2000"], "size sweep must be ascending"),
    (["free", "--program", "@fipbase", "--word", "@word_a", "--n", "64,32", "--seeds", "2"],
     "n_list must be ascending"),
], ids=["verify", "free"])
def test_a_descending_size_sweep_is_an_error(tmp_path, argv, message):
    rc, data = _run(tmp_path, *argv)
    assert rc == 2
    assert _error_row(data) == f"error,ValueError,{message}"


def test_free_reads_a_word_file(tmp_path, capsys):
    # a file holding word_b's lines gives the bytes of the bundled @word_b
    path = tmp_path / "b.word"
    path.write_text((Path(infwidth.__file__).parent / "words" / "word_b.word").read_text())
    outputs = []
    for word in (str(path), "@word_b"):
        capsys.readouterr()
        rc, data = _run(tmp_path, "free", "--program", "@fipbase", "--word", word,
                        "--n", "64,96", "--seeds", "2")
        assert rc == 0
        outputs.append((data, capsys.readouterr()))
    assert outputs[0] == outputs[1]


def test_free_rejects_a_word_file_with_no_factors(tmp_path):
    # only comments and blank lines: an error row, not a row of 1.0 per size
    path = tmp_path / "blank.word"
    path.write_text("# no factors here\n\n   # nor here\n")
    rc, data = _run(tmp_path, "free", "--program", "@fipbase", "--word", str(path),
                    "--n", "64,96", "--seeds", "2")
    assert rc == 2
    assert data.decode().splitlines() == [
        "error,kind,message", f"error,ValueError,word file '{path}' holds no factors"]


def test_verify_with_nothing_to_check_is_an_error(tmp_path, monkeypatch):
    # fipbase has no moment scalar and no bundled test: without --test the
    # run checked nothing, so it is an error row, raised before the limit
    monkeypatch.setattr(cli, "build_replicated", None)
    rc, data = _run(tmp_path, "verify", "--program", "@fipbase", "--n", "16,32",
                    "--ensemble", "2000")
    assert rc == 2
    assert data.decode().splitlines() == [
        "error,kind,message",
        "error,ValueError,program 'fipbase' has no moment scalar to verify: give a --test"]


def _scale_limits(monkeypatch):
    for method in ("expect", "scalar_limit"):
        exact = getattr(ReplicatedLimit, method)

        def scaled(self, *args, _exact=exact):
            val, se = _exact(self, *args)
            return 1.10 * val, se

        monkeypatch.setattr(ReplicatedLimit, method, scaled)


def _drop_corrections(monkeypatch):
    exact = LimitState._correction

    def gia(self, instr):
        ys, coeffs, stderr = exact(self, instr)
        return ys, np.zeros_like(coeffs), stderr

    monkeypatch.setattr(LimitState, "_correction", gia)


@pytest.mark.parametrize("mutate, code", [
    (None, 0),
    (_scale_limits, 1),
    (_drop_corrections, 1),
])
def test_verify_power_at_the_readme_settings(tmp_path, monkeypatch, mutate, code):
    """verify at the README settings passes every bundled test program, and
    fails each one whose limit is 10% off or drops its corrections (the
    gradient independence assumption).  This is today's resolution: at a 3%
    scale every program still passes.  Only the exit code is asserted, since
    a mutated program may keep some passing rows (semicircle's E[z0 z1] = 0
    under the scale, giabreak's x1^2 over h2 without corrections)."""
    if mutate is not None:
        mutate(monkeypatch)
    codes = {}
    for name in corpus.VERIFY_TESTS:
        codes[name], _ = _run(tmp_path, "verify", "--program", f"@{name}",
                              "--n", "256,1024,4096", "--seeds", "8", "--ensemble", "200000",
                              "--replicas", "8", "--tol", "0.05", "--seed", "0")
    assert codes == dict.fromkeys(corpus.VERIFY_TESTS, code)


def test_sim_with_nothing_to_report_is_an_error(tmp_path, monkeypatch):
    # as verify's: fipbase has no moment scalar and no bundled test, so the
    # run is an error row, raised before any cell runs
    monkeypatch.setattr(cli, "instantiate", None)
    rc, data = _run(tmp_path, "sim", "--program", "@fipbase", "--n", "16,32", "--seeds", "2")
    assert rc == 2
    assert data.decode().splitlines() == [
        "error,kind,message",
        "error,ValueError,program 'fipbase' has no moment scalar to verify: give a --test"]


def test_limit_with_nothing_to_report_is_an_error(tmp_path):
    # fipbase declares no scalar, and W is never applied transposed, so it has no
    # correction either: without --test its report would be the header alone
    rc, data = _run(tmp_path, "limit", "--program", "@fipbase", "--ensemble", "2000")
    assert rc == 2
    assert data.decode().splitlines() == [
        "error,kind,message",
        "error,ValueError,program 'fipbase' has no scalar or correction to report: give a --test"]


def test_free_witness_error_comes_before_the_sweep(tmp_path, capsys, monkeypatch):
    # an ensemble of 3 samples over 2 replicas is too small for the witness
    # limit: the error row must be the whole output, so no sweep may run
    monkeypatch.setattr(cli, "freeness_sweep", None)
    capsys.readouterr()
    rc, data = _run(tmp_path, "free", "--program", "@fipbase", "--word", "@word_a",
                    "--n", "256,512", "--seeds", "2", "--witness", "--ensemble", "3",
                    "--replicas", "2")
    assert rc == 2
    assert data.decode().splitlines() == [
        "error,kind,message",
        "error,ValueError,a limit ensemble needs at least 2 samples (got 1)"]
    assert "decay_slope" not in capsys.readouterr().err


@pytest.mark.parametrize("argv, kind, message", [
    (["sim", "--program", "@semicircle", "--n", "0"],
     "ValueError", "sizes must be positive integers"),
    (["sim", "--program", "@semicircle", "--n", "16", "--test", "x1 * x2"],
     "ValueError", "\"test flag 'x1 * x2' is not of the form EXPR:V1,V2\""),
    (["sim", "--program", "@semicircle", "--n", "16", "--seeds", "0"],
     "ValueError", "--seeds must be >= 1"),
    (["sim", "--program", "@semicircle", "--n", "16", "--workers", "0"],
     "ValueError", "--workers must be >= 1"),
    (["sim", "--program", "@semicircle", "--n", "16", "--test", "x1:nope"],
     "UndeclaredSymbol", "vector 'nope' not in program"),
    (["sim", "--program", "@semicircle", "--n", "16", "--test", "x1 * x2:z0"],
     "ArityMismatch", "test expression arity exceeds vector count"),
    (["jacobian", "--phi", "sigmoid"],
     "ValueError", "\"unknown activation 'sigmoid'; have ['identity', 'relu', 'tanh']\""),
    (["jacobian", "--size", "0"], "ValueError", "all dimensions must be >= 1"),
    (["jacobian", "--layers", "1"], "ValueError", "need at least two layers"),
    (["jacobian", "--layers", "3", "--rho-list", "1"],
     "ValueError", "rho_list must have layers - 1 entries"),
])
def test_command_line_validation_errors(tmp_path, argv, kind, message):
    rc, data = _run(tmp_path, *argv)
    assert rc == 2
    assert data.decode().splitlines() == ["error,kind,message", f"error,{kind},{message}"]


def test_readme_cli_block_runs_and_prints_what_it_quotes(tmp_path, capsys):
    # every infwidth line of the README's CLI block exits 0 and prints each
    # output its comment quotes: CSV lines (a header, a row) or a stderr line;
    # a comment on a line of its own belongs to the command above it
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = next(b for b in readme.split("```")[1::2] if "infwidth free" in b)
    commands = []
    for line in block.replace("\\\n", " ").splitlines():
        text, _, comment = line.partition("#")
        if text.strip():
            commands.append([text, comment])
        elif comment:
            commands[-1][1] += comment
    quoted_all = []
    for i, (text, comment) in enumerate(commands):
        argv = shlex.split(text)
        assert argv[0] == "infwidth"
        out = tmp_path / f"{i}.csv"
        assert run(argv[1:] + ["--out", str(out)]) == 0, text
        err = capsys.readouterr().err.splitlines()
        if "stderr:" in comment:
            quoted = [comment.split("stderr:")[1].strip()]
            assert quoted[0] in err
        else:
            quoted = re.findall(r"\S+,\S+", comment)
            assert set(quoted) <= set(out.read_text().splitlines()), text
        quoted_all += quoted
    assert len(commands) == 9
    assert quoted_all == ["stat,n,seed,value,stderr", "object,kind,value,stderr",
                          "law,param,r,value", "x,density", "atom,0.5",
                          "decay_slope 0.11459689464895637"]


def test_an_unwritable_out_gets_its_error_row_on_stdout(tmp_path, capsys):
    out = tmp_path / "missing" / "x.csv"
    assert run(["law", "mp", "--rho", "0.5", "--out", str(out)]) == 2
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "error,kind,message"
    assert lines[1].startswith("error,FileNotFoundError,")
    assert not out.parent.exists()


def test_non_psd_covariance_is_a_named_error(tmp_path):
    prog = tmp_path / "bad.ntp"
    prog.write_text("vector v : a\nvector w : a\ncov v w 2.0\n")
    rc, data = _run(tmp_path, "limit", "--program", str(prog))
    assert rc == 2
    assert data.decode().splitlines()[1].startswith(
        'error,NonPSDCovariance,"initial covariance of v, w in class \'a\': matrix is not PSD'
    )


# th = 1/n > 0 at every finite size, so step(th) is 1 there but 0 at th's limit
_STEP_AT_JUMP = "vector v : c\nscalar th limit 0.0 rule u\nm = moment step(p1) (v ; th)\n"


@pytest.mark.parametrize("argv", [
    ["limit", "--ensemble", "2000"],
    ["verify", "--n", "64,256", "--seeds", "2", "--ensemble", "2000"],
])
def test_step_of_a_parameter_on_its_jump_is_a_named_error(tmp_path, argv):
    prog = tmp_path / "jump.ntp"
    prog.write_text(_STEP_AT_JUMP)
    rc, data = _run(tmp_path, argv[0], "--program", str(prog), *argv[1:])
    assert rc == 2
    lines = data.decode().splitlines()
    assert lines[0] == "error,kind,message"
    assert lines[1].startswith("error,StepAtJump,moment m: step(p1) with p1 = th is 0.0 ")
    assert len(lines) == 2


# m1's limit is 0, on the jump of step, and its ensemble mean falls on either
# side by the seed: step(m1) read 0.0 at seed 0 and 1.0 at seed 3, stderr 0.0
_STEP_OF_A_MOMENT = "vector v : c\nm1 = moment x1 (v)\nm2 = moment step(p1) (v ; m1)\n"


@pytest.mark.parametrize("argv", [
    ["limit", "--ensemble", "20000", "--seed", "0"],
    ["limit", "--ensemble", "20000", "--seed", "3"],
    ["verify", "--n", "64,256", "--seeds", "4", "--ensemble", "20000"],
])
def test_step_of_a_moment_scalar_on_its_jump_is_a_named_error(tmp_path, argv):
    prog = tmp_path / "jump.ntp"
    prog.write_text(_STEP_OF_A_MOMENT)
    rc, data = _run(tmp_path, argv[0], "--program", str(prog), *argv[1:])
    assert rc == 2
    lines = data.decode().splitlines()
    assert lines[0] == "error,kind,message"
    assert lines[1].startswith('error,StepAtJump,"moment m2: step(p1) with p1 = m1 is ')
    # the scalar moved and its stderr, 1/sqrt(20000) = 0.00707 to 3 digits
    assert "with m1 moved by " in lines[1] and ", 3 of its ensemble stderr 0.007" in lines[1]
    assert len(lines) == 2


# x1^400 of a standard Gaussian overflows the squares inside the stderr
_OVERFLOW_PROGRAM = """\
matrix W : c x c var 1
vector v : c
h = matmul W v
"""
_OVERFLOW_MOMENT = "y = nonlin x1^400 (h)\ns = moment x1 (y)\n"


@pytest.mark.parametrize("body,argv,message", [
    (_OVERFLOW_MOMENT, ["limit", "--ensemble", "20000", "--test", "x1:y"],
     "moment s has a non-finite estimate: mean 2.7"),
    (_OVERFLOW_MOMENT, ["verify", "--n", "32", "--seeds", "1", "--ensemble", "20000",
                        "--test", "x1:y"],
     "moment s has a non-finite estimate: mean 2.7"),
    ("", ["limit", "--ensemble", "20000", "--replicas", "2", "--test", "x1^400:h"],
     "expectation of x1^400 over h has a non-finite estimate"),
    # raised as the first replica is built, before any finite cell runs
    ("", ["verify", "--n", "32", "--seeds", "1", "--ensemble", "20000", "--replicas", "2",
          "--test", "x1^400:h"],
     "expectation of x1^400 over h has a non-finite estimate"),
])
def test_non_finite_limit_estimate_is_a_named_error(tmp_path, body, argv, message):
    prog = tmp_path / "overflow.ntp"
    prog.write_text(_OVERFLOW_PROGRAM + body)
    rc, data = _run(tmp_path, argv[0], "--program", str(prog), *argv[1:])
    assert rc == 2
    lines = data.decode().splitlines()
    assert lines[0] == "error,kind,message"
    assert lines[1].startswith(f'error,NonFiniteEstimate,"{message}')
    assert len(lines) == 2


def test_canon_roundtrip(tmp_path):
    src = tmp_path / "p.ntp"
    src.write_text("vector   v :  c\nm = moment   x1^2   (v)\n")
    rc, data = _run(tmp_path, "canon", "--program", str(src))
    assert rc == 0
    assert data.decode() == "vector v : c\nm = moment x1^2 (v)\n"


def test_parser_rejects_unknown_command():
    # limit builds one limit, so it takes no --seeds; law's choices bar any other law
    for argv in (["frobnicate"], ["limit", "--program", "@atav", "--seeds", "2"],
                 ["law", "gaussian"]):
        with pytest.raises(SystemExit):
            build_parser().parse_args(argv)


def test_sweep_verdict_monotone_in_tolerance():
    # once passing at tolerance t, still passing at every t' >= t
    cases = [
        (0.2, 0.01, 0.001), (0.0, 0.06, 0.001), (0.01, 0.2, 0.0001),
        (0.5, 0.02, 0.02), (0.0, 0.0, 0.0),
    ]
    tols = [0.0, 0.01, 0.05, 0.1, 1.0]
    for gap0, gap1, se1 in cases:
        results = [sweep_passes(gap0, gap1, se1, 256, 4096, t) for t in tols]
        assert results == sorted(results), (gap0, gap1, se1)


# A program with moment scalars and a nonlin parameter, so that sim and verify
# emit both scalar: and avg: rows.
_GOLDEN_PROGRAM = """\
matrix W : c x c var 0.5
vector z0 : c
x1 = matmul W z0
y1 = matmul W^T z0
z1 = nonlin x1 + x2 (x1, y1)
m1 = moment x1 * x2 (z0, z1)
z2 = nonlin p1 * x1 (z1 ; m1)
m2 = moment x1^2 (z2)
"""

# sha256 of CSV bytes + NUL + stderr of each configuration.  Sizes that are
# not powers of two catch a change of normalisation order, and the jacobian
# sizes take the exact path (150 to 700, with relu's half-empty diagonals at
# 200 and 700) and the probe path (1100).  A digest is re-recorded only with
# a reason in CHANGES.md, which keeps the history of every re-record.
_GOLDEN = {
    "sim": ["sim", "--program", "{prog}", "--n", "48,96", "--seeds", "3",
            "--test", "x1 * x2:z0,z2", "--test", "x1^2:z1"],
    "limit_r1": ["limit", "--program", "@atav", "--ensemble", "6000",
                 "--test", "x1 * x2:v,x"],
    "limit_r4": ["limit", "--program", "@semicircle", "--ensemble", "8000",
                 "--replicas", "4", "--test", "x1 * x2:z0,z2"],
    "verify": ["verify", "--program", "{prog}", "--n", "48,96", "--seeds", "3",
               "--ensemble", "6000", "--replicas", "2", "--test", "x1 * x2:z0,z2"],
    "free_exact": ["free", "--program", "@fipbase", "--word", "@word_b",
                   "--n", "96,300", "--seeds", "2", "--method", "exact"],
    "free_hutch_witness": ["free", "--program", "@fipbase", "--word", "@word_b",
                           "--n", "96,300", "--seeds", "2", "--method", "hutch:16",
                           "--witness", "--ensemble", "4000", "--replicas", "2"],
    "free_auto": ["free", "--program", "@fipbase", "--word", "@word_a",
                  "--n", "96,600", "--seeds", "2"],
    "jacobian_dense": ["jacobian", "--layers", "3", "--phi", "tanh", "--size", "150",
                       "--seeds", "2", "--kmax", "3"],
    "jacobian_probe": ["jacobian", "--layers", "2", "--phi", "relu", "--size", "1100",
                       "--kmax", "3"],
    "jacobian_relu_dense": ["jacobian", "--layers", "3", "--phi", "relu", "--size", "200",
                            "--seeds", "2", "--kmax", "4"],
    "jacobian_tanh_deep": ["jacobian", "--layers", "4", "--phi", "tanh", "--size", "500",
                           "--seeds", "2", "--kmax", "6"],
    "jacobian_relu_700": ["jacobian", "--layers", "4", "--phi", "relu", "--size", "700",
                          "--seeds", "2", "--kmax", "6"],
    "law_mp": ["law", "mp", "--rho", "0.3", "--rmax", "6"],
    "law_semicircle_density": ["law", "semicircle", "--density", "--xmin", "-2.5",
                               "--xmax", "2.5", "--points", "41"],
    "law_mp_density": ["law", "mp", "--rho", "0.5", "--density", "--xmin", "0",
                       "--xmax", "3", "--points", "31"],
    "law_catalan_density": ["law", "catalan", "--density", "--rmax", "5"],
    # sim samples every product of W : 2100 x 2100 without forming it
    "sim_multiblock": ["sim", "--program", "@semicircle", "--n", "2100", "--seeds", "2",
                       "--test", "x1 * x2:z0,z2"],
}

# Recorded with Python 3.11, numpy 2.4.6 (scipy-openblas 0.3.31), scipy 1.17.1
# and OPENBLAS_NUM_THREADS=2 on x86_64; the BLAS thread count changes the
# summation order of some products, so the limit goldens, verify, the free
# goldens and the jacobian goldens are checked to give the same bytes with
# one thread.  By design: the exact Jacobian path and word_apply, which
# both centered traces (exact from the dense first polynomial, probes on
# probe blocks) run through, multiply operands whose sides are multiples of
# finite.SUPPORT_ALIGN (finite._take appends zeros to each kept index set
# and full side), the Jacobian forms each W_l with numpy sums, not BLAS
# gemv, and the limit chain takes its n-length dots and products as numpy
# sums too.  jacobian_tanh_deep differed between 1 and 2 threads before that,
# jacobian_relu_700 does when the formation uses gemv, and free_auto did
# when word_apply multiplied its unpadded n = 600 operands.  OpenBLAS
# uses no more threads than the CPUs it may run on, so the digests need at
# least 2 usable CPUs: under `taskset -c 0` free_auto fails even with
# OPENBLAS_NUM_THREADS=2.  The relu Jacobian digests were re-recorded when
# the zeros of a kept set moved from between its indices to its end, which
# changes the block's sums by a few ulps.  jacobian_tanh_deep was re-recorded
# when the Jacobian limit became one free product of all its laws, which
# moves four of its limit moments by at most 2.1e-16 relative.
# jacobian_probe was re-recorded when the Jacobian's probe moments became
# finite.spectral_moments of J^T J, whose probes come from the stream
# (seed, "hutch", key of J^T J), not (seed, "jacobian", key of J): its
# limit column is unchanged, its k = 1 moment moved from 0.53134 to 0.53003.
_GOLDEN_SHA = {
    "sim":
        "b2af752bb6740197fe58a5da334ae9172c352f87670db3fde2b9ca71df2f8fd7",
    "limit_r1":
        "18f28a822b4fd8df10dde682e05231012090d5d801f98d901e2745bee217cc29",
    "limit_r4":
        "749140a558e242a6c0dcc7471914d90e4026d050c0da7dc1e8d65f21b1dd05ae",
    "verify":
        "7f92ed8f546b31ec1e5ff7879b577e465d3975c172a5c1b141413b28672044b8",
    "free_exact":
        "6a06ade1deab82df8139fbb6e95790e8fabf9a6e82f6f83069b768084c5a5a86",
    "free_hutch_witness":
        "97a20ad742282cb4ed09a4f47e0b9257008f878aa67a311e4be0ac27f0add2ab",
    "free_auto":
        "ac5fec74716b573356277c7b1969f6bfad430f4931aa50bf1d396803415aad33",
    "jacobian_dense":
        "b60cca68949e8aa80086b44e6306db5e05582ad51f9ea50d1fdbc26c22d1a31b",
    "jacobian_probe":
        "62fade76ee9bca428e226171dc331f9ce547ec1826eeeabc0c134727acb97182",
    "jacobian_relu_dense":
        "9842592e84835f1b4b128001551bb74cd8003124829f293b216aafd7aedf99ed",
    "jacobian_tanh_deep":
        "e98f27e30b03fbd44f2e88413b789dc4dc467f02856f538ee0d27b230dfc99f1",
    "jacobian_relu_700":
        "0c20750263db12fb7f2955e382aad69f8e5218a29defacba56118f2f102e2862",
    "law_mp":
        "9d52187d5a837d983bb71a1643de3389b117c4dba60f9bdf35da534786fa49b9",
    "law_semicircle_density":
        "18298605730980559b512c6ab528d8088f206a2d26d3d76cfd7f557f958760e4",
    "law_mp_density":
        "e169f1f59d57e0f7499bccdcba5cca6b5e0fc49619d5dcd01fbc1d6083c42041",
    "law_catalan_density":
        "af3cde3e60f85390c78c3bc6ed03bb92a9052215efef1a34d776234e1dd0daa9",
    "sim_multiblock":
        "ceb03762c2043ce132cd108b0c247524e2301f05926b9bf91e704fcb0775dd2f",
}


def _golden_argv(tmp_path, name):
    prog = tmp_path / "golden.ntp"
    prog.write_text(_GOLDEN_PROGRAM)
    return [a.format(prog=prog) for a in _GOLDEN[name]]


@pytest.mark.parametrize("name", sorted(_GOLDEN))
def test_golden_bytes(tmp_path, capsys, name):
    argv = _golden_argv(tmp_path, name)
    capsys.readouterr()
    rc, data = _run(tmp_path, *argv)
    assert rc == 0
    digest = hashlib.sha256(data + b"\0" + capsys.readouterr().err.encode()).hexdigest()
    assert digest == _GOLDEN_SHA[name]


@pytest.mark.parametrize("name", ["limit_r1", "limit_r4", "verify", "free_exact",
                                  "free_hutch_witness", "free_auto",
                                  "jacobian_dense", "jacobian_probe",
                                  "jacobian_relu_dense", "jacobian_tanh_deep",
                                  "jacobian_relu_700"])
def test_golden_bytes_do_not_depend_on_blas_threads(tmp_path, capsys, name):
    argv = _golden_argv(tmp_path, name)
    capsys.readouterr()
    rc, data = _run(tmp_path, *argv)
    assert rc == 0
    in_process = data + b"\0" + capsys.readouterr().err.encode()
    src = str(Path(infwidth.__file__).resolve().parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = tmp_path / "one_thread.csv"
    proc = subprocess.run([sys.executable, "-m", "infwidth.cli", *argv, "--out", str(out)],
                          env=env, capture_output=True, check=True)
    assert out.read_bytes() + b"\0" + proc.stderr == in_process


@pytest.mark.parametrize("command", [
    ["sim"],
    ["verify", "--ensemble", "2000"],
])
def test_sim_and_verify_cells_draw_no_matrix(monkeypatch, tmp_path, command):
    # A : 2048 x 1024 at n = 1024: every product is sampled and A is never
    # allocated
    seen = []
    real = cli.instantiate

    def spy(*args, **kwargs):
        seen.append(real(*args, **kwargs))
        return seen[-1]

    monkeypatch.setattr(cli, "instantiate", spy)
    tracemalloc.start()
    try:
        rc, _ = _run(tmp_path, *command, "--program", "@mp_two", "--n", "1024",
                     "--seeds", "2")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == 0 and len(seen) == 2
    assert all(not r.matrices and set(r.samplers) == {"A"} for r in seen)
    assert peak < 2048 * 1024 * 8


def test_free_probe_products_above_the_element_cap_form_no_matrix(monkeypatch, tmp_path):
    # W W has no exact centering constant, so every product of W, whose
    # 8193 x 8193 entries are above ELEMENT_CAP, is a sampled probe product
    seen = []
    real = freeness.instantiate

    def spy(*args, **kwargs):
        seen.append(real(*args, **kwargs))
        return seen[-1]

    monkeypatch.setattr(freeness, "instantiate", spy)
    path = tmp_path / "ww.word"
    path.write_text("mat W\nmat W\n\ndiag xv step(x1)\n")
    rc, _ = _run(tmp_path, "free", "--program", "@fipbase", "--word", str(path),
                 "--method", "hutch", "--n", "4096,8193", "--seeds", "2")
    assert rc == 0 and len(seen) == 4
    assert seen[-1].dims["c"] ** 2 > ELEMENT_CAP
    assert not any(r.matrices for r in seen)


def _bytes_under_blas_threads(tmp_path, argv) -> list[bytes]:
    """CSV bytes + NUL + stderr of argv, run under 1 and under 2 OpenBLAS threads."""
    src = str(Path(infwidth.__file__).resolve().parents[1])
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        out = tmp_path / f"threads{threads}.csv"
        proc = subprocess.run([sys.executable, "-m", "infwidth.cli", *argv, "--out", str(out)],
                              env=env, capture_output=True)
        assert proc.returncode == 0, proc.stderr
        outputs.append(out.read_bytes() + b"\0" + proc.stderr)
    return outputs


def test_sampled_verify_bytes_do_not_depend_on_blas_threads(tmp_path):
    argv = ["verify", "--program", "@mp_two", "--n", "256,1024,4096", "--seeds", "2",
            "--ensemble", "4000"]
    one, two = _bytes_under_blas_threads(tmp_path, argv)
    assert one == two


@pytest.mark.parametrize("argv", [
    ["limit", "--program", "@semicircle", "--ensemble", "200000", "--replicas", "1"],
    ["limit", "--program", "@mp_two", "--ensemble", "200000", "--replicas", "8"],
], ids=["semicircle_r1", "mp_two_r8"])
def test_limit_bytes_do_not_depend_on_blas_threads(tmp_path, argv):
    # at these sizes OpenBLAS would split n-length dots and gemv over its threads
    one, two = _bytes_under_blas_threads(tmp_path, argv)
    assert one == two


@pytest.mark.parametrize("replicas", [1, 8])
@pytest.mark.parametrize("argv,solves", [
    (["verify", "--program", "@atav", "--n", "64,128", "--seeds", "2"], 1),
    (["free", "--program", "@fipbase", "--word", "@word_a", "--n", "32,64", "--seeds", "2",
      "--witness"], 4),
    (["limit", "--program", "@atav"], 1),
], ids=["verify", "free_witness", "limit"])
def test_a_single_ensemble_and_no_replica_computes_correction_stderrs(
        monkeypatch, tmp_path, argv, solves, replicas):
    # one stderr per correction solve at one replica, whatever the command
    # prints; replicas report their spread, so they compute none
    calls = solves if replicas == 1 else 0
    argv = argv + ["--ensemble", "8000", "--replicas", str(replicas)]
    seen = []
    real = LimitState._correction_stderr

    def spy(self, *args):
        seen.append(args)
        return real(self, *args)

    monkeypatch.setattr(LimitState, "_correction_stderr", spy)
    rc, _ = _run(tmp_path, *argv)
    assert rc == 0 and len(seen) == calls


def test_jacobian_over_the_element_cap_samples_its_products(tmp_path):
    n = 8193  # W2 would have 8193^2 > ELEMENT_CAP entries
    assert n * n > ELEMENT_CAP
    tracemalloc.start()
    try:
        rc, data = _run(tmp_path, "jacobian", "--layers", "2", "--size", str(n),
                        "--kmax", "2")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == 0
    assert [row[0] for row in csv.reader(io.StringIO(data.decode()))] == ["k", "1", "2"]
    assert peak < n * n  # W2 would take 8 n^2 bytes


# runs each command in a fresh interpreter and prints, after each, whether
# a scipy module is loaded; with "block", importing scipy raises ImportError
_SCIPY_PROBE = """
import json, sys
if sys.argv[2] == "block":
    sys.modules["scipy"] = None
from infwidth.cli import run
loaded = []
for argv in json.loads(sys.argv[1]):
    assert run(argv) == 0, argv
    loaded.append(any(name.split(".")[0] == "scipy" and module is not None
                      for name, module in sys.modules.items()))
print(json.dumps(loaded))
"""


def _scipy_probe(tmp_path, mode):
    out = str(tmp_path / "out.csv")
    commands = [
        ["sim", "--program", "@atav", "--n", "32", "--seeds", "2", "--test", "x1 * x2:v,x"],
        ["limit", "--program", "@atav", "--ensemble", "200", "--test", "x1 * x2:v,x"],
        ["verify", "--program", "@atav", "--n", "32", "--seeds", "2", "--ensemble", "200",
         "--test", "x1 * x2:v,x"],
        ["free", "--program", "@fipbase", "--word", "@word_a", "--n", "32,64", "--seeds", "2",
         "--witness", "--ensemble", "200"],
        ["law", "mp", "--rho", "0.5", "--rmax", "3"],
        ["jacobian", "--layers", "2", "--size", "32", "--kmax", "2"],  # exact path
        ["jacobian", "--layers", "2", "--size", "1100", "--kmax", "2"],  # probe path
    ]
    src = str(Path(infwidth.__file__).resolve().parents[1])
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    argv = json.dumps([[*cmd, "--out", out] for cmd in commands])
    proc = subprocess.run([sys.executable, "-c", _SCIPY_PROBE, argv, mode],
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_no_command_imports_scipy(tmp_path):
    assert _scipy_probe(tmp_path, "load") == [False] * 7


def test_every_command_runs_without_scipy(tmp_path):
    assert _scipy_probe(tmp_path, "block") == [False] * 7


def test_law_mp_density_needs_rho(tmp_path):
    rc, data = _run(tmp_path, "law", "mp", "--density")
    assert rc == 2
    assert data.decode() == "error,kind,message\nerror,ValueError,mp law needs --rho > 0\n"


def test_law_mp_density_reports_atom(tmp_path):
    # at rho = 2 half the mass sits at zero, outside every density row
    rc, data = _run(tmp_path, "law", "mp", "--rho", "2", "--density", "--xmin", "0",
                    "--xmax", "6", "--points", "20001")
    assert rc == 0
    lines = data.decode().splitlines()
    assert lines[0] == "x,density"
    assert lines[-1] == "atom,0.5"
    xs, ys = np.array([[float(c) for c in ln.split(",")] for ln in lines[1:-1]]).T
    mass = float(np.sum(0.5 * (ys[1:] + ys[:-1]) * np.diff(xs)))
    assert abs(mass + 0.5 - 1.0) <= 1e-3


def _load_replay():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "replay.py"
    spec = importlib.util.spec_from_file_location("perfbench_replay", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize(
    "name", ["limit_r1", "limit_r4", "verify", "free_hutch_witness", "jacobian_probe"]
)
def test_benchmark_replay_matches_cli(tmp_path, capsys, name):
    # the benchmark's traced replay calls the library directly and must keep
    # writing the CLI's bytes
    replay = _load_replay()
    prog = tmp_path / "golden.ntp"
    prog.write_text(_GOLDEN_PROGRAM)
    argv = [a.format(prog=prog) for a in _GOLDEN[name]]
    outputs = []
    for label, runner in [("cli", run), ("replay", lambda a: replay.run(replay.Tracer(), a))]:
        out = tmp_path / f"{label}.csv"
        capsys.readouterr()
        rc = runner(argv + ["--out", str(out)])
        outputs.append((rc, out.read_bytes(), capsys.readouterr().err))
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("probes", [0, 1])
def test_free_rejects_fewer_than_two_probes(tmp_path, probes):
    rc, data = _run(tmp_path, "free", "--program", "@fipbase", "--word", "@word_a",
                    "--n", "64", "--method", f"hutch:{probes}")
    assert rc == 2
    lines = data.decode().splitlines()
    assert lines[0] == "error,kind,message"
    assert lines[1].startswith("error,ValueError,")


def _error_row(data: bytes) -> str:
    lines = data.decode().splitlines()
    assert lines[0] == "error,kind,message"
    assert len(lines) == 2
    return lines[1]


@pytest.mark.parametrize("method", ["exact", "hutchx", "hutch:", "hutch:x", "auto:4"])
def test_free_method_errors(tmp_path, method):
    rc, data = _run(tmp_path, "free", "--program", "@fipbase", "--word", "@word_a",
                    "--n", "600", "--method", method)
    assert rc == 2
    if method == "exact":  # the dense cap of centered traces is 512
        assert _error_row(data) == "error,CapExceeded,side 600 exceeds dense cap 512"
    else:
        assert _error_row(data) == (f"error,ValueError,\"unknown method '{method}'; "
                                    "use auto, exact, hutch or hutch:p\"")


@pytest.mark.parametrize("tol", ["inf", "nan", "-1"])
def test_verify_rejects_tol_not_finite_non_negative(tmp_path, tol):
    rc, data = _run(tmp_path, "verify", "--program", "@atav", "--n", "16,32", "--seeds", "1",
                    "--ensemble", "100", "--tol", tol)
    assert rc == 2
    assert _error_row(data) == (f"error,ValueError,verify needs a finite --tol >= 0 "
                                f"(got {float(tol)})")


def test_sim_rejects_non_finite_mean(tmp_path):
    prog = tmp_path / "nan_mean.ntp"
    prog.write_text("vector v : a mean nan\n")
    rc, data = _run(tmp_path, "sim", "--program", str(prog), "--n", "8", "--seeds", "1",
                    "--test", "x1:v")
    assert rc == 2
    assert _error_row(data) == 'error,ParseError,"line 1, col 1: vector v: mean must be finite"'


@pytest.mark.parametrize("flags", [["--ensemble", "1"], ["--ensemble", "5", "--replicas", "8"]])
def test_limit_rejects_ensembles_below_two_samples(tmp_path, flags):
    rc, data = _run(tmp_path, "limit", "--program", "@atav", *flags)
    assert rc == 2
    assert _error_row(data).startswith("error,ValueError,a limit ensemble needs at least 2")


def test_jacobian_rho_list_must_be_square(tmp_path):
    base = ["jacobian", "--layers", "3", "--size", "64", "--seeds", "2"]
    rc, data = _run(tmp_path, *base, "--rho-list", "0.5,0.5")
    assert rc == 2
    assert _error_row(data).startswith("error,ValueError,")
    rc_sq, square = _run(tmp_path, *base, "--rho-list", "1,1")
    rc_none, default = _run(tmp_path, *base)
    assert rc_sq == rc_none == 0
    assert square == default


def _near_semicircle(row, value_key):
    # the z0 z_k averages of @semicircle tend to the k-th semicircle moment
    want = semicircle_moment(int(row["stat"].rpartition(",z")[2]))
    return abs(float(row[value_key]) - want) <= 0.05 * max(1.0, want)


def test_sim_and_verify_run_at_n_1e5(tmp_path):
    # W : 10^5 x 10^5 is never drawn; its products are sampled exactly
    rc, data = _run(tmp_path, "sim", "--program", "@semicircle", "--n", "100000",
                    "--seeds", "2")
    assert rc == 0
    rows = list(csv.DictReader(io.StringIO(data.decode())))
    assert len(rows) == 8 and all(_near_semicircle(r, "value") for r in rows)
    rc, data = _run(tmp_path, "verify", "--program", "@semicircle", "--n", "4096,100000",
                    "--seeds", "2", "--ensemble", "20000", "--replicas", "2")
    assert rc == 0
    rows = [r for r in csv.DictReader(io.StringIO(data.decode())) if r["n"] == "100000"]
    assert len(rows) == 4 and all(r["verdict"] == "pass" for r in rows)
    assert all(_near_semicircle(r, "empirical") for r in rows)


@pytest.mark.parametrize("kmax", [0, -3])
def test_jacobian_rejects_kmax_below_one(tmp_path, kmax):
    rc, data = _run(tmp_path, "jacobian", "--layers", "2", "--size", "16",
                    "--kmax", str(kmax))
    assert rc == 2
    assert _error_row(data) == f"error,ValueError,jacobian needs --kmax >= 1 (got {kmax})"


@pytest.mark.parametrize("kmax", [33, 350])
def test_jacobian_rejects_kmax_above_32(tmp_path, kmax):
    # at 350 the finite moments overflow, and the limit moments go negative
    # from k = 68 at L = 2
    rc, data = _run(tmp_path, "jacobian", "--layers", "2", "--size", "8",
                    "--kmax", str(kmax))
    assert rc == 2
    assert _error_row(data) == f"error,ValueError,jacobian needs --kmax <= 32 (got {kmax})"


@pytest.mark.parametrize("argv, message", [
    (["catalan", "--rmax", "600"], "catalan law moment 520 exceeds the float range: "
                                   "lower --rmax (got 600)"),
    (["semicircle", "--rmax", "2000"], "semicircle law moment 1040 exceeds the float "
                                       "range: lower --rmax (got 2000)"),
    (["mp", "--rho", "0.5", "--rmax", "2000"], "--rho 0.5 is too large for the mp law at "
                                               "--rmax 2000: mp law moment M_673 at "
                                               "rho = 0.5 exceeds the float range"),
], ids=["catalan", "semicircle", "mp"])
def test_law_names_the_flag_when_a_moment_overflows(tmp_path, argv, message):
    rc, data = _run(tmp_path, "law", *argv)
    assert rc == 2
    assert _error_row(data) == f"error,ValueError,{message}"


@pytest.mark.parametrize("q1", ["0", "nan", "inf"])
def test_jacobian_rejects_q1_not_positive_finite(tmp_path, q1):
    rc, data = _run(tmp_path, "jacobian", "--layers", "2", "--size", "16", "--q1", q1)
    assert rc == 2
    assert _error_row(data) == "error,ValueError,q1 must be positive and finite"


@pytest.mark.parametrize("argv", [
    ["catalan", "--rmax", "-1"],
    ["semicircle", "--rmax", "0"],
    ["mp", "--rho", "0.5", "--rmax", "0"],
    ["semicircle", "--density", "--points", "0"],
    ["mp", "--rho", "2", "--density", "--points", "0"],
    ["mp", "--rho", "nan"],
    ["mp", "--rho", "inf"],
    ["mp", "--rho", "1e308"],
    ["mp", "--rho", "1e200"],
    ["semicircle", "--density", "--xmin", "nan"],
    ["semicircle", "--density", "--xmax", "inf"],
])
def test_law_rejects_empty_tables(tmp_path, argv):
    rc, data = _run(tmp_path, "law", *argv)
    assert rc == 2
    assert _error_row(data).startswith("error,ValueError,")


def test_law_smallest_tables(tmp_path):
    rc, data = _run(tmp_path, "law", "catalan", "--rmax", "0")
    assert rc == 0
    assert data.decode().splitlines() == ["law,param,r,value", "catalan,,0,1.0"]
    rc, data = _run(tmp_path, "law", "semicircle", "--density", "--xmin", "0", "--points", "1")
    assert rc == 0
    assert data.decode().splitlines()[0] == "x,density"
    assert len(data.decode().splitlines()) == 2


def test_free_single_size_has_no_decay_slope(tmp_path, capsys):
    capsys.readouterr()
    rc, data = _run(tmp_path, "free", "--program", "@fipbase", "--word", "@word_a",
                    "--n", "64", "--seeds", "2")
    assert rc == 0
    assert len(data.decode().splitlines()) == 2
    assert capsys.readouterr().err == "decay_slope nan\n"


# a nonlin that reads no input is a constant column of its class size on
# both sides, so a later matmul of it runs; the limit of m is 1.5^2 = 2.25
_CONSTANT_NONLIN = """\
matrix W : c x c var 1.0
vector v : c
scalar th limit 1.5
{}
x = matmul W g
m = moment x1 * x1 (x)
"""


@pytest.mark.parametrize("nonlin", ["g = nonlin 1.5 (v)", "g = nonlin p1 (v ; th)"])
def test_nonlin_reading_no_input_runs(tmp_path, nonlin):
    prog = tmp_path / "constant.ntp"
    prog.write_text(_CONSTANT_NONLIN.format(nonlin))
    for argv in (["sim", "--n", "256", "--seeds", "2"],
                 ["verify", "--n", "256,1024", "--seeds", "4", "--ensemble", "20000"]):
        rc, data = _run(tmp_path, argv[0], "--program", str(prog), *argv[1:])
        assert rc == 0, data
    rc, data = _run(tmp_path, "limit", "--program", str(prog), "--replicas", "8")
    assert rc == 0, data
    (row,) = [r for r in csv.DictReader(io.StringIO(data.decode())) if r["object"] == "m"]
    assert abs(float(row["value"]) - 2.25) <= 3.0 * float(row["stderr"])


def test_free_cells_on_threads_keep_their_bytes(monkeypatch, tmp_path, capsys):
    # the (n, seed) cells run on --workers threads, each a pure function of
    # its cell, so the CSV and the decay slope keep their bytes
    argv = _golden_argv(tmp_path, "free_auto")
    mapped = []
    real = freeness.map_threads

    def spy(fn, cells, workers):
        mapped.append((len(cells), workers))
        return real(fn, cells, workers)

    monkeypatch.setattr(freeness, "map_threads", spy)
    outputs = []
    for workers in ("1", "2"):
        capsys.readouterr()
        rc, data = _run(tmp_path, *argv, "--workers", workers)
        assert rc == 0
        outputs.append(data + b"\0" + capsys.readouterr().err.encode())
    assert mapped == [(4, 1), (4, 2)]  # n = 96, 600 times 2 seeds
    assert outputs[0] == outputs[1]
    assert hashlib.sha256(outputs[1]).hexdigest() == _GOLDEN_SHA["free_auto"]
