import gc
import math
import os
import threading
import time
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest

from infwidth import corpus, dsl, limits
from infwidth import exprs as E
from infwidth.errors import NonPSDExtension, StepAtJump, UnknownSymbol
from infwidth.laws import catalan, semicircle_b_coeff
from infwidth.limits import (
    STDERR_BLOCK_ROWS,
    STDERR_ROWS,
    LimitState,
    build_limit,
    build_replicated,
)
from infwidth.numerics import hermite_pair_expectation, pseudoinverse
from infwidth.program import (
    CovDecl,
    MatMul,
    MatrixDecl,
    Moment,
    Nonlin,
    ScalarDecl,
    ScalarRule,
    VectorDecl,
    build_program,
)

N = 60_000
XY = E.mul(E.x(0), E.x(1))


@pytest.fixture(scope="module")
def semicircle_rep():
    return build_replicated(
        corpus.load_program("semicircle"), n_samples=2 * N, seed=17, replicas=6
    )


@pytest.fixture(scope="module")
def semicircle_state(semicircle_rep):
    return semicircle_rep.states[0]


@pytest.fixture(scope="module")
def mp_states():
    return {
        rho: build_replicated(corpus.load_program(name), n_samples=2 * N, seed=23, replicas=6)
        for rho, name in [(0.5, "mp_half"), (1.0, "mp_one"), (2.0, "mp_two")]
    }


def test_mlp_hat_variance_and_independence():
    phi = E.tanh(E.x(0))
    prog = build_program(
        [
            VectorDecl("h1", "l1"),
            MatrixDecl("W2", "l2", "l1", 1.0),
            Nonlin("x1", phi, ("h1",)),
            MatMul("h2", "W2", False, "x1"),
        ]
    )
    st = build_limit(prog, n_samples=N, seed=5)
    var_x1 = float(np.mean(st.cols["x1"] ** 2))
    var_h2 = float(np.mean(st.cols["h2"] ** 2))
    assert var_h2 == pytest.approx(var_x1, rel=6 / math.sqrt(N) * 4)
    corr = float(np.corrcoef(st.cols["h2"], st.cols["h1"])[0, 1])
    assert abs(corr) <= 6 / math.sqrt(N)


def test_moment_of_constant():
    prog = build_program(
        [VectorDecl("v", "c"), Moment("m", E.const(5.0), ("v",))]
    )
    st = build_limit(prog, n_samples=1000, seed=0)
    assert st.scalar_limit("m") == (5.0, 0.0)


def test_first_family_member_is_unconditional_gaussian():
    prog = build_program(
        [
            MatrixDecl("W", "c", "c", 2.0),
            VectorDecl("v", "c"),
            MatMul("g", "W", False, "v"),
        ]
    )
    st = build_limit(prog, n_samples=N, seed=2)
    var = float(np.mean(st.gauss_cols["g"] ** 2))
    assert var == pytest.approx(2.0, rel=6 / math.sqrt(N) * 3)


def test_duplicate_product_is_deterministic_copy():
    # applying the same matrix to the same input twice: conditional variance 0
    prog = build_program(
        [
            MatrixDecl("W", "c", "c", 1.0),
            VectorDecl("v", "c"),
            MatMul("g1", "W", False, "v"),
            MatMul("g2", "W", False, "v"),
        ]
    )
    st = build_limit(prog, n_samples=10_000, seed=3)
    assert np.allclose(st.gauss_cols["g1"], st.gauss_cols["g2"], atol=1e-10)
    assert any("DegenerateGVar" in d for d in st.diagnostics)


def test_semicircle_second_step_hats_uncorrelated(semicircle_state):
    st = semicircle_state
    corr = float(np.corrcoef(st.gauss_cols["x2"], st.gauss_cols["x1"])[0, 1])
    assert abs(corr) <= 6 / math.sqrt(st.n_samples)


def test_family_covariance_tracks_ensemble(semicircle_state):
    st = semicircle_state
    for family in st.families.values():
        cols = np.column_stack([st.gauss_cols[nm] for nm in family.outputs])
        emp = cols.T @ cols / st.n_samples
        scale = max(1.0, float(np.max(np.abs(family.cov))))
        assert np.max(np.abs(emp - family.cov)) <= 6 / math.sqrt(st.n_samples) * scale * 3


def test_cross_family_columns_uncorrelated(semicircle_state):
    st = semicircle_state
    fams = list(st.families.values())
    for i in range(len(fams)):
        for j in range(i + 1, len(fams)):
            for a in fams[i].outputs[:3]:
                for b in fams[j].outputs[:3]:
                    corr = float(np.corrcoef(st.gauss_cols[a], st.gauss_cols[b])[0, 1])
                    assert abs(corr) <= 6 / math.sqrt(st.n_samples)


def test_zdot_atav_coefficient_is_one():
    st = build_limit(corpus.load_program("atav"), n_samples=N, seed=29)
    ys, coeffs, ses = st.correction_coeffs("x")
    assert ys == ("v",)
    assert abs(coeffs[0] - 1.0) <= 3.0 * ses[0]


def test_zdot_fresh_matrix_empty():
    prog = build_program(
        [
            MatrixDecl("W", "c", "c", 1.0),
            MatrixDecl("V", "c", "c", 1.0),
            VectorDecl("v", "c"),
            MatMul("a", "W", False, "v"),
            MatMul("b", "V", False, "a"),
        ]
    )
    st = build_limit(prog, n_samples=5000, seed=0)
    ys, coeffs, _ = st.correction_coeffs("b")
    assert ys == () and coeffs.size == 0


def test_zdot_gia_break_coefficient_two():
    st = build_replicated(corpus.load_program("giabreak"), n_samples=2 * N, seed=202, replicas=10)
    ys, coeffs, ses = st.correction_coeffs("dx1")
    assert ys == ("one",)
    assert abs(coeffs[0] - 2.0) <= 3.0 * ses[0]
    mean, se = st.expect(E.x(0), ["dx1"])
    assert abs(mean - 2.0) <= 3.0 * se


def test_zdot_mp_coefficients(mp_states):
    for rho, st in mp_states.items():
        ys, coeffs, ses = st.correction_coeffs("u2")
        assert ys == ("u1",)
        assert abs(coeffs[0] - rho) <= 3.0 * ses[0], rho
        # and the forward product picks up (rho, 1) on (v0, v1)
        ys2, c2, se2 = st.correction_coeffs("v2")
        assert ys2 == ("v0", "v1")
        assert abs(c2[0] - rho) <= 3.0 * se2[0]
        assert abs(c2[1] - 1.0) <= 3.0 * se2[1]


def test_semicircle_zdot_matches_catalan_weights(semicircle_rep):
    # coefficient of the correction of x^{t+1} on z^s is b^t_{s+1} / 2
    st = semicircle_rep
    for t_out, expect_rs in [("x3", [1, 0, 1]), ("x4", [0, 2, 0, 1])]:
        t = int(t_out[1]) - 1
        ys, coeffs, ses = st.correction_coeffs(t_out)
        assert ys == tuple(f"z{s}" for s in range(t))
        for s, (a, se) in enumerate(zip(coeffs, ses)):
            want = 0.5 * semicircle_b_coeff(t, s + 1)
            assert abs(a - want) <= 3.0 * se + 1e-12, (t_out, s)


def test_expect_semicircle_catalan(semicircle_rep):
    st = semicircle_rep
    for k in range(0, 4):
        mean, se = st.expect(XY, ["z0", f"z{2 * k}"]) if k else (1.0, 0.0)
        assert abs(mean - catalan(k)) <= 3.0 * se + 1e-12


def test_expect_mp_second_moment(mp_states):
    st = mp_states[1.0]
    mean, se = st.expect(XY, ["v0", "v2"])
    assert abs(mean - 2.0) <= 3.0 * se


def test_scalar_limits():
    rule = ScalarRule(E.x(0))  # theta = 1/n -> 0
    prog = build_program(
        [
            VectorDecl("v", "c"),
            ScalarDecl("th", 0.0, rule),
            Moment("m2", E.pow_(E.x(0), 2), ("v",)),
            # continuous in th: the jump of step(x1 - th) is a null set of v
            Moment("ms", E.step(E.sub(E.x(0), E.p(0))), ("v",), ("th",)),
            # m2's limit 1 is far from the jump at 0.5 in units of its stderr
            Moment("mj", E.step(E.sub(E.p(0), E.const(0.5))), ("v",), ("m2",)),
        ]
    )
    st = build_limit(prog, n_samples=N, seed=4)
    assert st.scalar_limit("th") == (0.0, 0.0)
    m, se = st.scalar_limit("m2")
    assert abs(m - 1.0) <= 3.0 * se
    m, se = st.scalar_limit("ms")
    assert abs(m - 0.5) <= 3.0 * se
    assert st.scalar_limit("mj") == (1.0, 0.0)
    with pytest.raises(UnknownSymbol):
        st.scalar_limit("nope")


def test_scalar_limit_wwt_trace():
    # (1/n) u^T W W^T u converges to the first spectral moment 1
    prog = build_program(
        [
            MatrixDecl("W", "c", "c", 1.0),
            VectorDecl("u", "c"),
            MatMul("a", "W", True, "u"),
            MatMul("b", "W", False, "a"),
            Moment("tau", XY, ("u", "b")),
        ]
    )
    st = build_limit(prog, n_samples=N, seed=6)
    tau, se = st.scalar_limit("tau")
    assert abs(tau - 1.0) <= 3.0 * se


def test_nonpsd_extension_rejected():
    prog = build_program(
        [
            MatrixDecl("W", "c", "c", 1.0),
            VectorDecl("v", "c"),
            MatMul("g", "W", False, "v"),
        ]
    )
    st = build_limit(prog, n_samples=1000, seed=0)
    family = st.families[("W", False)]
    with pytest.raises(NonPSDExtension):
        st.extend_family(family, np.array([10.0]), 1.0, label="bad")


def test_parameterized_nonlin_uses_limit_values():
    prog = build_program(
        [
            VectorDecl("v", "c"),
            Moment("m2", E.pow_(E.x(0), 2), ("v",)),
            Nonlin("z", E.mul(E.p(0), E.x(0)), ("v",), ("m2",)),
            Moment("out", E.pow_(E.x(0), 2), ("z",)),
        ]
    )
    st = build_limit(prog, n_samples=N, seed=9)
    out, se = st.scalar_limit("out")
    assert abs(out - 1.0) <= 4.0 * se  # E (m2 v)^2 -> 1 since m2 -> 1


def test_hermite_oracle_matches_ensemble_expect():
    # independent oracle for 2-variable expectations on correlated unit nodes
    cases = {
        "identity": E.x(0),
        "square": E.pow_(E.x(0), 2),
        "step": E.step(E.x(0)),
        "tanh": E.tanh(E.x(0)),
        "relu_clamped": E.clamp(E.x(0), 0.0, 1.0),
    }
    for rho in (-0.9, -0.5, 0.0, 0.5, 0.9):
        prog = build_program(
            [VectorDecl("a", "c"), VectorDecl("b", "c"), CovDecl("a", "b", rho)]
        )
        st = build_limit(prog, n_samples=N, seed=abs(hash(rho)) % 2**32)
        for name_a, fa in cases.items():
            for name_b, fb in cases.items():
                test = E.mul(fa, E.substitute(fb, {0: E.x(1)}))
                mc, se = st.expect(test, ["a", "b"])
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")
                    oracle = hermite_pair_expectation(fa, fb, rho, trunc=80)
                assert abs(mc - oracle) <= 3.0 * se + 2e-3, (name_a, name_b, rho)


def test_prefix_monotone_processing():
    prog = corpus.load_program("atav")
    st = LimitState(prog, n_samples=2000, seed=1)
    st.advance(prog.instructions[0])
    before = st.cols["y"].copy()
    st.advance(prog.instructions[1])
    assert np.array_equal(before, st.cols["y"])


# Moment scalars, a parameterised nonlin and a transposed product with a
# correction part, so every pooled query has something to pool.
_POOL_PROGRAM = """\
matrix W : c x c var 0.5
vector z0 : c
x1 = matmul W z0
y1 = matmul W^T z0
z1 = nonlin x1 + x2 (x1, y1)
m1 = moment x1 * x2 (z0, z1)
z2 = nonlin p1 * x1 (z1 ; m1)
m2 = moment x1^2 (z2)
"""


def _no_stderr(*args):
    raise AssertionError("a replicated build computed a correction stderr")


@pytest.mark.parametrize("replicas", [1, 3])
def test_replicated_equals_manual_pool_of_independent_builds(replicas, monkeypatch):
    prog = dsl.parse_program(_POOL_PROGRAM)
    n, seed = 6001, 4
    with monkeypatch.context() as m:
        if replicas > 1:  # replicas report their spread and never need the stderr
            m.setattr(LimitState, "_correction_stderr", _no_stderr)
        rep = build_replicated(prog, n_samples=n, seed=seed, replicas=replicas)
    states = [
        build_limit(prog, n_samples=max(2, n // replicas), seed=seed * 1_000_003 + r)
        for r in range(replicas)
    ]

    def manual(pairs):
        if replicas == 1:  # the single ensemble keeps its own stderr
            return pairs[0]
        vals = np.array([v for v, _ in pairs])
        return np.mean(vals, axis=0), np.std(vals, ddof=1, axis=0) / math.sqrt(3)

    test = E.mul(E.x(0), E.x(1))
    want = manual([st.expect(test, ["z0", "z2"]) for st in states])
    assert rep.expect(test, ["z0", "z2"]) == tuple(map(float, want))
    for nm in ("m1", "m2"):
        want = manual([st.scalar_limit(nm) for st in states])
        assert rep.scalar_limit(nm) == tuple(map(float, want))
    ys, coeffs, ses = rep.correction_coeffs("y1")
    assert ys == ("z0",)
    want_c, want_se = manual([st.correction_coeffs("y1")[1:] for st in states])
    np.testing.assert_array_equal(coeffs, want_c)
    np.testing.assert_array_equal(ses, want_se)
    assert rep.correction_info["y1"] == (ys, coeffs, ses)
    # replicas leave their own correction stderr NaN
    assert all(np.isnan(st.correction_info["y1"][2]).all() == (replicas > 1) for st in rep.states)
    with pytest.raises(UnknownSymbol):
        rep.correction_coeffs("z1")
    with pytest.raises(UnknownSymbol):
        rep.states[0].correction_coeffs("z1")


def test_build_replicated_rejects_zero_replicas():
    with pytest.raises(ValueError):
        build_replicated(corpus.load_program("atav"), n_samples=100, replicas=0)


def test_limit_ensembles_need_two_samples_each():
    atav = corpus.load_program("atav")
    with pytest.raises(ValueError, match=r"at least 2 samples \(got 1\)"):
        build_limit(atav, n_samples=1)
    # 5 samples over 8 replicas leave none per replica
    with pytest.raises(ValueError, match=r"at least 2 samples \(got 0\)"):
        build_replicated(atav, n_samples=5, replicas=8)
    assert len(build_replicated(atav, n_samples=16, replicas=8).states) == 8


def test_replicated_diagnostics_cover_every_replica():
    prog = build_program(
        [
            MatrixDecl("W", "c", "c", 1.0),
            VectorDecl("v", "c"),
            MatMul("g1", "W", False, "v"),
            MatMul("g2", "W", False, "v"),
        ]
    )
    rep = build_replicated(prog, n_samples=3000, seed=3, replicas=3)
    shared = list(rep.states[0].diagnostics)
    assert shared and all(st.diagnostics == shared for st in rep.states)
    rep.states[1].diagnostics.append("DegenerateGVar: seen in replica 1 only")
    assert rep.diagnostics() == shared + ["DegenerateGVar: seen in replica 1 only"]


def _answered_program(name):
    """A program and the (test, vectors) pairs a build of it is asked for."""
    if name in corpus.VERIFY_TESTS:
        prog = corpus.load_program(name)
        tests = [(E.parse_expr(t), vecs) for t, vecs in corpus.VERIFY_TESTS[name]]
    else:
        prog = dsl.parse_program({"pool": _POOL_PROGRAM, "duplicated": _DUPLICATED}[name])
        tests = []
    vectors = [v.name for v in prog.vectors] + [
        i.out for i in prog.instructions if not isinstance(i, Moment)]
    tests += [(XY, [nm, nm]) for nm in vectors] + [(E.tanh(E.x(0)), [vectors[-1]])]
    return prog, tests


def _advanced(prog, n_samples, seed, with_stderr=True):
    """The reference state: every instruction through LimitState.advance,
    which draws the normals and computes the stderrs inline."""
    st = LimitState(prog, n_samples=n_samples, seed=seed, _with_stderr=with_stderr)
    for instr in prog.instructions:
        st.advance(instr)
    return st


def _advanced_replicas(prog, n_samples, seed, replicas):
    """build_replicated's states as a manual pool of directly advanced ones."""
    return [_advanced(prog, n_samples // replicas, seed * 1_000_003 + r, replicas == 1)
            for r in range(replicas)]


@pytest.mark.parametrize("direct", [True, False])
@pytest.mark.parametrize("replicas", [1, 3, 8])
@pytest.mark.parametrize("name", ["semicircle", "mp_two", "giabreak", "pool", "duplicated"])
def test_answers_records_pool_to_the_kept_states_floats(name, replicas, direct):
    """The answers of a build with tests are the floats of its kept states, and
    of a manual pool of directly advanced ones (`direct`)."""
    prog, tests = _answered_program(name)
    kw = dict(n_samples=2400, seed=9, replicas=replicas)
    if direct:
        kept = limits.ReplicatedLimit(_advanced_replicas(prog, **kw))
    else:
        kept = build_replicated(prog, **kw)
    answered = build_replicated(prog, **kw, tests=tests)
    assert all(isinstance(st, LimitState) for st in kept.states)
    assert all(isinstance(st, limits.ReplicaAnswers) for st in answered.states)
    for test, vecs in tests:
        assert answered.expect(test, vecs) == kept.expect(test, vecs)
    for nm in prog.scalar_names:
        assert answered.scalar_limit(nm) == kept.scalar_limit(nm)
    assert answered.correction_info.keys() == kept.correction_info.keys()
    for g, (ys, coeffs, ses) in kept.correction_info.items():
        got = answered.correction_info[g]
        assert got[0] == ys
        assert got[1].tobytes() == coeffs.tobytes() and got[2].tobytes() == ses.tobytes()
    assert answered.diagnostics() == kept.diagnostics()
    assert any(d.startswith("DegenerateGVar") for d in answered.diagnostics()) == (
        name == "duplicated")


def test_answers_records_answer_only_the_declared_tests():
    prog = corpus.load_program("semicircle")
    rep = build_replicated(prog, n_samples=2000, seed=1, replicas=2,
                           tests=[(XY, ["z0", "z2"])])
    rep.expect(XY, ["z0", "z2"])
    for test, vecs in [(XY, ["z0", "z1"]), (E.tanh(E.x(0)), ["z2"])]:
        with pytest.raises(UnknownSymbol) as err:
            rep.expect(test, vecs)
        assert str(err.value).startswith(
            f"expectation of {E.format_expr(test)} over {','.join(vecs)} is not among")
    with pytest.raises(UnknownSymbol):
        rep.states[0].scalar_limit("nope")


@pytest.mark.parametrize("replicas", [1, 8])
def test_a_build_with_tests_frees_each_replica_before_the_next(monkeypatch, replicas):
    """At most two replicas are alive: when replica r's chain starts, the states
    alive are r's and r + 1's, whose normals the helper draws meanwhile, and
    every family store, Gaussian part and stored column of replica r - 2 is
    gone (r - 1's last fill may still be leaving the helper).  All are gone
    when the build returns, by reference counting alone."""
    built = []  # every replica's state, in order
    refs = []  # per replica whose chain has run
    real_queue, real = limits._queue_fills, limits._run_chain

    def queue(state, helper):
        built.append(weakref.ref(state))
        return real_queue(state, helper)

    def run_chain(state):
        r = len(refs)
        assert [i for i, st in enumerate(built) if st() is not None] == list(
            range(r, min(r + 2, replicas)))
        assert all(ref() is None for rs in refs[:-1] for ref in rs)
        state = real(state)
        refs.append([weakref.ref(a) for a in [
            *(f.store for f in state.families.values()),
            *state.gauss_cols.values(), *dict.values(state.cols)]])
        return state

    monkeypatch.setattr(limits, "_queue_fills", queue)
    monkeypatch.setattr(limits, "_run_chain", run_chain)
    gc.disable()
    try:
        rep = build_replicated(corpus.load_program("semicircle"), n_samples=800 * replicas,
                               seed=5, replicas=replicas, tests=[(XY, ["z0", "z2"])])
        assert [len(rs) for rs in refs] == [2 + 12 + 7] * replicas
        assert all(ref() is None for rs in refs for ref in rs)
        assert all(st() is None for st in built)
    finally:
        gc.enable()
    assert len(rep.states) == replicas


def _chain(maps):
    """z_i = f_i(W z_{i-1}, W^T z_{i-1}) over one square matrix."""
    lines = ["matrix W : c x c var 0.5", "vector z0 : c"]
    for i, f in enumerate(maps, start=1):
        lines += [f"x{i} = matmul W z{i - 1}", f"y{i} = matmul W^T z{i - 1}",
                  f"z{i} = nonlin {f} (x{i}, y{i})"]
    return dsl.parse_program("\n".join(lines) + "\n")


_MIXED = ["x1 + x2", "tanh(x1 + x2)", "relu(x1) + x2", "x1 + x2",
          "clamp(x1 + x2, -2.0, 2.0)", "x1 + x2", "tanh(x1 + x2)", "relu(x1) + x2"]


def test_single_ensemble_computes_the_stderr_once_per_correction_solve(monkeypatch):
    prog = _chain(_MIXED)
    calls = []
    real = LimitState._correction_stderr

    def counted(self, *args):
        calls.append(args)
        return real(self, *args)

    monkeypatch.setattr(LimitState, "_correction_stderr", counted)
    rep = build_replicated(prog, n_samples=3000, seed=2, replicas=1)
    solves = [g for g, (ys, _, _) in rep.correction_info.items() if ys]
    # every matmul but the first has a non-empty opposite family
    assert len(calls) == len(solves) == 2 * len(_MIXED) - 1
    assert all(np.isfinite(rep.correction_info[g][2]).all() for g in solves)


def _reference_correction(st, instr):
    """The correction solve as first written: stacked copies of the columns, a
    Gram matrix from yc.T @ yc and the full N x k influence matrix."""
    ys = st.correction_info[instr.out][0]
    opposite = st.families.get((instr.matrix, not instr.transposed))
    if not ys:
        return np.zeros(0), np.zeros(0)
    assert ys == tuple(opposite.inputs[: len(ys)])
    yc = np.column_stack([st.cols[nm] for nm in ys])
    hc = np.column_stack([st.gauss_cols[nm] for nm in opposite.outputs[: len(ys)]])
    xcol = st.cols[instr.vin]
    n = st.n_samples
    gram = (yc.T @ yc) / n
    b = hc.T @ xcol / n
    rho = st.program.matrix_ratio(instr.matrix, instr.transposed)
    cplus = pseudoinverse(gram)
    w = cplus @ b
    r = hc * xcol[:, None] - yc * (yc @ w)[:, None]
    infl = (r - r.mean(axis=0)) @ (cplus.T / rho)
    return w / rho, infl.std(axis=0, ddof=1) / math.sqrt(n)


def _solved_id(case):
    name, n = case
    return name if n == 20_000 else f"{name}-{n}"


@pytest.fixture(scope="module", params=[("semicircle", 20_000), ("mixed8", 20_000)],
                ids=_solved_id)
def solved_state(request):
    name, n = request.param
    prog = _chain(_MIXED) if name == "mixed8" else corpus.load_program(name)
    return build_limit(prog, n_samples=n, seed=8)


# mp_two is rectangular (rho_applied != 1); the sample counts put the end of
# the stderr's row blocks inside, at and one past a block boundary
@pytest.mark.parametrize(
    "solved_state",
    [(name, n) for name in ("semicircle", "mixed8", "mp_two")
     for n in (20_000, STDERR_BLOCK_ROWS - 1, 2 * STDERR_BLOCK_ROWS, 2 * STDERR_BLOCK_ROWS + 1)],
    ids=_solved_id, indirect=True,
)
def test_correction_solve_matches_reference_formulas(solved_state):
    st = solved_state
    matmuls = [i for i in st.program.instructions if isinstance(i, MatMul)]
    assert sum(len(st.correction_info[i.out][0]) for i in matmuls) > 0
    for instr in matmuls:
        _, coeffs, ses = st.correction_info[instr.out]
        want_c, want_se = _reference_correction(st, instr)
        tol = 1e-8 * np.maximum(np.abs(want_c), want_se)
        assert np.all(np.abs(coeffs - want_c) <= tol), instr.out
        assert np.all(np.abs(ses - want_se) <= 1e-8 * want_se), instr.out


def test_family_gram_and_column_store(solved_state):
    st = solved_state
    for family in st.families.values():
        y = np.column_stack([st.cols[nm] for nm in family.inputs])
        want = family.var_scale * (y.T @ y) / st.n_samples
        assert np.max(np.abs(family.cov - want)) <= 1e-12 * max(1.0, np.max(np.abs(want)))
        # every Gaussian part is a view into the family store, never a copy
        assert all(np.shares_memory(st.gauss_cols[nm], family.store) for nm in family.outputs)


def _affine_chain_coefficients(depth, sigma2=0.5):
    """Exact correction coefficients of ``_chain(["x1 + x2"] * depth)``, by product.

    Each z_i is a linear form over z0 and the products' Gaussian parts.  The
    coefficient of x_i (y_i) on z_j is sigma2 / rho (rho = 1) times the
    coefficient of the Gaussian part of y_{j+1} (x_{j+1}) in z_{i-1}.
    """
    forms = [{"z0": 1.0}]
    want = {}
    for i in range(1, depth + 1):
        z = {}
        # x_i corrects over the inputs z_0..z_{i-2} of y_1..y_{i-1}; y_i, which
        # comes after x_i, over the inputs z_0..z_{i-1} of x_1..x_i
        for out, opp, k in (("x", "y", i - 1), ("y", "x", i)):
            coeffs = [sigma2 * forms[i - 1].get(f"{opp}{j + 1}", 0.0) for j in range(k)]
            want[f"{out}{i}"] = np.array(coeffs)
            for form, a in [({f"{out}{i}": 1.0}, 1.0), *zip(forms, coeffs)]:
                for key, c in form.items():
                    z[key] = z.get(key, 0.0) + a * c
        forms.append(z)
    return want


@pytest.mark.parametrize("seed", range(4))
def test_affine_chain_coefficients_match_exact_oracle(seed):
    # the chain's Gram matrix is the semicircle Hankel matrix, condition 2.9e12
    # at depth 16: every coefficient must still agree with the exact value
    st = build_limit(_chain(["x1 + x2"] * 16), n_samples=20_000, seed=seed)
    z = []
    for g, exact in _affine_chain_coefficients(16).items():
        ys, coeffs, ses = st.correction_coeffs(g)
        assert len(ys) == exact.size, g
        z.extend((coeffs - exact) / ses)
    z = np.array(z)
    assert z.size == 2 * sum(range(16)) + 16
    assert np.max(np.abs(z)) <= 4.0
    assert math.sqrt(np.mean(z**2)) <= 1.5
    assert not st.diagnostics


# W v twice: the second input is an exact copy, so the first carries the sum
_DUPLICATED = (
    "matrix W : c x c var 1.0\nvector v : c\n"
    "g1 = matmul W v\ng2 = matmul W v\n"
    "u = nonlin tanh(x1) + x1 (g1)\nh = matmul W^T u\n"
)


def test_dependent_input_gets_zero_coefficient():
    prog = dsl.parse_program(_DUPLICATED)
    st = build_limit(prog, n_samples=20_000, seed=5)
    ys, coeffs, ses = st.correction_coeffs("h")
    assert ys == ("v", "v")
    assert coeffs[1] == 0.0 and ses[1] == 0.0
    assert coeffs[0] > 0.0 and ses[0] > 0.0
    # the pseudoinverse splits the same sum evenly over the two copies
    want, _ = _reference_correction(st, prog.instructions[-1])
    assert abs(coeffs[0] - want.sum()) <= 1e-10
    correction = st.cols["h"] - st.gauss_cols["h"]
    np.testing.assert_allclose(correction, (want[0] + want[1]) * st.cols["v"], rtol=0, atol=1e-10)
    assert any(d.startswith("DegenerateGVar: g2 ") for d in st.diagnostics)


def _dense_stderr(st, instr):
    """A correction's stderr from the engine's own solve, recomputed densely on
    the first STDERR_ROWS samples: the influence ``r = h x - y (y . w)``, its
    covariance, then ``sqrt(diag(m^T Cov(r) m) / n)`` over all n samples."""
    ys, coeffs, _ = st.correction_info[instr.out]
    opposite = st.families[(instr.matrix, not instr.transposed)]
    k, u = len(ys), min(st.n_samples, STDERR_ROWS)
    rho = st.program.matrix_ratio(instr.matrix, instr.transposed)
    kept = [j for j in opposite.kept if j < k]  # the inputs with a pivot at the solve
    linv = np.linalg.inv(opposite.factor[np.ix_(kept, kept)])
    m = np.zeros((k, k))
    m[np.ix_(kept, kept)] = linv.T @ linv / rho
    y = np.column_stack([st.cols[nm][:u] for nm in ys])
    r = opposite.store[:u, :k] * st.cols[instr.vin][:u, None] - y * (y @ (coeffs * rho))[:, None]
    cov = np.atleast_2d(np.cov(r, rowvar=False))
    return np.sqrt(np.diag(m.T @ cov @ m) / st.n_samples)


@pytest.mark.parametrize("n", [20_000, STDERR_ROWS, STDERR_ROWS + 1, 50_000])
@pytest.mark.parametrize("name", ["semicircle", "mixed8", "mp_two", "duplicated"])
def test_correction_stderr_reads_the_first_stderr_rows(monkeypatch, name, n):
    if name == "mixed8":
        prog = _chain(_MIXED)
    elif name == "duplicated":
        prog = dsl.parse_program(_DUPLICATED)
    else:
        prog = corpus.load_program(name)
    st = build_limit(prog, n_samples=n, seed=4)
    matmuls = [i for i in prog.instructions if isinstance(i, MatMul)]
    solved = [i for i in matmuls if st.correction_info[i.out][0]]
    assert solved
    for instr in solved:
        ses = st.correction_info[instr.out][2]
        want = _dense_stderr(st, instr)
        assert np.all(np.abs(ses - want) <= 1e-12 * want), instr.out
    if n <= STDERR_ROWS:  # a small ensemble reads every sample, as before
        monkeypatch.setattr(limits, "STDERR_ROWS", n)
        every = build_limit(prog, n_samples=n, seed=4)
        for instr in matmuls:
            assert (st.correction_info[instr.out][2].tobytes()
                    == every.correction_info[instr.out][2].tobytes()), instr.out


def _answers(prog, n_samples, seed):
    """Correction info, every XY expectation against the first vector, and the
    scalar limits of a single ensemble; its columns are freed on return."""
    st = build_limit(prog, n_samples=n_samples, seed=seed)
    vectors = [v.name for v in prog.vectors] + [
        i.out for i in prog.instructions if not isinstance(i, Moment)]
    expects = [st.expect(XY, [vectors[0], nm]) for nm in vectors]
    return dict(st.correction_info), expects, dict(st.scalar_limits)


@pytest.mark.parametrize("name", ["affine16", "mixed16", "semicircle"])
def test_stderr_rows_move_the_stderrs_by_under_5_percent(monkeypatch, name):
    prog = {"affine16": lambda: _chain(["x1 + x2"] * 16), "mixed16": lambda: _chain(_MIXED * 2),
            "semicircle": lambda: corpus.load_program("semicircle")}[name]()
    n = 200_000
    info, expects, scalars = _answers(prog, n, seed=11)
    monkeypatch.setattr(limits, "STDERR_ROWS", n)  # every sample, as before
    want_info, want_expects, want_scalars = _answers(prog, n, seed=11)
    assert expects == want_expects and scalars == want_scalars
    assert info.keys() == want_info.keys()
    for g, (ys, coeffs, ses) in info.items():
        want_ys, want_coeffs, want_ses = want_info[g]
        assert ys == want_ys and coeffs.tobytes() == want_coeffs.tobytes(), g
        assert np.all(np.abs(ses - want_ses) <= 0.05 * want_ses), g


def test_deep_chain_stores_no_product_column():
    # x_i and y_i are read once, by z_i, so the build holds the two family
    # stores of 16 Gaussian parts each, the 17 z_i and a few temporaries
    n = 2**16
    tracemalloc.start()
    try:
        build_limit(_chain(["x1 + x2"] * 16), n_samples=n, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= (2 * 16 + 17 + 4) * 8 * n


# x is read by a matmul, so it is stored; y and h are read by no matmul
_FORMED = """\
matrix W : c x c var 1.0
vector v : c
x = matmul W v
y = matmul W^T x
z = nonlin tanh(x1) + x2 (x, y)
h = matmul W z
"""


def test_only_products_a_matmul_reads_are_stored():
    st = build_limit(dsl.parse_program(_FORMED), n_samples=5000, seed=2)
    assert sorted(st.cols) == ["v", "x", "z"]
    assert st.cols["x"] is st.cols["x"]
    for nm in ("y", "h"):
        ys, coeffs, _ = st.correction_info[nm]
        assert ys
        want = st.gauss_cols[nm].copy()
        for a, y in zip(coeffs, ys):
            want += a * st.cols[y]
        first = st.cols[nm]
        assert first.tobytes() == want.tobytes()
        assert st.cols[nm] is not first and st.cols[nm].tobytes() == want.tobytes()
    with pytest.raises(KeyError):
        st.cols["nope"]


def test_a_state_is_freed_by_reference_counting_alone():
    prog = dsl.parse_program(_FORMED)
    gc.disable()
    try:
        st = build_limit(prog, n_samples=1000, seed=0)
        rep = build_replicated(prog, n_samples=2000, seed=0, replicas=2)
        refs = [weakref.ref(st)] + [weakref.ref(s) for s in rep.states]
        assert all(r() is not None for r in refs)
        del st, rep
        assert all(r() is None for r in refs)
    finally:
        gc.enable()


def _same_state(a, b, prog):
    assert a.correction_info.keys() == b.correction_info.keys()
    for g, (ys, coeffs, ses) in a.correction_info.items():
        assert isinstance(ses, np.ndarray)
        want = b.correction_info[g]
        assert ys == want[0]
        assert coeffs.tobytes() == want[1].tobytes() and ses.tobytes() == want[2].tobytes()
    vectors = [v.name for v in prog.vectors] + [
        i.out for i in prog.instructions if not isinstance(i, Moment)]
    for nm in vectors:
        assert a.cols[nm].tobytes() == b.cols[nm].tobytes(), nm
        assert a.expect(XY, [vectors[0], nm]) == b.expect(XY, [vectors[0], nm])
    assert a.scalar_limits == b.scalar_limits
    assert a.diagnostics == b.diagnostics


@pytest.mark.parametrize("name", ["affine8", "mixed8", "duplicated"])
def test_helper_thread_and_one_cpu_build_the_same_bytes(monkeypatch, name):
    """Builds draw their normals, and a single ensemble its stderrs, on the
    helper, on any number of CPUs, with the bytes of directly advanced states."""
    prog = {"affine8": lambda: _chain(["x1 + x2"] * 8), "mixed8": lambda: _chain(_MIXED),
            "duplicated": lambda: dsl.parse_program(_DUPLICATED)}[name]()
    on_helper = {"fills": [], "stderrs": []}

    def spy(kind, real):
        def run(*args):
            on_helper[kind].append(threading.current_thread() is not threading.main_thread())
            return real(*args)
        return run

    monkeypatch.setattr(limits, "_draw_fresh", spy("fills", limits._draw_fresh))
    monkeypatch.setattr(LimitState, "_correction_stderr",
                        spy("stderrs", LimitState._correction_stderr))

    def builds():  # a single ensemble with its stderrs, and two replicas without
        return (build_limit(prog, n_samples=20_000, seed=6),
                build_replicated(prog, n_samples=40_000, seed=6, replicas=2))

    helped = builds()
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    one_cpu = builds()
    reference = (_advanced(prog, 20_000, 6), _advanced_replicas(prog, 40_000, 6, 2))
    matmuls = sum(isinstance(i, MatMul) for i in prog.instructions)
    solves = sum(bool(ys) for ys, _, _ in helped[0].correction_info.values())
    # both builds ran their normals and stderrs on the helper, the reference inline
    assert on_helper["fills"] == [True] * 6 * matmuls + [False] * 3 * matmuls
    assert on_helper["stderrs"] == [True] * 2 * solves + [False] * solves
    assert all(np.isfinite(ses).all() for _, _, ses in helped[0].correction_info.values())
    for built in (helped, one_cpu):
        _same_state(built[0], reference[0], prog)
        for a, b in zip(built[1].states, reference[1], strict=True):
            _same_state(a, b, prog)
    assert any(d.startswith("DegenerateGVar") for d in helped[0].diagnostics) == (name == "duplicated")


# m1's limit is 0, on the jump of step, so m2 raises StepAtJump after 4 of the
# 16 products
_JUMP_AFTER_DEPTH_2 = "\n".join(
    ["matrix W : c x c var 0.5", "vector z0 : c"]
    + [line for i in range(1, 9) for line in (
        f"x{i} = matmul W z{i - 1}", f"y{i} = matmul W^T z{i - 1}",
        f"z{i} = nonlin x1 + x2 (x{i}, y{i})",
        *(["m1 = moment x1 (z2)", "m2 = moment step(p1) (z2 ; m1)"] if i == 2 else []))]
) + "\n"


@pytest.mark.parametrize("one_cpu", [False, True])
@pytest.mark.parametrize("error", [StepAtJump, NonPSDExtension])
def test_an_error_part_way_cancels_the_queued_jobs(monkeypatch, error, one_cpu):
    if one_cpu:  # the build still queues its work on a helper, and cancels it
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    prog = dsl.parse_program(_JUMP_AFTER_DEPTH_2)
    if error is NonPSDExtension:  # the same chain, failing at its fifth product instead
        prog = _chain(["x1 + x2"] * 8)
        real_extend = LimitState.extend_family

        def extend(self, family, gram_row, gram_diag, label):
            return real_extend(self, family, gram_row, -1.0 if label == "x3" else gram_diag,
                               label)

        monkeypatch.setattr(LimitState, "extend_family", extend)
    ran = []

    def slow(real):
        def run(*args):
            time.sleep(0.02)
            ran.append(real(*args))
        return run

    monkeypatch.setattr(limits, "_draw_fresh", slow(limits._draw_fresh))
    monkeypatch.setattr(LimitState, "_correction_stderr", slow(LimitState._correction_stderr))
    threads = threading.active_count()
    with pytest.raises(error):
        build_replicated(prog, n_samples=2000, seed=1)
    after = len(ran)
    assert threading.active_count() == threads
    time.sleep(0.2)
    # every build queues its 16 fills up front, and the stderrs behind them:
    # the error cancels what has not started
    assert len(ran) == after and after < 16


def test_an_error_in_a_replicated_chain_cancels_the_next_replicas_fills(monkeypatch):
    """Replica 0's chain raises after replica 1's fills are queued behind its
    own: the error propagates, no fill of replica 1 runs and the helper is
    joined, so the build leaves no thread behind."""
    queued, ran = [], []
    real_queue, real_draw = limits._queue_fills, limits._draw_fresh

    def queue(state, helper):
        queued.append(state.seed)
        return real_queue(state, helper)

    def slow(seed, family, k):
        time.sleep(0.02)
        ran.append(seed)
        real_draw(seed, family, k)

    monkeypatch.setattr(limits, "_queue_fills", queue)
    monkeypatch.setattr(limits, "_draw_fresh", slow)
    threads = threading.active_count()
    with pytest.raises(StepAtJump):
        build_replicated(dsl.parse_program(_JUMP_AFTER_DEPTH_2), n_samples=8 * 2000, seed=1,
                         replicas=8, tests=[])
    after = len(ran)
    assert threading.active_count() == threads
    assert queued == [1_000_003, 1_000_004]
    time.sleep(0.2)
    # replica 0 stopped after 4 of its 16 products, before its last fills ran
    assert len(ran) == after and set(ran) == {1_000_003} and after < 16


def _info_bytes(info):
    return {g: (ys, coeffs.tobytes(), ses.tobytes()) for g, (ys, coeffs, ses) in info.items()}


@pytest.mark.parametrize("name", ["semicircle", "mixed8"])
def test_a_pipelined_replicated_build_has_the_bytes_of_an_inline_one(name):
    """An R = 8 build whose helper draws the next replica's normals while a
    chain runs gives the answers and kept states of a manual pool of
    directly advanced states."""
    prog = corpus.load_program("semicircle") if name == "semicircle" else _chain(_MIXED)
    vectors = [v.name for v in prog.vectors] + [
        i.out for i in prog.instructions if not isinstance(i, Moment)]
    tests = [(XY, [vectors[0], nm]) for nm in vectors]
    kw = dict(n_samples=8 * 1500, seed=4, replicas=8)
    answered = build_replicated(prog, **kw, tests=tests)
    kept = build_replicated(prog, **kw)  # as the replay reads them
    inline = _advanced_replicas(prog, **kw)
    assert len(answered.states) == len(kept.states) == len(inline) == 8
    for a, b in zip(answered.states, inline):
        assert a.expectations == {(t, tuple(vecs)): b.expect(t, vecs) for t, vecs in tests}
        assert a.scalar_limits == b.scalar_limits
        assert _info_bytes(a.correction_info) == _info_bytes(b.correction_info)
        assert a.diagnostics == b.diagnostics
    for a, b in zip(kept.states, inline):
        _same_state(a, b, prog)
