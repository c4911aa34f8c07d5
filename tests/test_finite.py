import math
import os
import random
import subprocess
import sys
import tracemalloc
import warnings
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

import infwidth
from conftest import block_reference, dense, random_bounded_expr
from infwidth import corpus, finite
from infwidth import exprs as E
from infwidth.errors import (
    CapExceeded,
    DimClassConflict,
    MemoryPolicyError,
    ShapeMismatch,
)
from infwidth.finite import (
    BLOCK_ENTRIES,
    ELEMENT_CAP,
    EXACT_CAP,
    HUTCHINSON_PROBES,
    SUPPORT_ALIGN,
    DiagFactor,
    MatFactor,
    MatrixWord,
    ProductSampler,
    diag_entries,
    dims_for_scale,
    eig_spectrum,
    empirical_average,
    instantiate,
    power_traces,
    probe_forms,
    resolve_dims,
    spectral_moments,
    trace_moment,
    trace_probes,
    word_apply,
    word_block,
)
from infwidth.freeness import ACTIVATIONS, jacobian_finite, jacobian_word, mlp_program
from infwidth.laws import mp_atom, mp_density
from infwidth.numerics import sample_init_block, stream
from infwidth.program import (
    MatMul,
    MatrixDecl,
    Moment,
    Nonlin,
    RatioDecl,
    VectorDecl,
    build_program,
)


def semicircle_program(depth: int):
    decls = [MatrixDecl("W", "c", "c", 0.5), VectorDecl("z0", "c")]
    for t in range(1, depth + 1):
        decls += [
            MatMul(f"x{t}", "W", False, f"z{t-1}"),
            MatMul(f"y{t}", "W", True, f"z{t-1}"),
            Nonlin(f"z{t}", E.add(E.x(0), E.x(1)), (f"x{t}", f"y{t}")),
        ]
    return build_program(decls)


def gauss_program(names=("v",), cls="c"):
    return build_program([VectorDecl(nm, cls) for nm in names])


def test_semicircle_iterates_match_matrix_power():
    prog = semicircle_program(4)
    r = instantiate(prog, {"c": 4}, seed=7)
    (w,) = r.form("W")
    a = w + w.T
    v = r.vectors["z0"]
    for t in range(1, 5):
        v = a @ v
        assert np.max(np.abs(v - r.vectors[f"z{t}"])) <= 1e-12 * max(1.0, np.max(np.abs(v)))


def test_deterministic_mean_variance_zero_vector_is_exact():
    prog = build_program([VectorDecl("one", "c", mean=1.0, var=0.0)])
    r = instantiate(prog, {"c": 64}, seed=3)
    assert np.array_equal(r.vectors["one"], np.ones(64))


def test_same_seed_bit_identical():
    prog = corpus.load_program("giabreak")
    r1 = instantiate(prog, dims_for_scale(prog, 128), seed=11)
    r2 = instantiate(prog, dims_for_scale(prog, 128), seed=11)
    for k in r1.vectors:
        assert np.array_equal(r1.vectors[k], r2.vectors[k])
    for m in prog.matrices:
        assert np.array_equal(r1.form(m.name)[0], r2.form(m.name)[0])
    assert r1.scalars == r2.scalars


def test_memory_policy_cap():
    prog = build_program(
        [MatrixDecl("W", "c", "c", 1.0), VectorDecl("v", "c"), MatMul("x", "W", False, "v")]
    )
    # W : 8193 x 8193 is above ELEMENT_CAP; its products are sampled
    # without drawing it, a probe product too, and the cap is checked when
    # W is formed
    n = 8193
    assert n * n > ELEMENT_CAP
    r = instantiate(prog, {"c": n}, seed=0)
    assert "W" not in r.matrices
    tracemalloc.start()
    try:
        with pytest.raises(MemoryPolicyError):
            r.form("W")
        got = word_apply(r, MatrixWord((MatFactor("W"),)), r.vectors["v"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got.shape == (n,) and not r.matrices
    assert peak < n * n  # W would take 8 n^2 bytes


def test_probe_moments_above_the_element_cap_form_no_matrix():
    # W W^T of fipbase at n = 8193, whose W is above ELEMENT_CAP: its probe
    # moments sample every product and are those of MP(1), 1, 2 and 5
    prog = corpus.load_program("fipbase")
    r = instantiate(prog, dims_for_scale(prog, 8193), seed=1)
    assert r.dims["c"] ** 2 > ELEMENT_CAP
    moments = spectral_moments(r, MatrixWord((MatFactor("W"), MatFactor("W", True))), 3,
                               method="hutch")
    assert not r.matrices
    for (mean, se), want in zip(moments, [1.0, 2.0, 5.0]):
        assert abs(mean - want) <= 4.0 * se


@pytest.mark.parametrize("transposed", [False, True])
def test_a_product_sampled_before_form_is_the_formed_one(transposed):
    # a sampled product extends W's sampler, so the W formed afterwards
    # reproduces it to rounding; after that, products multiply the formed
    # W, bit for bit (n and the probe count are multiples of SUPPORT_ALIGN,
    # so the padded buffer is W itself)
    prog = corpus.load_program("fipbase")
    r = instantiate(prog, dims_for_scale(prog, 96), seed=3)
    word = MatrixWord((MatFactor("W", transposed),))
    probe = stream(3, "probe").standard_normal((96, HUTCHINSON_PROBES))
    sampled = word_apply(r, word, probe)
    (w,) = r.form("W")
    formed = (w.T if transposed else w) @ probe
    assert np.max(np.abs(sampled - formed)) <= 1e-12 * np.max(np.abs(formed))
    assert np.array_equal(word_apply(r, word, probe), formed)


def test_dims_must_cover_and_agree():
    prog = semicircle_program(1)
    with pytest.raises(DimClassConflict):
        resolve_dims(prog, {})


def test_dims_off_the_declared_ratio_warn():
    # mp_two declares class m at twice class n: at n = 64, 129 rows are
    # within 1% and one entry of the ratio, 150 are not
    prog = corpus.load_program("mp_two")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert resolve_dims(prog, {"m": 129, "n": 64}) == {"m": 129, "n": 64}
    with pytest.warns(UserWarning, match=r"dimension 150 of class 'm' is more than 1% away "
                      r"from the declared limiting ratio \(expected ~128\)"):
        resolve_dims(prog, {"m": 150, "n": 64})


def test_empirical_average_lln():
    prog = gauss_program()
    r = instantiate(prog, {"c": 1_000_000}, seed=5)
    assert empirical_average(r, E.pow_(E.x(0), 2), ["v"]) == pytest.approx(1.0, abs=0.01)


def test_empirical_average_constant_exact():
    prog = gauss_program()
    r = instantiate(prog, {"c": 100}, seed=5)
    assert empirical_average(r, E.const(3.0), ["v"]) == 3.0


def test_empirical_average_correlated_vs_independent():
    prog = gauss_program(("v", "w"))
    r = instantiate(prog, {"c": 1_000_000}, seed=9)
    same = empirical_average(r, E.mul(E.x(0), E.x(1)), ["v", "v"])
    cross = empirical_average(r, E.mul(E.x(0), E.x(1)), ["v", "w"])
    assert same - cross == pytest.approx(1.0, abs=0.01)


def test_empirical_average_class_conflict():
    prog = build_program([VectorDecl("v", "a"), VectorDecl("w", "b")])
    r = instantiate(prog, {"a": 8, "b": 8}, seed=0)
    with pytest.raises(DimClassConflict):
        empirical_average(r, E.mul(E.x(0), E.x(1)), ["v", "w"])


def test_word_apply_unit_probe_gives_column():
    prog = semicircle_program(1)
    r = instantiate(prog, {"c": 16}, seed=2)
    e1 = np.zeros(16)
    e1[0] = 1.0
    (w,) = r.form("W")  # a product of W not formed yet is sampled
    got = word_apply(r, MatrixWord((MatFactor("W"),)), e1)
    assert np.array_equal(got, w[:, 0])


def test_word_apply_matches_dense_product():
    prog = semicircle_program(1)
    r = instantiate(prog, {"c": 64}, seed=2)
    w = r.form("W")[0]
    v = r.vectors["z0"]
    got = word_apply(r, MatrixWord((MatFactor("W", True), MatFactor("W"))), v)
    want = w.T @ (w @ v)
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_word_apply_diag_masks():
    prog = semicircle_program(1)
    r = instantiate(prog, {"c": 64}, seed=2)
    word = MatrixWord((DiagFactor(("x1",), E.step(E.x(0))),))
    got = word_apply(r, word, r.vectors["z0"])
    mask = r.vectors["x1"] > 0
    assert np.array_equal(got, np.where(mask, r.vectors["z0"], 0.0))


def test_word_apply_shape_checks():
    from infwidth.program import RatioDecl

    prog = build_program(
        [
            RatioDecl("n", 2.0),
            MatrixDecl("A", "m", "n", 1.0),
            VectorDecl("v", "m"),
            MatMul("u", "A", True, "v"),
        ]
    )
    r = instantiate(prog, {"m": 8, "n": 16}, seed=0)
    with pytest.raises(ShapeMismatch):
        word_apply(r, MatrixWord((MatFactor("A"), MatFactor("A"))), np.zeros(16))
    with pytest.raises(ShapeMismatch):
        word_apply(r, MatrixWord((MatFactor("A"),)), np.zeros(8))


def test_random_words_match_dense(seeded=100):
    prog = semicircle_program(2)
    r = instantiate(prog, {"c": 96}, seed=4)
    rng = random.Random(0)
    factories = [
        lambda: MatFactor("W"),
        lambda: MatFactor("W", True),
        lambda: DiagFactor(("z1",), random_bounded_expr(rng, 1, 2)),
    ]
    for _ in range(seeded):
        word = MatrixWord(tuple(rng.choice(factories)() for _ in range(rng.randint(1, 6))))
        dense = word_apply(r, word)
        probe = np.asarray(stream_probe := np.random.default_rng(1).standard_normal(96))
        got = word_apply(r, word, probe)
        want = dense @ probe
        assert np.max(np.abs(got - want)) <= 1e-10 * max(1.0, np.max(np.abs(want)))


def test_trace_empty_word_is_one():
    prog = semicircle_program(1)
    r = instantiate(prog, {"c": 8}, seed=0)
    assert trace_moment(r, MatrixWord(())) == (1.0, 0.0)


def test_trace_wwt_is_one():
    # (1/m) tr W W^T concentrates on the first spectral moment 1
    prog = semicircle_program(1)
    word = MatrixWord((MatFactor("W"), MatFactor("W", True)))
    vals = []
    for seed in range(4):
        r = instantiate(prog, {"c": 512}, seed=seed)
        # sigma2 = 1/2 here, so rescale to unit variance
        vals.append(2.0 * trace_moment(r, word, method="exact")[0])
    assert np.mean(vals) == pytest.approx(1.0, abs=0.05)


def test_hutchinson_agrees_with_exact():
    prog = semicircle_program(2)
    r = instantiate(prog, {"c": 128}, seed=6)
    word = MatrixWord(
        (MatFactor("W", True), DiagFactor(("z1",), E.tanh(E.x(0))), MatFactor("W"))
    )
    exact, _ = trace_moment(r, word, method="exact")
    est, se = trace_moment(r, word, method="hutch", probes=64)
    assert abs(est - exact) <= 4.0 * se


def test_hutchinson_unbiased_within_theoretical_stderr():
    # mean over 1e4 probes within 5 theoretical stderr of the exact trace,
    # for 20 random symmetric words at n = 256
    prog = semicircle_program(2)
    r = instantiate(prog, {"c": 256}, seed=13)
    rng = random.Random(3)
    factories = [
        lambda: MatFactor("W"),
        lambda: MatFactor("W", True),
        lambda: DiagFactor(("z1",), random_bounded_expr(rng, 1, 2)),
    ]
    for trial in range(20):
        half = MatrixWord(tuple(rng.choice(factories)() for _ in range(rng.randint(1, 3))))
        sym = MatrixWord(
            half.factors
            + tuple(
                MatFactor(f.name, not f.transposed) if isinstance(f, MatFactor) else f
                for f in reversed(half.factors)
            )
        )
        dense = word_apply(r, sym)
        n = dense.shape[0]
        exact = float(np.trace(dense)) / n
        theo_se = math.sqrt(2.0 * float(np.sum(dense * dense))) / (n * math.sqrt(10_000))
        est, _ = trace_moment(r, sym, method="hutch", probes=10_000)
        assert abs(est - exact) <= 5.0 * max(theo_se, 1e-15), trial


def test_spectral_moments_semicircle():
    prog = semicircle_program(1)
    word = MatrixWord((MatFactor("W"),)) * MatrixWord((MatFactor("W", True),))
    # symmetric word A = W + W^T built as a 2-term application is not a
    # single MatrixWord; use moments of the symmetrized product instead via
    # the dedicated helper below
    r = instantiate(prog, {"c": 2048}, seed=3)
    # moments of A = W + W^T via the identity tr A^r with A applied factorwise
    # are covered in the acceptance suite; here check tr (W W^T)^r ~ MP(1)
    m = spectral_moments(r, word, 4, method="hutch", probes=64)
    assert m[0][0] == pytest.approx(0.5, rel=0.05)  # sigma2 = 1/2 scales M_1
    assert m[1][0] == pytest.approx(0.5, rel=0.08)  # M_2 = 2 at sigma2^2 = 1/4


def test_trace_exact_equals_eigensum():
    prog = semicircle_program(1)
    r = instantiate(prog, {"c": 200}, seed=8)
    word = MatrixWord((MatFactor("W"), MatFactor("W", True)))
    tr, _ = trace_moment(r, word, method="exact")
    eigs = eig_spectrum(r, word)
    assert tr == pytest.approx(float(np.sum(eigs)) / 200, rel=1e-8)
    moments = spectral_moments(r, word, 3, method="exact")
    assert moments[0] == (tr, 0.0)
    for k, (m, _) in enumerate(moments, start=1):
        assert m == pytest.approx(float(np.sum(eigs**k)) / 200, rel=1e-8)


@pytest.mark.parametrize("symmetric", [True, False])
def test_power_traces_match_eigenvalue_power_sums(symmetric):
    a = np.random.default_rng(3).standard_normal((12, 12)) / math.sqrt(12)
    m = a + a.T if symmetric else a + 0.3 * np.eye(12)
    eigs = np.linalg.eigvals(m)
    for k_max in range(1, 8):  # odd and even tails
        variants = [power_traces(m, k_max)]
        if symmetric:  # contiguous inner products, valid for symmetric m only
            variants.append(power_traces(m, k_max, symmetric=True))
        for got in variants:
            assert len(got) == k_max
            for k, t in enumerate(got, start=1):
                want = float(np.sum(eigs**k).real)
                assert t == pytest.approx(want, rel=1e-10, abs=1e-12)


def _jacobian_realization(n: int, seed: int):
    phi, dphi = ACTIVATIONS["relu"]
    prog = mlp_program(3, phi, 1.0)
    return instantiate(prog, {rep: n for rep in prog.cdc_reps()}, seed), jacobian_word(3, dphi)


def _rect_realization():
    prog = build_program([
        RatioDecl("n", 2.0),
        MatrixDecl("A", "m", "n", 1.0),
        VectorDecl("v", "m"),
        MatMul("u", "A", True, "v"),
    ])
    return instantiate(prog, {"m": 8, "n": 16}, seed=3)


def _dense_word_cases():
    r, jac = _jacobian_realization(24, 1)
    step = lambda v: DiagFactor((v,), E.step(E.x(0)))  # noqa: E731
    half = DiagFactor(("h1",), E.const(-0.5))  # scalar image, negative: signed zeros
    rect = _rect_realization()
    sign = DiagFactor(("v",), E.sub(E.step(E.x(0)), E.const(0.5)))
    big, big_jac = _jacobian_realization(300, 2)  # 300 pads to 320
    return {
        "diagonal_first": (r, jac),
        "matrix_first": (r, MatrixWord((step("h3"), MatFactor("W3"), MatFactor("W2")))),
        "transpose_first": (r, MatrixWord((MatFactor("W2", True), step("h2"),
                                           MatFactor("W3", True)))),
        "all_diagonal": (r, MatrixWord((step("h1"), half, step("x1")))),
        "rectangular_transpose": (rect, MatrixWord((MatFactor("A", True), sign))),
        "unaligned_transpose_first": (big, big_jac.T),
    }


@pytest.mark.parametrize("case", ["diagonal_first", "matrix_first", "transpose_first",
                                  "all_diagonal", "rectangular_transpose",
                                  "unaligned_transpose_first"])
def test_dense_word_equals_identity_product(case):
    # without a probe the first factor applied is taken as it is, not
    # multiplied by the identity, and the entries are the same
    r, word = _dense_word_cases()[case]
    dense = word_apply(r, word)
    assert np.array_equal(dense, word_apply(r, word, np.eye(dense.shape[1])))
    formed = r.form(*(m.name for m in r.program.matrices))
    assert not any(np.shares_memory(dense, w) for w in formed)


def test_dense_word_errors():
    r, jac = _jacobian_realization(EXACT_CAP + 1, 1)
    with pytest.raises(ShapeMismatch, match="cannot form the empty word"):
        word_apply(r, MatrixWord(()))
    # the side is checked before any matrix is formed
    for dense_path in (lambda: spectral_moments(r, jac.T * jac, 2, "exact"),
                       lambda: eig_spectrum(r, jac.T * jac),
                       lambda: word_apply(r, jac)):
        with pytest.raises(CapExceeded, match="side 1025 exceeds dense cap 1024"):
            dense_path()
    assert not r.matrices


def _step_at(v: str, c: float = 0.0) -> DiagFactor:
    return DiagFactor((v,), E.step(E.sub(E.x(0), E.const(c))))


_SUPPORT_WORDS = {
    # diagonal applied first, an inner diagonal, a matrix last
    "jacobian": jacobian_word(3, E.step(E.x(0))),
    # matrix applied first, a diagonal last
    "jacobian_transpose": jacobian_word(3, E.step(E.x(0))).T,
    # runs of two diagonals with different zeros, first and last
    "diagonal_runs": MatrixWord((_step_at("h2"), _step_at("h2", -0.5), MatFactor("W3", True),
                                 _step_at("h3"), MatFactor("W3"), _step_at("h2", 0.5),
                                 _step_at("x2", 0.2))),
    # every entry zero: an empty support at both ends, or inside
    "empty": MatrixWord((_step_at("h2", 100.0), MatFactor("W2"), _step_at("h1", 100.0))),
    "inner_zero": MatrixWord((MatFactor("W3"), _step_at("h2", 100.0), MatFactor("W2"))),
}


def _aligned(m: int) -> int:
    return -(-m // SUPPORT_ALIGN) * SUPPORT_ALIGN


def _assert_kept_block(block, dense, kept):
    """block is word_block's: the padded kept sizes, the nonzeros of the
    dense word, and a Gram matrix with the dense Gram's power traces.
    kept counts the indices of each side the word's diagonals keep, and
    each side is padded with zeros to a multiple of SUPPORT_ALIGN, whether
    it keeps every index (n = 200 to 224) or not (a set of 199 to 224)."""
    assert block.shape == tuple(_aligned(k) for k in kept)
    assert np.count_nonzero(block) == np.count_nonzero(dense)
    scale = np.max(np.abs(dense), initial=0.0)
    assert np.allclose(np.sort(block[block != 0]), np.sort(dense[dense != 0]),
                       rtol=0.0, atol=1e-12 * scale)
    got = power_traces(block.T @ block, 4, symmetric=True)
    want = power_traces(dense.T @ dense, 4, symmetric=True)
    assert got == pytest.approx(want, rel=1e-10, abs=1e-12 * scale)


@pytest.mark.parametrize("n", [96, 200])
@pytest.mark.parametrize("case", sorted(_SUPPORT_WORDS))
def test_materialize_drops_zero_diagonal_coordinates(n, case):
    # word_block reads each W only where its neighbouring diagonals are
    # nonzero, so a row or column a diagonal zeros out is dropped from its
    # block; inner_zero has no outer diagonal and keeps every index
    r, _ = _jacobian_realization(n, 2)
    word = _SUPPORT_WORDS[case]
    dense = word_apply(r, word, np.eye(n))
    kept = (n, n) if case == "inner_zero" else (
        int(np.any(dense, axis=1).sum()), int(np.any(dense, axis=0).sum()))
    _assert_kept_block(word_block(r, word), dense, kept)


def _one_zero_word(r):
    """step(h2) | W2 | step(h1), each step zero only at its vector's least
    entry: 199 of 200 rows and columns kept, rounded past the side to 224."""
    def step(v):
        low = np.sort(r.vectors[v])[:2]
        return _step_at(v, float(low.mean()))
    return MatrixWord((step("h2"), MatFactor("W2"), step("h1")))


@pytest.mark.parametrize("n, case", [(200, "one_zero"), (700, "jacobian"),
                                     (700, "jacobian_transpose")])
def test_word_block_puts_the_kept_rows_and_columns_first(n, case):
    # the block's first rows and columns are the dense word's nonzero ones,
    # in order, and the zeros that pad each side to SUPPORT_ALIGN follow them
    r, jac = _jacobian_realization(n, 2)
    word = {"one_zero": _one_zero_word(r), "jacobian": jac, "jacobian_transpose": jac.T}[case]
    dense = word_apply(r, word)
    rows, cols = np.flatnonzero(dense.any(axis=1)), np.flatnonzero(dense.any(axis=0))
    if case == "one_zero":
        assert (len(rows), len(cols)) == (199, 199)
    block = word_block(r, word)
    assert block.shape == (_aligned(len(rows)), _aligned(len(cols)))
    scale = np.max(np.abs(dense))
    assert np.allclose(block[:len(rows), :len(cols)], dense[np.ix_(rows, cols)],
                       rtol=0.0, atol=1e-12 * scale)
    assert not block[len(rows):].any() and not block[:, len(cols):].any()


def test_word_without_zero_diagonal_entries_keeps_the_full_product():
    # tanh' has no zero: word_block keeps every index and takes the full
    # product's operations on operands padded with zeros from n = 200 to 224
    r, _ = _jacobian_realization(200, 2)
    word = jacobian_word(3, ACTIVATIONS["tanh"][1])
    block = word_block(r, word)
    pad = lambda a: np.pad(a, [(0, 24)] * a.ndim)  # noqa: E731
    d1, d2 = (pad(diag_entries(r, f)) for f in (word.factors[3], word.factors[1]))
    want = pad(r.form("W3")[0]) @ (d2[:, None] * np.multiply(pad(r.form("W2")[0]), d1, order="C"))
    assert np.array_equal(block, want)
    assert not want[200:].any() and not want[:, 200:].any()
    _assert_kept_block(block, word_apply(r, word, np.eye(200)), (200, 200))


def test_mirror_half():
    w, wt = MatFactor("W"), MatFactor("W", True)
    d = DiagFactor(("z1",), E.step(E.x(0)))
    assert MatrixWord((w, wt)).mirror_half() == MatrixWord((wt,))
    assert MatrixWord((wt, d, d, w)).mirror_half() == MatrixWord((d, w))
    assert MatrixWord((d, d)).mirror_half() == MatrixWord((d,))
    assert MatrixWord((w, wt, w, wt)).mirror_half() == MatrixWord((w, wt))
    jac = jacobian_word(3, E.step(E.x(0)))
    assert (jac.T * jac).mirror_half() == jac
    assert jac.T.T == jac
    for word in [(), (w,), (w, w), (w, d, wt), (d,), (wt, w, w), (w, wt, wt, w)]:
        assert MatrixWord(word).mirror_half() is None


def _mirror_cases():
    prog = semicircle_program(2)
    r = instantiate(prog, {"c": 96}, seed=4)
    w, wt = MatFactor("W"), MatFactor("W", True)
    d = DiagFactor(("z1",), E.step(E.x(0)))
    jr, jac = _jacobian_realization(96, 3)
    return [(r, MatrixWord((w, wt))), (r, MatrixWord((wt, d, d, w))),
            (jr, jac.T * jac)]


def _exact_mirror_cases():
    r, jac = _jacobian_realization(96, 3)
    step = DiagFactor(("h2",), E.step(E.x(0)))
    half = MatrixWord((step, MatFactor("W3", True)))  # W3^T applied first
    diag = MatrixWord((DiagFactor(("h1",), E.tanh(E.x(0))),))
    # A : 1040 x 520, so A^T A is within the dense cap and A is not
    mp_two = corpus.load_program("mp_two")
    tall = instantiate(mp_two, dims_for_scale(mp_two, 520), 0)
    return {"relu_jacobian": (r, jac), "transpose_first": (r, half), "diag_diag": (r, diag),
            "half_above_the_cap": (tall, MatrixWord((MatFactor("A"),)))}


@pytest.mark.parametrize("case", ["relu_jacobian", "transpose_first", "diag_diag",
                                  "half_above_the_cap"])
def test_exact_mirror_moments_match_dense_power_traces(case):
    # the exact moments of R^T R are power traces of the Gram matrix of R's
    # kept block, not of the dense word: they agree
    r, half = _exact_mirror_cases()[case]
    word = half.T * half
    assert word.mirror_half() == half
    if case == "relu_jacobian":
        assert word_block(r, half).shape[1] < 96  # J has dropped columns
    dense = word_apply(r, word)
    n = len(dense)
    want = power_traces(dense, 6)
    got = spectral_moments(r, word, 6, method="exact")
    assert [se for _, se in got] == [0.0] * 6
    assert [m for m, _ in got] == pytest.approx([t / n for t in want], rel=1e-10, abs=0.0)


@pytest.mark.parametrize("case", [0, 1, 2])
def test_mirror_forms_match_full_word_forms(case):
    # z^T (R^T R)^r z from one application of R or R^T per form equals the
    # full word's forms on the same probes
    r, word = _mirror_cases()[case]
    half = word.mirror_half()
    args = (96, 4, HUTCHINSON_PROBES, r.seed, "hutch", word.key())
    full = probe_forms(lambda v: word_apply(r, word, v), *args)
    got = probe_forms(lambda v: word_apply(r, half, v), *args,
                      adjoint=lambda v: word_apply(r, half.T, v))
    assert np.allclose(got, full, rtol=1e-12, atol=0.0)
    moments = spectral_moments(r, word, 4, method="hutch")
    for (mean, se), est in zip(moments, full / 96):
        assert mean == pytest.approx(np.mean(est), rel=1e-12)
        assert se == pytest.approx(np.std(est, ddof=1) / math.sqrt(HUTCHINSON_PROBES), rel=1e-12)


def test_non_mirror_forms_keep_the_full_word_path():
    # a single factor, a square of one matrix and an odd length: the probe
    # moments are the full word's forms, bit for bit.  Each pass samples
    # W's products, so each runs on a fresh realization of the same seed
    prog = semicircle_program(2)
    fresh = lambda: instantiate(prog, {"c": 96}, seed=4)
    w, wt = MatFactor("W"), MatFactor("W", True)
    d = DiagFactor(("z1",), E.step(E.x(0)))
    for word in [MatrixWord((w,)), MatrixWord((w, w)), MatrixWord((w, d, wt))]:
        r = fresh()
        forms = probe_forms(lambda v: word_apply(r, word, v), 96, 3, HUTCHINSON_PROBES, 4,
                            "hutch", word.key())
        want = [(float(np.mean(est)), float(np.std(est, ddof=1) / math.sqrt(HUTCHINSON_PROBES)))
                for est in forms / 96]
        assert spectral_moments(fresh(), word, 3, method="hutch") == want


def _block_forms_reference(b, z, k, adjoint):
    """z^T (B^T B)^r z (adjoint) or z^T B^r z for r = 1..k on the block z."""
    out, v = [], z
    for r in range(k):
        v = (b.T if adjoint and r % 2 else b) @ v
        out.append(np.einsum("ip,ip->p", v, v) if adjoint else np.einsum("ip,ip->p", z, v))
    return np.array(out)


@pytest.mark.parametrize("adjoint", [False, True])
@pytest.mark.parametrize("probes", [3, 4, 11])
def test_probe_forms_run_keyed_probe_blocks(monkeypatch, adjoint, probes):
    # blocks of PROBE_BLOCK columns, block 0 from (seed, *labels) and block
    # b >= 1 from (seed, *labels, b), each through every moment; a single
    # block is the one (n, probes) draw of the whole probe set
    monkeypatch.setattr(finite, "PROBE_BLOCK", 4)
    b = stream(0, "test-matrix").standard_normal((64, 64)) / 8
    got = probe_forms(lambda v: b @ v, 64, 3, probes, 5, "hutch", "w",
                      adjoint=(lambda v: b.T @ v) if adjoint else None)
    starts = range(0, probes, 4)
    keys = [("hutch", "w")] + [("hutch", "w", j) for j in range(1, len(starts))]
    want = np.hstack([
        _block_forms_reference(b, stream(5, *key).standard_normal((64, min(4, probes - start))),
                               3, adjoint)
        for key, start in zip(keys, starts)
    ])
    assert np.array_equal(got, want)
    if probes <= 4:
        whole = stream(5, "hutch", "w").standard_normal((64, probes))
        assert np.array_equal(got, _block_forms_reference(b, whole, 3, adjoint))


def test_trace_probes_takes_method_names_only():
    assert trace_probes(64, "auto", 128, 32) == 0
    assert trace_probes(256, "auto", 128, 32) == 32
    assert trace_probes(64, "hutch", 128, 8) == 8
    with pytest.raises(CapExceeded, match="side 256 exceeds dense cap 128"):
        trace_probes(256, "exact", 128, 32)
    for bad in [("hutch", 8), "hutchx"]:
        with pytest.raises(ValueError):
            trace_probes(64, bad, 128, 32)


def test_eig_spectrum_diag_words():
    prog = semicircle_program(1)
    r = instantiate(prog, {"c": 32}, seed=1)
    zeros = eig_spectrum(r, MatrixWord((DiagFactor(("z0",), E.const(0.0)),)))
    assert np.array_equal(zeros, np.zeros(32))
    ones = eig_spectrum(r, MatrixWord((DiagFactor(("z0",), E.const(1.0)),)))
    assert np.array_equal(ones, np.ones(32))
    big = instantiate(prog, {"c": EXACT_CAP + 1}, seed=1)
    with pytest.raises(CapExceeded, match="side 1025 exceeds dense cap 1024"):
        eig_spectrum(big, MatrixWord((DiagFactor(("z0",), E.const(1.0)),)))


def test_wishart_histogram_matches_mp_density():
    # 20-bin histogram of eig(W W^T) against the unit-ratio MP density
    prog = build_program(
        [MatrixDecl("A", "m", "n", 1.0), VectorDecl("v", "m")]
    )
    r = instantiate(prog, {"m": 512, "n": 512}, seed=21)
    eigs = eig_spectrum(r, MatrixWord((MatFactor("A"), MatFactor("A", True))))
    edges = np.linspace(0.0, 4.0, 21)
    hist, _ = np.histogram(eigs, bins=edges, density=True)
    # bin-averaged density; substitute x = u^2 to tame the edge singularity
    dens = []
    for a, b in zip(edges[:-1], edges[1:]):
        us = np.linspace(math.sqrt(a), math.sqrt(b), 801)
        mid = 0.5 * (us[1:] + us[:-1])
        du = us[1] - us[0]
        mass = float(np.sum([mp_density(u * u, 1.0) * 2 * u for u in mid]) * du)
        dens.append(mass / (b - a))
    assert mp_atom(1.0) == 0.0
    assert float(np.max(np.abs(hist - np.array(dens)))) <= 0.15


def test_moment_instruction_and_scalar_params():
    prog = build_program(
        [
            VectorDecl("v", "c"),
            Moment("m2", E.pow_(E.x(0), 2), ("v",)),
            Nonlin("z", E.mul(E.p(0), E.x(0)), ("v",), ("m2",)),
        ]
    )
    r = instantiate(prog, {"c": 1000}, seed=2)
    assert r.scalars["m2"] == pytest.approx(float(np.mean(r.vectors["v"] ** 2)))
    assert np.allclose(r.vectors["z"], r.scalars["m2"] * r.vectors["v"])


# ---------------------------------------------------------------------------
# Matrix draws in separately keyed row blocks
# ---------------------------------------------------------------------------


def _two_matrix_program(ratio=1.0):
    """W : m x n and V : n x n, with n = ratio * m."""
    return build_program(
        [
            RatioDecl("n", ratio),
            MatrixDecl("W", "m", "n", 0.5),
            MatrixDecl("V", "n", "n", 2.0),
            VectorDecl("v", "n"),
            MatMul("x", "W", False, "v"),
        ]
    )


def test_matrix_of_one_block_keeps_the_unblocked_draw():
    prog = _two_matrix_program(2.0)
    r, c = 1024, 2048  # W has BLOCK_ENTRIES / 2 entries, V exactly BLOCK_ENTRIES
    # a fresh sampler forms its matrix as the dense draw
    w = stream(13, "matrix", "W").standard_normal((r, c)) * math.sqrt(0.5 / c)
    v = stream(13, "matrix", "V").standard_normal((c, c)) * math.sqrt(2.0 / c)
    assert np.array_equal(dense(ProductSampler(13, "W", r, c, 0.5)), w)
    assert np.array_equal(dense(ProductSampler(13, "V", c, c, 2.0)), v)


@pytest.mark.parametrize("m, ratio", [(2100, 1.0), (1500, 2.0)])
def test_multi_block_matrix_matches_sequential_reference(m, ratio):
    # 2100 and 3000 columns do not divide BLOCK_ENTRIES, so each matrix ends
    # in a partial block
    prog = _two_matrix_program(ratio)
    n = round(ratio * m)
    real = instantiate(prog, {"m": m, "n": n}, seed=5)
    assert n * n > BLOCK_ENTRIES and BLOCK_ENTRIES % n
    # V has no products, so forming it is the dense draw bit for bit; W is
    # formed consistent with its one sampled product
    assert np.array_equal(real.form("V")[0], block_reference(5, "V", n, n, 2.0))
    x = real.vectors["x"]
    assert np.linalg.norm(real.form("W")[0] @ real.vectors["v"] - x) <= 1e-12 * np.linalg.norm(x)


def test_block_draws_do_not_depend_on_threads(monkeypatch):
    prog, dims = _two_matrix_program(), {"m": 2100, "n": 2100}

    def formed(real):  # W has a product, V has none
        return real.form("W", "V")

    alone = formed(instantiate(prog, dims, seed=9))
    with ThreadPoolExecutor(2) as pool:
        pair = list(pool.map(lambda _: formed(instantiate(prog, dims, seed=9)), range(2)))
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    one_cpu = formed(instantiate(prog, dims, seed=9))
    for other in pair + [one_cpu]:
        for got, want in zip(other, alone):
            assert np.array_equal(got, want)


_FORM_700 = """
import hashlib
import numpy as np
from infwidth.finite import ProductSampler, form_dense
from infwidth.numerics import stream
s = ProductSampler(3, "W", 700, 700, 1.0)
s.apply(stream(3, "x").standard_normal((700, 3)))
s.apply(stream(3, "y").standard_normal((700, 2)), transposed=True)
w = np.empty(s.shape)
form_dense([s], [w])
print(hashlib.sha256(w.tobytes()).hexdigest())
"""


def test_formed_matrix_does_not_depend_on_blas_threads():
    # at n = 700 OpenBLAS gemm and gemv give different bytes under 1 and 2
    # threads; form_dense takes its correction with numpy sums
    src = str(Path(infwidth.__file__).resolve().parents[1])
    digests = set()
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-c", _FORM_700], env=env,
                              capture_output=True, text=True, check=True)
        digests.add(proc.stdout)
    assert len(digests) == 1


# ---------------------------------------------------------------------------
# Matrix-free products above BLOCK_ENTRIES
# ---------------------------------------------------------------------------


def _product_features(program, dims, seed):
    """Coordinate 0 of every product of one run, with each matrix drawn
    densely (formed from a fresh sampler) and with each behind a
    ProductSampler.  After the program, each matrix W takes a block
    [x, g, x + g], with x its last input normalised and g fresh, then W^T
    takes [W (x + g), h, 0] with h fresh: the columns x, x + g and 0 add no
    direction."""
    def fresh():
        return {
            m.name: ProductSampler(seed, m.name, dims[program.cdc_of_class[m.rows]],
                                   dims[program.cdc_of_class[m.cols]], m.sigma2)
            for m in program.matrices
        }

    initial = {}  # the initial vectors, drawn as instantiate draws them
    for rep, block in program.init_blocks.items():
        initial.update(sample_init_block(seed, "vector", *block, dims[rep]))
    drawn = {name: dense(sampler) for name, sampler in fresh().items()}
    samplers = fresh()
    sides = []
    for matrix_free in (False, True):
        vectors = {v.name: initial[v.name] for v in program.vectors}
        last = {}
        features = []

        def apply(name, v, transposed):
            if matrix_free:
                return samplers[name].apply(v, transposed)
            w = drawn[name]
            return (w.T if transposed else w) @ v

        for ins in program.instructions:
            if isinstance(ins, MatMul):
                v = last[ins.matrix] = vectors[ins.vin]
                vectors[ins.out] = apply(ins.matrix, v, ins.transposed)
                features.append(vectors[ins.out][0])
            else:
                cols = tuple(vectors[nm] for nm in ins.inputs)
                vectors[ins.out] = np.asarray(E.evaluate(ins.expr, cols), dtype=np.float64)
        for name, x in last.items():
            x = x / np.linalg.norm(x)  # on the scale of g, so both parts show
            g = stream(seed, "block", name, 0).standard_normal(len(x))
            h = stream(seed, "block", name, 1).standard_normal(samplers[name].shape[0])
            out = apply(name, np.column_stack([x, g, x + g]), False)
            back = apply(name, np.column_stack([out[:, 2], h, np.zeros_like(h)]), True)
            features += [*out[0], *back[0, :2]]  # W^T 0 = 0 on both sides
        sides.append(features)
    return sides


@pytest.mark.parametrize("name, n", [("semicircle", 4), ("mp_two", 3), ("mp_two", 8)])
def test_product_sampler_matches_dense_law(name, n):
    # at a size this small every product is far from its limit, so the
    # sampled products must reproduce the dense draws' finite-n law: the
    # means and the second moments of coordinate 0 of all products, the
    # vector products of the program and then a W block and a W^T block
    # (at n = 8 the blocks add directions; at n = 3 and 4 the program's
    # inputs already span one side)
    prog = corpus.load_program(name)
    dims = dims_for_scale(prog, n)
    runs = np.array([_product_features(prog, dims, s) for s in range(3000)])

    def moments(f):
        pairs = np.einsum("si,sj->sij", f, f).reshape(len(f), -1)
        both = np.hstack([f, pairs])
        return both.mean(axis=0), both.std(axis=0, ddof=1) / math.sqrt(len(f))

    (m_dense, se_dense), (m_free, se_free) = moments(runs[:, 0]), moments(runs[:, 1])
    z = np.abs(m_dense - m_free) / np.hypot(se_dense, se_free)
    assert float(np.max(z)) <= 4.0


def _block_products(real, mat):
    """After instantiate, a W block and then a W^T block through the sampler:
    fresh columns, a zero column and a column equal to an earlier input.
    Returns every product (transposed, input, output), the program's first."""
    sampler = real.samplers[mat]
    products = [(ins.transposed, real.vectors[ins.vin], real.vectors[ins.out])
                for ins in real.program.instructions if isinstance(ins, MatMul)]
    for transposed in (False, True):
        earlier, earlier_out = next((v, out) for t, v, out in products if t == transposed)
        fresh = stream(5, "block", int(transposed)).standard_normal((len(earlier), 2))
        block = np.column_stack([fresh[:, 0], np.zeros_like(earlier), earlier, fresh[:, 1]])
        draws, known = sampler.draws, len(sampler.q[int(transposed)])
        out = sampler.apply(block, transposed)
        # only the two fresh columns add a direction
        assert sampler.draws == draws + 2
        assert len(sampler.q[int(transposed)]) == known + 2
        assert not out[:, 1].any()
        assert np.linalg.norm(out[:, 2] - earlier_out) <= 1e-12 * np.linalg.norm(earlier_out)
        products.append((transposed, block, out))
    return products


@pytest.mark.parametrize("name, n", [("semicircle", 2100), ("mp_two", 1500)])
def test_formed_matrix_reproduces_every_product(monkeypatch, name, n):
    prog = corpus.load_program(name)
    real = instantiate(prog, dims_for_scale(prog, n), seed=4)
    (mat,) = [m.name for m in prog.matrices]
    assert mat in real.samplers and not real.matrices
    products = _block_products(real, mat)
    w = real.form(mat)[0]
    for transposed, v, want in products:
        got = (w.T if transposed else w) @ v
        err = np.linalg.norm(got - want, axis=0)
        assert np.all(err <= 1e-12 * np.linalg.norm(want, axis=0))
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    again = instantiate(prog, dims_for_scale(prog, n), seed=4)
    _block_products(again, mat)
    assert np.array_equal(again.form(mat)[0], w)


def test_block_product_equals_its_columns_in_turn():
    # a block is its columns applied one at a time: the same directions in
    # the same order take the same keys, so the products agree to rounding
    rng = np.random.default_rng(7)
    x = rng.standard_normal((300, 5))
    x[:, 3] = x[:, 0] - 2.0 * x[:, 1]  # dependent on earlier columns
    x[:, 4] = 0.0
    y = rng.standard_normal((200, 4))
    block, columns = (ProductSampler(2, "W", 200, 300, 0.5) for _ in range(2))
    for v, transposed in [(x[:, 2], False), (y, True), (x, False), (y[:, ::-1], True)]:
        got = block.apply(v, transposed)
        want = np.column_stack([columns.apply(c, transposed) for c in v.reshape(len(v), -1).T])
        assert got.shape == (200 if not transposed else 300,) + v.shape[1:]
        err = np.linalg.norm(got.reshape(len(got), -1) - want, axis=0)
        assert np.all(err <= 1e-12 * np.linalg.norm(want, axis=0))
        assert block.draws == columns.draws
    # x[:, 2] again, x[:, 3], 0 and y reversed add no direction
    assert block.draws == 1 + 4 + 2


def test_matrix_is_formed_once_for_all_threads():
    # more threads than CPUs and frequent switches: a lost update of the
    # cache would hand different threads different arrays
    prog = _two_matrix_program()
    real = instantiate(prog, {"m": 2100, "n": 2100}, seed=3)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(8) as pool:
            futures = [pool.submit(real.form, name) for name in ("W", "V") * 4]
            formed = [f.result(timeout=60)[0] for f in futures]
    finally:
        sys.setswitchinterval(interval)
    w, v = real.form("W", "V")
    assert all(x is w for x in formed[0::2]) and all(x is v for x in formed[1::2])
    assert not w.flags.writeable and not w.base.flags.writeable


# ---------------------------------------------------------------------------
# Formation memory and formation together
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n", [1024, 2048])
def test_forming_a_matrix_allocates_about_the_matrix(n):
    # the correction is added in row chunks of about CHUNK_ENTRIES, so no
    # temporary as large as a W~ block sits beside W
    s = ProductSampler(6, "W", n, n, 1.0)
    s.apply(stream(6, "x").standard_normal(n))
    s.apply(stream(6, "y").standard_normal(n), transposed=True)
    tracemalloc.start()
    try:
        dense(s)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.1 * 8 * n * n


@pytest.mark.parametrize("one_cpu", [False, True])
def test_forming_matrices_together_equals_one_at_a_time(monkeypatch, one_cpu):
    # 2100 is not a multiple of SUPPORT_ALIGN, so both are filled into the
    # strided rows of padded buffers, and each spans several keyed blocks
    prog, dims = _two_matrix_program(), {"m": 2100, "n": 2100}
    alone = instantiate(prog, dims, seed=8)
    want = alone.form("W", "V")
    if one_cpu:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    real = instantiate(prog, dims, seed=8)
    v, w, v_again = real.form("V", "W", "V")
    assert v is v_again and v.base.shape == (2112, 2112)
    assert not v.base[2100:].any() and not v.base[:, 2100:].any()
    assert np.array_equal(w, want[0]) and np.array_equal(v, want[1])
    assert np.array_equal(want[1], block_reference(8, "V", 2100, 2100, 2.0))


def test_exact_jacobian_forms_every_matrix_once_together(monkeypatch):
    calls = []
    real = infwidth.finite.form_dense

    def spy(samplers, outs):
        calls.append(sorted(s.name for s in samplers))
        real(samplers, outs)

    monkeypatch.setattr(infwidth.finite, "form_dense", spy)
    phi, dphi = ACTIVATIONS["relu"]
    jacobian_finite(4, 96, phi, dphi, 1.0, 3, 4)
    assert calls == [["W2", "W3", "W4"]]


def test_forming_formed_matrices_fills_nothing(monkeypatch):
    # a probe centered trace forms W once per matrix application, after its
    # centering constants formed it, and no such call reaches form_dense
    calls = []
    monkeypatch.setattr(finite, "form_dense", lambda samplers, outs: calls.append(samplers))
    prog = corpus.load_program("fipbase")
    r = instantiate(prog, dims_for_scale(prog, 64), seed=1)
    (w,) = r.form("W")
    assert len(calls) == 1
    assert r.form("W", "W")[0] is w
    assert len(calls) == 1


def test_applying_a_matrix_at_an_unaligned_side_copies_no_matrix():
    # W is formed once into a buffer padded from 1100 to 1120, and a
    # product multiplies that buffer, not a padded copy of W
    prog = corpus.load_program("fipbase")
    n = 1100
    real = instantiate(prog, dims_for_scale(prog, n), seed=2)
    w = real.form("W")[0]
    probe = stream(2, "probe").standard_normal((n, HUTCHINSON_PROBES))
    for transposed in (False, True):
        word = MatrixWord((MatFactor("W", transposed),))
        tracemalloc.start()
        try:
            got = word_apply(real, word, probe)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < n * n  # a copy of W takes 8 n^2 bytes
        want = (w.T if transposed else w) @ probe
        assert got.shape == (n, HUTCHINSON_PROBES)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
