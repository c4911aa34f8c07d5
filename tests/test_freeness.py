import math

import numpy as np
import pytest

from infwidth import corpus, freeness
from infwidth import exprs as E
from infwidth.errors import NotAlternating
from infwidth.finite import (
    DiagFactor,
    MatFactor,
    MatrixWord,
    ProductSampler,
    dims_for_scale,
    instantiate,
    materialize,
    power_traces,
    probe_forms,
    trace_moment,
    word_apply,
    word_block,
)
from infwidth.freeness import (
    ACTIVATIONS,
    AlternatingWord,
    WordPoly,
    alternating_word,
    centered_trace,
    cyclic_rotation,
    d_squared_moments,
    fip_witness_program,
    freeness_sweep,
    jacobian_finite,
    jacobian_limit_moments,
    jacobian_word,
    mlp_forward_variances,
    mlp_program,
    monomial,
    FREENESS_PROBES,
    _loglog_slope,
)
from infwidth.laws import mp_moments
from infwidth.limits import build_replicated

FIPBASE = corpus.load_program("fipbase")
STEP_DIAG = WordPoly(((1.0, MatrixWord((DiagFactor(("xv",), E.step(E.x(0))),))),))
WWT = monomial(MatrixWord((MatFactor("W"), MatFactor("W", True))))
W_PLUS_WT = WordPoly(
    (
        (1.0, MatrixWord((MatFactor("W"),))),
        (1.0, MatrixWord((MatFactor("W", True),))),
    )
)


def _real(n: int, seed: int):
    return instantiate(FIPBASE, dims_for_scale(FIPBASE, n), seed)


def test_alternation_enforced():
    with pytest.raises(NotAlternating):
        alternating_word(WWT, monomial(MatrixWord((MatFactor("W"),))))
    # distinct diag collections over the same vector are structurally fine
    other = WordPoly(
        ((1.0, MatrixWord((DiagFactor(("xv",), E.sub(E.step(E.x(0)), E.const(0.5))),))),)
    )
    assert len(alternating_word(STEP_DIAG, other)) == 2


def test_mixed_collection_polynomial_rejected():
    bad = WordPoly(
        (
            (1.0, MatrixWord((MatFactor("W"),))),
            (1.0, MatrixWord((DiagFactor(("xv",), E.step(E.x(0))),))),
        )
    )
    with pytest.raises(NotAlternating):
        alternating_word(bad)


def test_unbounded_diag_rejected():
    for expr in (E.x(0), E.relu(E.x(0))):
        with pytest.raises(ValueError, match="bounded"):
            DiagFactor(("xv",), expr)


def test_centered_trace_single_factor_vanishes():
    word = alternating_word(WWT)
    val = centered_trace(_real(128, 3), word, method="exact")
    assert abs(val) <= 1e-12


def test_centered_trace_empty_word_is_identity_trace():
    assert centered_trace(_real(64, 0), AlternatingWord(())) == 1.0


def test_negative_control_matches_coordinatewise_oracle():
    r = _real(512, 5)
    word = corpus.load_word("negative")
    got = centered_trace(r, word, method="exact")
    # brute-force oracle: everything is diagonal, so work coordinatewise
    s = (r.vectors["xv"] > 0).astype(float)
    t1 = s.mean()
    t2 = (s - 0.5).mean()
    want = float(np.mean((s - 0.5 - t2) * (s - t1)))
    assert got == pytest.approx(want, abs=1e-12)
    assert abs(got) >= 0.15


def test_exact_centered_trace_matches_dense_product():
    # weighted two-monomial polynomial 0.5*W + 2*W^T alternating with a step
    # diagonal, against tr prod(P_i - tau_i I) / n built directly in numpy
    poly = WordPoly(
        (
            (0.5, MatrixWord((MatFactor("W"),))),
            (2.0, MatrixWord((MatFactor("W", True),))),
        )
    )
    word = alternating_word(poly, STEP_DIAG, poly, STEP_DIAG)
    r = _real(200, 9)
    w = r.matrix("W")
    n = w.shape[0]
    mats = [0.5 * w + 2.0 * w.T, np.diag((r.vectors["xv"] > 0).astype(float))] * 2
    acc = np.eye(n)
    for m in mats:
        acc = (m - np.trace(m) / n * np.eye(n)) @ acc
    want = float(np.trace(acc)) / n
    got = centered_trace(r, word, method="exact")
    assert got == pytest.approx(want, rel=1e-12)
    assert abs(want) > 1e-6


def test_centered_trace_hutch_close_to_exact():
    r = _real(384, 7)
    word = corpus.load_word("word_a")
    exact = centered_trace(r, word, method="exact")
    est = centered_trace(r, word, method="hutch", probes=256)
    assert est == pytest.approx(exact, abs=0.02)


def test_freeness_sweep_free_word_decays():
    report = freeness_sweep(FIPBASE, corpus.load_word("word_a"), [64, 128, 256, 512],
                            seeds=list(range(6)))
    meds = [row[2] for row in report.rows]
    assert meds[-1] < meds[0]
    assert report.slope < -0.5


def test_loglog_slope_needs_two_distinct_sizes():
    assert math.isnan(_loglog_slope([64], [0.1]))
    assert math.isnan(_loglog_slope([64, 64], [0.1, 0.2]))
    assert _loglog_slope([64, 256], [0.1, 0.05]) == pytest.approx(-0.5)


def test_freeness_sweep_negative_control_flat():
    report = freeness_sweep(FIPBASE, corpus.load_word("negative"), [64, 128, 256, 512],
                            seeds=list(range(6)))
    assert abs(report.slope) < 0.2
    assert all(row[2] >= 0.15 for row in report.rows)


def test_cyclic_rotation_invariance():
    # tr AB = tr BA: rotations of the factor list leave the trace unchanged
    word = alternating_word(STEP_DIAG, W_PLUS_WT)
    r = _real(256, 9)
    base = centered_trace(r, word, method="exact")
    rot = centered_trace(r, cyclic_rotation(word, 1), method="exact")
    assert rot == pytest.approx(base, abs=1e-10)


# ---------------------------------------------------------------------------
# witness programs
# ---------------------------------------------------------------------------


def test_witness_t1_wwt():
    w = fip_witness_program(FIPBASE, alternating_word(WWT))
    state = build_replicated(w.program, n_samples=120_000, seed=12, replicas=10)
    tau, tau_se = state.scalar_limit(w.tau_scalars[0])
    assert abs(tau - 1.0) <= 3.0 * tau_se  # first Wishart moment
    final, se = state.scalar_limit(w.final_scalar)
    assert abs(final) <= 3.0 * se


def test_witness_t0_gaussian_norm():
    w = fip_witness_program(FIPBASE, AlternatingWord(()))
    state = build_replicated(w.program, n_samples=120_000, seed=1, replicas=10)
    final, se = state.scalar_limit(w.final_scalar)
    assert abs(final - 1.0) <= 3.0 * se


def test_witness_t2_paper_pair_and_finite_agreement():
    word = alternating_word(STEP_DIAG, W_PLUS_WT)
    w = fip_witness_program(FIPBASE, word)
    state = build_replicated(w.program, n_samples=120_000, seed=3, replicas=10)
    final, se = state.scalar_limit(w.final_scalar)
    assert abs(final) <= 3.0 * se
    # the finite-size witness scalar tracks the centered trace estimate
    dims = dims_for_scale(w.program, 1024)
    r = instantiate(w.program, dims, seed=41)
    assert abs(r.scalars[w.final_scalar]) <= 0.05


def test_witness_rejects_nonsquare():
    prog = corpus.load_program("mp_half")
    word = alternating_word(monomial(MatrixWord((MatFactor("A"),))))
    from infwidth.errors import ShapeMismatch

    with pytest.raises(ShapeMismatch):
        fip_witness_program(prog, word)


# ---------------------------------------------------------------------------
# Jacobian pipeline
# ---------------------------------------------------------------------------


def test_forward_variances():
    ident, _ = ACTIVATIONS["identity"]
    assert mlp_forward_variances(ident, 1.7, 4) == pytest.approx([1.7] * 4)
    relu, _ = ACTIVATIONS["relu"]
    assert mlp_forward_variances(relu, 2.0, 2)[1] == pytest.approx(1.0, rel=1e-10)
    qs = mlp_forward_variances(E.step(E.x(0)), 1.0, 2)
    assert qs[1] == pytest.approx(0.5, rel=1e-10)


def test_d_squared_moments():
    assert d_squared_moments(E.const(1.0), 1.0, 4) == pytest.approx([1.0] * 4)
    assert d_squared_moments(E.step(E.x(0)), 0.7, 4) == pytest.approx([0.5] * 4)
    # cross-check the tanh derivative against plain Monte Carlo
    _, dtanh = ACTIVATIONS["tanh"]
    rng = np.random.default_rng(0)
    z = rng.standard_normal(400_000)
    mc = float(np.mean((1 - np.tanh(z) ** 2) ** 2))
    se = float(np.std((1 - np.tanh(z) ** 2) ** 2) / math.sqrt(z.size))
    quad = d_squared_moments(dtanh, 1.0, 1)[0]
    assert abs(quad - mc) <= 3.0 * se
    for q in (0.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="^q must be positive and finite$"):
            d_squared_moments(dtanh, q, 2)


def test_jacobian_limit_identity_is_mp_power():
    phi, dphi = ACTIVATIONS["identity"]
    two = jacobian_limit_moments(2, phi, dphi, 1.0, 4)
    assert np.allclose(two, mp_moments(4, 1.0), atol=1e-9)
    three = jacobian_limit_moments(3, phi, dphi, 1.0, 4)
    assert np.allclose(three, [1.0, 3.0, 12.0, 55.0], atol=1e-8)


def test_jacobian_limit_relu_first_moment():
    phi, dphi = ACTIVATIONS["relu"]
    m = jacobian_limit_moments(2, phi, dphi, 1.0, 3)
    assert m[0] == pytest.approx(0.5, rel=1e-9)


def test_jacobian_limit_rho_list():
    phi, dphi = ACTIVATIONS["identity"]
    m = jacobian_limit_moments(2, phi, dphi, 1.0, 3, rho_list=[0.5])
    assert np.allclose(m, mp_moments(3, 0.5), atol=1e-9)


def test_jacobian_finite_identity_close_to_limit():
    phi, dphi = ACTIVATIONS["identity"]
    emp = np.mean([jacobian_finite(2, 512, phi, dphi, 1.0, s, 3) for s in range(4)], axis=0)
    lim = mp_moments(3, 1.0)
    assert np.all(np.abs(emp - lim) <= 0.1 * np.abs(lim))


def test_jacobian_eigen_vs_hutch_paths():
    phi, dphi = ACTIVATIONS["relu"]
    prog = mlp_program(2, phi, 1.0)
    r = instantiate(prog, {rep: 64 for rep in prog.cdc_reps()}, seed=5)
    word = jacobian_word(2, dphi)
    jtj = word.T * word
    exact, _ = trace_moment(r, jtj, method="exact")
    est, se = trace_moment(r, jtj, method="hutch", probes=512)
    assert abs(est - exact) <= 4.0 * se


def _jacobian_case(phi_name, layers, n, seed):
    phi, dphi = ACTIVATIONS[phi_name]
    prog = mlp_program(layers, phi, 1.0)
    # the realization jacobian_finite reads: each W_l formed given its
    # forward product when a word reads it
    r = instantiate(prog, {rep: n for rep in prog.cdc_reps()}, seed)
    return (phi, dphi), r, jacobian_word(layers, dphi)


@pytest.mark.parametrize("phi_name,layers", [("relu", 4), ("tanh", 3)])
def test_jacobian_dense_moments_match_singular_values(phi_name, layers):
    (phi, dphi), r, word = _jacobian_case(phi_name, layers, 96, 4)
    s2 = np.linalg.svd(materialize(r, word), compute_uv=False) ** 2
    want = np.array([np.mean(s2**k) for k in range(1, 8)])
    got = jacobian_finite(layers, 96, phi, dphi, 1.0, 4, 7)
    assert np.allclose(got, want, rtol=1e-12, atol=0.0)


# relu's derivative step(h), and a sparser step(h - 1) that keeps about a
# sixth of each diagonal
_STEP_DERIVATIVES = {"relu": E.step(E.x(0)), "step": E.step(E.sub(E.x(0), E.const(1.0)))}


@pytest.mark.parametrize("n", [96, 200])
@pytest.mark.parametrize("layers", [3, 4])
@pytest.mark.parametrize("dphi_name", sorted(_STEP_DERIVATIVES))
def test_jacobian_support_moments_match_full_gram(dphi_name, layers, n):
    # the exact path takes J^T J on J's kept columns only; the full dense J
    # (the identity product), its full Gram matrix and power traces agree.
    # Seed 6: at seed 5 the step(h_3 - 1) diagonal of the L = 4, n = 96 net
    # keeps no coordinate (h_3 has variance 1/4), so J = 0 there.
    phi, dphi = ACTIVATIONS["relu"][0], _STEP_DERIVATIVES[dphi_name]
    prog = mlp_program(layers, phi, 1.0)
    r = instantiate(prog, {rep: n for rep in prog.cdc_reps()}, 6)
    word = jacobian_word(layers, dphi)
    assert word_block(r, word)[2] is not None  # J has dropped columns
    j = word_apply(r, word, np.eye(n))
    want = np.array(power_traces(j.T @ j, 6, symmetric=True)) / n
    got = jacobian_finite(layers, n, phi, dphi, 1.0, 6, 6)
    assert np.allclose(got, want, rtol=1e-12, atol=0.0)
    assert np.all(got > 0)


def _spy_instantiate(monkeypatch) -> list:
    """Realizations that jacobian_finite instantiates, in order."""
    seen = []

    def spy(*args, **kwargs):
        seen.append(instantiate(*args, **kwargs))
        return seen[-1]

    monkeypatch.setattr(freeness, "instantiate", spy)
    return seen


@pytest.mark.parametrize("phi_name,layers", [("relu", 4), ("tanh", 3)])
def test_jacobian_probe_moments_match_gram_probe_forms(monkeypatch, phi_name, layers):
    # the probe path samples its products and the samplers keep them, so
    # the W_l formed afterwards reproduce them: Gram probe forms on those
    # matrices give the same moments.  At n = 80 the 96 forward probe
    # columns span the whole input side, so the last block adds no direction.
    seen = _spy_instantiate(monkeypatch)
    phi, dphi = ACTIVATIONS[phi_name]
    got = jacobian_finite(layers, 80, phi, dphi, 1.0, 6, 5, cap=64)
    (r,) = seen
    assert not r.matrices
    word = jacobian_word(layers, dphi)
    jtj = word.T * word
    forms = probe_forms(lambda v: word_apply(r, jtj, v), 80, 5, FREENESS_PROBES, 6,
                        "jacobian", word.key())
    assert np.allclose(got, forms.mean(axis=1) / 80, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("layers, n", [(3, 40)])
def test_jacobian_forms_every_weight_from_its_sampler(monkeypatch, layers, n):
    # on the exact path no W_l is drawn: the forward pass samples h_l, and
    # the W_l the moments read is formed from W_l's own sampler given that
    # one product, bit for bit as a fresh sampler replaying it forms it
    seen = _spy_instantiate(monkeypatch)
    phi, dphi = ACTIVATIONS["tanh"]
    jacobian_finite(layers, n, phi, dphi, 1.0, 3, 1)
    (r,) = seen
    assert sorted(r.matrices) == sorted(r.samplers) == [f"W{l}" for l in range(2, layers + 1)]
    for l in range(2, layers + 1):
        sampler = r.samplers[f"W{l}"]
        assert [len(q) for q in sampler.q] == [1, 0] and sampler.draws == 1
        replay = ProductSampler(3, f"W{l}", n, n, 1.0)
        assert np.array_equal(replay.apply(r.vectors[f"x{l - 1}"]), r.vectors[f"h{l}"])
        assert np.array_equal(r.matrices[f"W{l}"], replay.dense())


def test_jacobian_probe_path_draws_no_matrix(monkeypatch):
    # above the dense cap every product of W_l is sampled, and none of the
    # W_l is drawn or formed: each keeps its forward product from the
    # program and one probe block in each direction
    seen = _spy_instantiate(monkeypatch)
    phi, dphi = ACTIVATIONS["tanh"]
    jacobian_finite(3, 2100, phi, dphi, 1.0, 3, 2)
    (r,) = seen
    assert not r.matrices
    for l in (2, 3):
        sampler = r.samplers[f"W{l}"]
        assert [len(q) for q in sampler.q] == [1 + FREENESS_PROBES, FREENESS_PROBES]
        assert sampler.draws == 1 + 2 * FREENESS_PROBES


def test_jacobian_probe_path_closed_forms():
    # above the dense cap, which criterion 7 stays under: identity at L = 3
    # gives the moments 1, 3, 12 of MP(1) (x) MP(1), and relu at L = 2 the
    # first moment E step(h)^2 = 1/2
    identity, relu = ACTIVATIONS["identity"], ACTIVATIONS["relu"]
    three = np.mean([jacobian_finite(3, 2048, *identity, 1.0, s, 3) for s in range(8)], axis=0)
    assert np.all(np.abs(three - [1.0, 3.0, 12.0]) <= 0.1 * np.array([1.0, 3.0, 12.0]))
    first = np.mean([jacobian_finite(2, 2048, *relu, 1.0, s, 1)[0] for s in range(8)])
    assert abs(first - 0.5) <= 0.05
