"""Empirical asymptotic-freeness experiments and the Jacobian spectrum pipeline.

Centered alternating word traces: each word factor belongs to one
collection of matrices (`collection()` of finite.MatFactor and
finite.DiagFactor): a weight family {W, W^T}, or the diagonal matrices of
one bounded coordinatewise image of program vectors.  The normalized trace
of the product of per-factor-centered polynomials vanishes as the size
grows when the collections are asymptotically free.  This module measures
those traces over size sweeps, constructs an equivalent scalar program
whose final moment has the same limit (so the limit engine can check it
symbolically), and runs the deep-net Jacobian singular-value pipeline:
empirical moments of J^T J, exact from finite.spectral_moments of that
mirror word (power traces of the Gram matrix of J's kept columns) or from
probe forms that apply J or J^T once per moment, against the free
multiplicative convolution of the per-layer square-derivative laws with
Marchenko-Pastur factors.  A centered trace applies its product factor by
factor, from no probe (the dense product) up to the dense cap and to
Gaussian probe blocks above it.  The centering constant of a diagonal
monomial, of one with a single matrix factor, or of a mirror W D W^T E
such as W W^T, is an exact O(n^2) sum over the formed matrices
(monomial_trace); other monomials are traced as the product is.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import exprs, laws
from .errors import NotAlternating, ShapeMismatch
from .finite import (
    EXACT_CAP,
    HUTCHINSON_PROBES,
    DiagFactor,
    MatFactor,
    MatrixWord,
    Realization,
    diag_entries,
    diag_product,
    dims_for_scale,
    instantiate,
    map_threads,
    probe_forms,
    spectral_moments,
    square_class,
    trace_moment,
    trace_probes,
    word_apply,
)
from .numerics import gaussian_expect
from .program import (
    MatMul,
    MatrixDecl,
    Moment,
    Nonlin,
    Program,
    VectorDecl,
    build_program,
)

FREENESS_EXACT_CAP = 512
FREENESS_PROBES = HUTCHINSON_PROBES


# ---------------------------------------------------------------------------
# Collections and alternating words
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class WordPoly:
    """Polynomial in one collection: a sum of weighted monomial words."""

    terms: tuple[tuple[float, MatrixWord], ...]

    def __post_init__(self):
        if not self.terms:
            raise ValueError("empty polynomial")
        for _, word in self.terms:
            if not word.factors:
                raise ValueError("empty monomial in polynomial")

    def collection(self) -> tuple:
        colls = {f.collection() for _, w in self.terms for f in w.factors}
        if len(colls) != 1:
            raise NotAlternating("a polynomial mixes distinct collections")
        return colls.pop()

    def key(self) -> str:
        return " + ".join(f"{c!r}*({w.key()})" for c, w in self.terms)


def monomial(word: MatrixWord) -> WordPoly:
    return WordPoly(((1.0, word),))


@dataclass(frozen=True)
class AlternatingWord:
    """Factors (collection, polynomial) with no two adjacent collections equal.

    The first factor is applied first (it is the rightmost in the product).
    """

    factors: tuple[tuple[tuple, WordPoly], ...]

    def __post_init__(self):
        prev = None
        for coll, poly in self.factors:
            if poly.collection() != coll:
                raise ValueError(f"polynomial {poly.key()!r} is not over {coll!r}")
            if prev is not None and coll == prev:
                raise NotAlternating(f"adjacent factors share the collection {coll!r}")
            prev = coll

    def __len__(self) -> int:
        return len(self.factors)


def alternating_word(*polys: WordPoly) -> AlternatingWord:
    return AlternatingWord(tuple((p.collection(), p) for p in polys))


# ---------------------------------------------------------------------------
# Centered traces
# ---------------------------------------------------------------------------


def _word_side(program: Program, word: AlternatingWord) -> str:
    """Class every monomial of the word acts on; "" for the empty word."""
    sides = {square_class(program, w) for _, poly in word.factors for _, w in poly.terms}
    if len(sides) > 1:
        raise ShapeMismatch(f"alternating word factors act on different classes {sorted(sides)}")
    return sides.pop() if sides else ""


def _poly_sum(poly: WordPoly, apply) -> np.ndarray:
    """Sum of c * apply(w) over the polynomial's terms c * w, summed in the
    first term's array; apply must return a fresh array."""
    out = None
    for c, w in poly.terms:
        term = apply(w)
        if c != 1.0:
            term *= c
        out = term if out is None else np.add(out, term, out=out)
    return out


def monomial_trace(realization: Realization, word: MatrixWord, probes: int) -> float:
    """Normalized trace (1/n) tr(word) of a square monomial, exact when it is cheap.

    With D and E products of diagonal factors (finite.diag_product, the
    fold finite.word_block takes too), a word of diagonals only is (1/n)
    sum d, one with a single matrix factor M is (1/n) sum_i M_ii d_i, and
    one whose only matrix factors are W and W^T, cyclically W D W^T E or
    W^T D W E, is a weighted sum of the squared entries of W.  Each sum
    reads the formed W in its own layout with numpy, not BLAS, and no n x n
    temporary.  Any other word is trace_moment, exact when probes is 0.
    """
    n = realization.dims[square_class(realization.program, word)]
    fs = word.factors
    mats = [i for i, f in enumerate(fs) if isinstance(f, MatFactor)]
    if not mats:
        return float(diag_product(realization, fs, n).sum()) / n
    if len(mats) == 1:
        (w,) = realization.form(fs[mats[0]].name)
        return float(np.einsum("ii,i->", w, diag_product(realization, fs, n))) / n
    if len(mats) == 2:
        i, j = mats
        left, right = fs[i], fs[j]
        if left.name == right.name and left.transposed != right.transposed:
            # the diagonals between the two weight the side of W they
            # contract (its columns in W D W^T, its rows in W^T D W), the
            # rest, cyclically, its other side
            (w,) = realization.form(left.name)
            inner = diag_product(realization, fs[i + 1:j], w.shape[1 - left.transposed])
            outer = diag_product(realization, fs[j + 1:] + fs[:i], n)
            rows, cols = (inner, outer) if left.transposed else (outer, inner)
            sq = np.einsum("ij,ij,j->i", w, w, cols)
            return float(np.einsum("i,i->", rows, sq)) / n
    return trace_moment(realization, word, "hutch" if probes else "exact", probes)[0]


def centered_trace(
    realization: Realization,
    word: AlternatingWord,
    method: str = "auto",
    cap: int = FREENESS_EXACT_CAP,
    probes: int = FREENESS_PROBES,
) -> float:
    """Normalized trace of the product of centered polynomials.

    Exact up to the side `cap`, which is at most finite.EXACT_CAP,
    Gaussian-probe estimated above it (method as in finite.trace_probes).
    Each centering constant tau_i is the normalized trace of that polynomial
    on the same realization: the sum of its monomials' monomial_trace, with
    the same probe count (0 up to the cap).  One chain, `apply`, multiplies
    by the centered product factor by factor (finite.word_apply, whose
    padded operands keep the bytes thread-stable) and centers in place.  Up
    to the cap it starts from no probe, so the first polynomial is dense
    and subtracts tau_1 on its diagonal; above it apply runs on blocks of
    finite.PROBE_BLOCK probes (finite.probe_forms), so it holds a few
    n x PROBE_BLOCK blocks besides the formed matrices, whatever `probes` is.
    """
    side = _word_side(realization.program, word)
    if not side:
        return 1.0
    n = realization.dims[side]
    p = trace_probes(n, method, cap, probes)
    polys = [poly for _, poly in word.factors]
    taus = [
        math.fsum(c * monomial_trace(realization, w, p) for c, w in poly.terms)
        for poly in polys
    ]

    def apply(z):
        v = z
        for poly, tau in zip(polys, taus):
            out = _poly_sum(poly, lambda w: word_apply(realization, w, v))
            if v is None:  # the dense product: tau I
                out[np.diag_indices(n)] -= tau
            else:  # z is the caller's; a later input, the last output, is scaled in place
                out -= tau * v if v is z else np.multiply(v, tau, out=v)
            v = out
        return v

    if p == 0:
        return float(np.trace(apply(None))) / n
    forms = probe_forms(
        apply, n, 1, p, realization.seed, "ctrace", "|".join(q.key() for q in polys)
    )
    return float(np.mean(forms[0]) / n)


@dataclass(frozen=True)
class FreenessReport:
    """Per-size statistics of |centered trace| and a log-log decay slope."""

    rows: tuple[tuple[int, int, float, float, float], ...]  # n, count, median, mean, std
    slope: float


def freeness_sweep(
    program: Program,
    word: AlternatingWord,
    n_list: list[int],
    seeds: list[int],
    method: str = "auto",
    probes: int = FREENESS_PROBES,
    workers: int = 1,
) -> FreenessReport:
    """|centered trace| of one realization per (n, seed) cell, summarized per n.

    The cells run on `workers` threads (finite.map_threads); each is a pure
    function of (n, seed), so the report does not depend on `workers`."""
    if sorted(n_list) != list(n_list):
        raise ValueError("n_list must be ascending")

    def run_cell(cell):
        n, seed = cell
        r = instantiate(program, dims_for_scale(program, n), seed)
        return abs(centered_trace(r, word, method=method, probes=probes))

    cells = [(n, seed) for n in n_list for seed in seeds]
    vals = np.array(map_threads(run_cell, cells, workers)).reshape(len(n_list), len(seeds))
    rows = tuple(
        (n, len(seeds), float(np.median(v)), float(v.mean()), float(v.std()))
        for n, v in zip(n_list, vals)
    )
    return FreenessReport(rows, _loglog_slope(n_list, [row[2] for row in rows]))


def _loglog_slope(ns, vals) -> float:
    """Least-squares slope of log(vals) on log(ns); NaN below two distinct
    sizes or when a value is not positive, as log has no finite value there."""
    xs = np.log(np.asarray(ns, dtype=np.float64))
    vals = np.asarray(vals, dtype=np.float64)
    if np.unique(xs).size < 2 or not np.all(vals > 0):
        return math.nan
    return float(np.polyfit(xs, np.log(vals), 1)[0])


# ---------------------------------------------------------------------------
# Witness program: the same centered product as one scalar limit
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FipWitness:
    program: Program
    final_scalar: str  # limit must be 0 for alternating words
    tau_scalars: tuple[str, ...]


def fip_witness_program(base: Program, word: AlternatingWord) -> FipWitness:
    """Program computing (1/n) v^T prod_i (P_i - (1/n) u_i^T P_i u_i) v.

    Fresh standard-Gaussian probes v, u_1..u_t are appended to the base
    program; each factor contributes a matmul/diag chain applied to both the
    running vector and its own probe, a moment scalar for the centering
    constant, and the centered update.  The final moment scalar converges
    to 0 exactly when the word's collections are asymptotically free.
    """
    used = set(base.vector_names) | set(base.scalar_names)
    used |= {m.name for m in base.matrices}
    prefix = "fw_"
    while any(u.startswith(prefix) for u in used):
        prefix = "f" + prefix

    side_rep = _word_side(base, word) or (base.cdc_reps()[0] if base.cdc_reps() else "c")

    decls: list = list(base.ratios) + list(base.matrices) + list(base.vectors)
    decls += list(base.covs) + list(base.ties) + list(base.scalars)
    decls += list(base.instructions)

    t = len(word.factors)
    v0 = f"{prefix}v"
    decls.append(VectorDecl(v0, side_rep))
    probes = []
    for i in range(1, t + 1):
        probes.append(f"{prefix}u{i}")
        decls.append(VectorDecl(probes[-1], side_rep))

    counter = 0

    def fresh(tag: str) -> str:
        nonlocal counter
        counter += 1
        return f"{prefix}{tag}{counter}"

    def apply_monomial(w: MatrixWord, start: str) -> str:
        cur = start
        for f in reversed(w.factors):
            out = fresh("g")
            if isinstance(f, MatFactor):
                decls.append(MatMul(out, f.name, f.transposed, cur))
            else:
                k = len(f.vectors)
                expr = exprs.mul(f.expr, exprs.x(k))
                decls.append(Nonlin(out, expr, f.vectors + (cur,)))
            cur = out
        return cur

    def apply_chain(poly: WordPoly, start: str) -> str:
        ends = [apply_monomial(w, start) for _, w in poly.terms]
        if len(ends) == 1 and poly.terms[0][0] == 1.0:
            return ends[0]
        combo = None
        for j, (c, _) in enumerate(poly.terms):
            term = exprs.mul(exprs.const(c), exprs.x(j))
            combo = term if combo is None else exprs.add(combo, term)
        out = fresh("g")
        decls.append(Nonlin(out, combo, tuple(ends)))
        return out

    taus = []
    prev = v0
    for i, (_, w) in enumerate(word.factors, start=1):
        applied = apply_chain(w, prev)
        probed = apply_chain(w, probes[i - 1])
        tau = fresh("tau")
        decls.append(
            Moment(tau, exprs.mul(exprs.x(0), exprs.x(1)), (probes[i - 1], probed))
        )
        taus.append(tau)
        nxt = fresh("v")
        decls.append(
            Nonlin(
                nxt,
                exprs.sub(exprs.x(0), exprs.mul(exprs.p(0), exprs.x(1))),
                (applied, prev),
                (tau,),
            )
        )
        prev = nxt

    final = f"{prefix}out"
    decls.append(Moment(final, exprs.mul(exprs.x(0), exprs.x(1)), (v0, prev)))
    return FipWitness(build_program(decls), final, tuple(taus))


# ---------------------------------------------------------------------------
# Jacobian singular-value pipeline
# ---------------------------------------------------------------------------

# the largest moment order jacobian computes: the free product loses digits
# as k grows (for identity at L = 2 its moments are 1.8e-11 relative from
# the Fuss-Catalan numbers at k = 32, over 1e-9 from k = 37 and negative
# from k = 68), and the finite moments overflow near k = 350
JACOBIAN_KMAX = 32

# activation name -> (phi, weak derivative phi')
ACTIVATIONS: dict[str, tuple[exprs.Expr, exprs.Expr]] = {
    "identity": (exprs.x(0), exprs.const(1.0)),
    "relu": (exprs.relu(exprs.x(0)), exprs.step(exprs.x(0))),
    "tanh": (
        exprs.tanh(exprs.x(0)),
        exprs.sub(exprs.const(1.0), exprs.pow_(exprs.tanh(exprs.x(0)), 2)),
    ),
}


def mlp_forward_variances(phi: exprs.Expr, q1: float, layers: int) -> list[float]:
    """Per-layer preactivation variances q_1..q_L of a wide feedforward stack."""
    if not (q1 > 0 and math.isfinite(q1)):
        raise ValueError("q1 must be positive and finite")
    qs = [float(q1)]
    for _ in range(layers - 1):
        qs.append(gaussian_expect(lambda z: exprs.evaluate(phi, (z,)) ** 2, var=qs[-1]))
    return qs


def d_squared_moments(phi_prime: exprs.Expr, q: float, k_max: int) -> np.ndarray:
    """Moments m_k = E phi'(sqrt(q) xi)^(2k) of the squared derivative law."""
    if not (q > 0 and math.isfinite(q)):
        raise ValueError("q must be positive and finite")
    return np.array(
        [
            gaussian_expect(lambda z: exprs.evaluate(phi_prime, (z,)) ** (2 * k), var=q)
            for k in range(1, k_max + 1)
        ]
    )


def jacobian_limit_moments(
    layers: int,
    phi: exprs.Expr,
    phi_prime: exprs.Expr,
    q1: float,
    k_max: int,
    rho_list: list[float] | None = None,
) -> np.ndarray:
    """Limiting moments of J^T J: the free product of the per-layer
    squared-derivative laws and one Marchenko-Pastur factor per weight."""
    if layers < 2:
        raise ValueError("need at least two layers")
    if rho_list is None:
        rho_list = [1.0] * (layers - 1)
    if len(rho_list) != layers - 1:
        raise ValueError("rho_list must have layers - 1 entries")
    qs = mlp_forward_variances(phi, q1, layers - 1)
    out = laws.point_mass_moments(1.0, k_max)
    for q in qs:
        out = laws.free_mul_conv(out, d_squared_moments(phi_prime, q, k_max), k_max)
    for rho in rho_list:
        out = laws.free_mul_conv(out, laws.mp_moments(k_max, rho), k_max)
    return out


def mlp_program(layers: int, phi: exprs.Expr, q1: float) -> Program:
    """Forward stack h_{l+1} = W_{l+1} phi(h_l), first preactivation iid N(0, q1)."""
    decls: list = [VectorDecl("h1", "c1", 0.0, q1)]
    for l in range(2, layers + 1):
        decls.append(MatrixDecl(f"W{l}", f"c{l}", f"c{l-1}", 1.0))
    for l in range(1, layers):
        decls.append(Nonlin(f"x{l}", phi, (f"h{l}",)))
        decls.append(MatMul(f"h{l+1}", f"W{l+1}", False, f"x{l}"))
    return build_program(decls)


def jacobian_word(layers: int, phi_prime: exprs.Expr) -> MatrixWord:
    """J = W_L D_{L-1} W_{L-1} ... W_2 D_1 with D_l = Diag(phi'(h_l))."""
    factors: list[MatFactor | DiagFactor] = []
    for l in range(layers, 1, -1):
        factors.append(MatFactor(f"W{l}"))
        factors.append(DiagFactor((f"h{l-1}",), phi_prime))
    return MatrixWord(tuple(factors))


def jacobian_finite(
    layers: int,
    n: int,
    phi: exprs.Expr,
    phi_prime: exprs.Expr,
    q1: float,
    seed: int,
    k_max: int,
    cap: int = EXACT_CAP,
) -> np.ndarray:
    """Empirical moments (1/n) tr (J^T J)^k of one finite realization.

    No W_l is drawn: the forward pass samples each product exactly
    (finite.ProductSampler).  Up to the dense side `cap` the moments are
    finite.spectral_moments of the mirror word J^T J: power traces of the
    Gram matrix of J's kept columns (finite.word_block), which forms every
    W_l together, each given its forward product, and whose products have
    sides that are multiples of finite.SUPPORT_ALIGN, so the moments do not
    depend on the BLAS thread count.  Above the cap the moments come from
    Gaussian probe blocks, one application of J or J^T per moment
    (finite.probe_forms with an adjoint), and no W_l is formed: each
    product with a probe block is sampled exactly given the earlier ones,
    extending the realization's samplers."""
    prog = mlp_program(layers, phi, q1)
    p = trace_probes(n, "auto", cap, FREENESS_PROBES)
    r = instantiate(prog, {rep: n for rep in prog.cdc_reps()}, seed)
    word = jacobian_word(layers, phi_prime)
    if p == 0:
        return np.array([m for m, _ in spectral_moments(r, word.T * word, k_max, "exact")])

    def sampled(w: MatrixWord):
        def apply(x):
            for f in reversed(w.factors):
                if isinstance(f, MatFactor):
                    x = r.samplers[f.name].apply(x, f.transposed)
                else:
                    x = diag_entries(r, f)[:, None] * x
            return x
        return apply

    forms = probe_forms(sampled(word), n, k_max, p, seed, "jacobian", word.key(),
                        adjoint=sampled(word.T))
    return forms.mean(axis=1) / n
