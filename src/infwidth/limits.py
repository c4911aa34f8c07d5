"""Infinite-width limit engine.

Processes a program instruction by instruction and maintains, for every
vector, a large seeded Monte-Carlo ensemble of joint samples of its limiting
coordinate random variable.

The limit of a matmul output splits into two parts:

* a *Gaussian part*, jointly Gaussian across all products by the same matrix
  in the same direction, with covariance ``var_scale * E[Z_x Z_y]`` between
  the products of inputs x and y.  The effective scale is the declared
  variance for forward products and ``rho * variance`` for transposed
  products, where rho is the limiting rows/cols ratio.  New members are
  sampled by Gaussian conditioning on the existing family columns.
* a *correction part*, a linear combination of the inputs of earlier
  opposite-direction products by the same matrix.  The coefficients solve
  ``a = rho_applied^-1 C^-1 b`` where C is the Gram matrix of those inputs'
  limit variables, b holds the cross-moments of their Gaussian parts with
  the current input, and rho_applied is the limiting rows/cols ratio of the
  matrix as applied.  This form needs no derivatives and is exact for
  non-differentiable nonlinearities as well.  The coefficients'
  delta-method stderr is computed only for a single ensemble whose caller
  reads it (replicas report their spread), in fixed row blocks through one
  small reused buffer.

Both parts solve against one Gram matrix, that of the family's inputs, and
each family keeps it as an incremental Cholesky factor ``L``.  A new member's
whitened cross-moments ``l = L_K^-1 g_K`` give its conditional mean weights
``L_K^-T l`` and its pivot ``sqrt(g_kk - |l|^2)``; its conditional variance
is ``var_scale`` times the pivot squared.  A member whose conditional
variance vanishes (``DegenerateGVar``) is a deterministic image of earlier
members and gets no pivot, so ``K`` lists the others and ``L_K`` is
invertible.  The correction reads ``a_K = L_K^-T L_K^-1 b_K / rho_applied``
and is 0 on a dependent input, whose share the earlier inputs carry.  On a
full-rank Gram matrix this is ``C^+ b``.

Each family keeps its members' Gaussian parts as the columns of one
preallocated ``(n_samples, capacity)`` store, capacity being the program's
number of products by that matrix in that direction, so no column is ever
copied into a stacked matrix and no Gram matrix is formed or refactored.

A product's full column (Gaussian part plus correction) is stored only when
a later matmul of the program reads it as its input, because Gram rows and
corrections re-read those columns at every later product.  Any other
product's column is formed from its Gaussian part and ``correction_info``
each time it is read (by a nonlin or moment, by ``expect`` or through
``cols[name]``), with the same operations as a stored one, so the bytes are
the same.  Initial vectors and nonlin outputs are always stored.

A build runs its sequential chain on the calling thread: Gram rows,
conditioning, correction solves and column forms.  When 2 or more CPUs are
usable, one helper thread takes work the chain does not wait on: every
correction stderr, which only the end of the build reads, or, in a build
that computes none, every member's fresh normals, drawn into its store
column from a stream keyed by (seed, matrix, direction, index) and queued up
front in program order.  The stderrs alone keep the helper busier than the
chain, so beside them the calling thread draws the normals.  The chain's
n-length dots and products are numpy sums, not BLAS, so they run on one core
and the bytes do not depend on the BLAS thread count; with one usable CPU,
or under a direct ``advance``, everything runs inline with the same bytes.

Scalars produced by moment instructions converge to the ensemble mean of
the expression over the children's limit samples.  Replicas split the sample
budget over independent ensembles and are pooled through one rule.  A caller
that declares its expectation tests before the build keeps of each replica
only a ``ReplicaAnswers`` record (those expectations, the scalar limits,
``correction_info`` and the diagnostics), made right after the replica is
built, so its columns and family stores are freed before the next one is
built and an R-replica build holds one replica's ensemble at a time.
"""

from __future__ import annotations

import math
from concurrent.futures import Future

import numpy as np

from . import exprs
from .errors import (
    ArityMismatch,
    NonFiniteEstimate,
    NonPSDExtension,
    StepAtJump,
    UnknownSymbol,
)
from .finite import helper_thread
from .numerics import sample_init_block, stream
from .program import MatMul, Moment, Nonlin, Program

DEFAULT_SAMPLES = 200_000
STDERR_BLOCK_ROWS = 4096  # rows per block of the correction stderr pass
JUMP_N = 10**6  # the size whose scalar rule values stand for the finite sizes

__all__ = [
    "LimitState",
    "ReplicaAnswers",
    "ReplicatedLimit",
    "build_limit",
    "build_replicated",
    "DEFAULT_SAMPLES",
]


class GaussianFamily:
    """All products by one matrix in one direction, with their joint covariance.

    The members' Gaussian parts are the columns of one preallocated
    Fortran-order ``(n_samples, capacity)`` store.  The Gram matrix
    ``E[x_i x_j]`` of the inputs is kept as its lower-triangular Cholesky
    factor, one row per member; a degenerate member has a zero pivot and a
    zero column, and ``kept`` lists the others, so ``cov == var_scale * L L^T``
    and ``L[K, K]`` is invertible.  Both fill in place as members are appended.
    """

    def __init__(
        self, matrix: str, transposed: bool, var_scale: float, n_samples: int, capacity: int
    ):
        self.matrix = matrix
        self.transposed = transposed
        self.var_scale = var_scale  # effective variance of the family
        self.inputs: list[str] = []  # matmul input names, introduction order
        self.outputs: list[str] = []  # product names
        self.store = np.empty((n_samples, capacity), order="F")
        self.factor = np.zeros((capacity, capacity))
        self.kept: list[int] = []  # members with a pivot

    def __len__(self) -> int:
        return len(self.inputs)

    @property
    def cov(self) -> np.ndarray:
        low = self.factor[: len(self), : len(self)]
        return self.var_scale * (low @ low.T)

    def kept_factor(self) -> np.ndarray:
        """The invertible triangular factor ``L_K`` of the kept members' Gram matrix.

        Solves against it use ``numpy.linalg`` only: a triangular solver from
        a package that bundles its own OpenBLAS (such as scipy, which limit
        runs do not load at all) starts a second BLAS thread pool, which
        contends with numpy's on few cores.
        """
        return self.factor[np.ix_(self.kept, self.kept)]


class _Columns(dict):
    """Every vector's limit column by name, forming unstored products on read.

    The dict holds the stored columns; a product that is not stored is formed
    by ``form`` on each lookup and is neither a key nor counted by ``len``.
    The map refers to the ``gauss_cols`` and ``correction_info`` dicts and
    never to its state, so a state is freed by reference counting alone.
    """

    def __init__(self, gauss_cols: dict, correction_info: dict):
        super().__init__()
        self._gauss_cols = gauss_cols
        self._correction_info = correction_info

    def form(self, name: str) -> np.ndarray:
        """A product's column: its Gaussian part plus its correction terms in order."""
        ys, coeffs, _ = self._correction_info[name]
        col = self._gauss_cols[name].copy()
        for a, nm in zip(coeffs, ys):
            col += a * self[nm]
        return col

    def __missing__(self, name: str) -> np.ndarray:
        if name not in self._correction_info:
            raise KeyError(name)
        return self.form(name)


class LimitState:
    """Joint limit sample ensemble of a program, built by appending instructions.

    Processing is prefix-monotone: advancing appends new vectors, scalars,
    and family members but never rewrites existing ones.  A fully processed
    state is immutable by convention and safe to share.
    """

    def __init__(self, program: Program, n_samples: int = DEFAULT_SAMPLES, seed: int = 0,
                 *, _with_stderr: bool = True):
        self.program = program
        self.n_samples = int(n_samples)
        if self.n_samples < 2:
            raise ValueError(f"a limit ensemble needs at least 2 samples (got {self.n_samples})")
        self.seed = int(seed)
        # False in replicas, which report their spread, and for callers that
        # never read them: correction stderrs are NaN
        self._with_stderr = _with_stderr
        # while _process builds: its helper thread and each family member's
        # queued fill of fresh normals, by (matrix, transposed, index)
        self._helper = None
        self._fills: dict[tuple[str, bool, int], Future] = {}
        self.gauss_cols: dict[str, np.ndarray] = {}
        self.correction_info: dict[str, tuple[tuple[str, ...], np.ndarray, np.ndarray]] = {}
        self.cols = _Columns(self.gauss_cols, self.correction_info)
        # the vectors a matmul reads: a product among them has its column stored
        self._matmul_inputs = {i.vin for i in program.instructions if isinstance(i, MatMul)}
        self.families: dict[tuple[str, bool], GaussianFamily] = {}
        self.scalar_limits: dict[str, tuple[float, float]] = {}
        self.diagnostics: list[str] = []
        for block in program.init_blocks.values():
            self.cols.update(sample_init_block(self.seed, "init", *block, self.n_samples))
        for s in program.scalars:
            self.scalar_limits[s.name] = (s.limit, 0.0)

    # -- family machinery ----------------------------------------------------

    def _family(self, matrix: str, transposed: bool) -> GaussianFamily:
        key = (matrix, transposed)
        if key not in self.families:
            decl = self.program.matrix(matrix)
            scale = decl.sigma2
            if transposed:
                scale = self.program.matrix_ratio(matrix) * decl.sigma2
            capacity = sum(
                isinstance(i, MatMul) and (i.matrix, i.transposed) == key
                for i in self.program.instructions
            )
            self.families[key] = GaussianFamily(
                matrix, transposed, scale, self.n_samples, capacity
            )
        return self.families[key]

    def extend_family(
        self, family: GaussianFamily, gram_row: np.ndarray, gram_diag: float, label: str
    ) -> np.ndarray:
        """Write one jointly-Gaussian member into the family by conditioning.

        ``gram_row`` holds the second moments of the new input with the
        family's inputs and ``gram_diag`` its own; the member's covariances
        are ``var_scale`` times these.  The new column is the conditional
        mean given the existing members plus a fresh innovation of the
        conditional variance.  Returns the column, a view into the store;
        the caller appends the input and product names.
        """
        k = len(family)
        gram_row = np.asarray(gram_row, dtype=np.float64)
        if gram_row.shape != (k,):
            raise ArityMismatch(f"Gram row has length {gram_row.size}, family has {k}")
        variance = family.var_scale * gram_diag
        if variance < 0:
            raise NonPSDExtension(f"negative variance {variance} for {label}")

        kept = family.kept
        low = family.kept_factor()
        whitened = np.linalg.solve(low, gram_row[kept])  # l = L_K^-1 g_K
        pivot2 = gram_diag - float(whitened @ whitened)
        cond_var = family.var_scale * pivot2
        if cond_var < -1e-6 * max(variance, 1e-12):
            raise NonPSDExtension(
                f"extension for {label} is not PSD (conditional variance {cond_var:.3e})"
            )

        weights = np.zeros(k)
        weights[kept] = np.linalg.solve(low.T, whitened)
        mean = np.einsum("ij,j->i", family.store[:, :k], weights)
        # the slot gets its fresh normals xi, then scale * xi + mean in place
        col = family.store[:, k]
        fill = self._fills.pop((family.matrix, family.transposed, k), None)
        if fill is None:
            _draw_fresh(self.seed, family, k)
        else:
            fill.result()
        family.factor[k, kept] = whitened
        if cond_var <= 1e-10 * max(variance, 1e-30):
            self.diagnostics.append(
                f"DegenerateGVar: {label} has vanishing conditional variance; "
                "its Gaussian part is a deterministic image of earlier members"
            )
            col[:] = mean
        else:
            family.factor[k, k] = math.sqrt(pivot2)
            kept.append(k)
            col *= math.sqrt(cond_var)
            col += mean
        return col

    def _correction(self, instr: MatMul) -> tuple[tuple[str, ...], np.ndarray, np.ndarray]:
        """Coefficients of the correction part over earlier opposite inputs.

        Returns (input names, coefficients, first-order standard errors); the
        standard errors are NaN in a state built without them, and a Future
        of them on the helper thread while _process builds, since nothing
        reads them before the build ends.
        """
        opposite = self.families.get((instr.matrix, not instr.transposed))
        if opposite is None or len(opposite) == 0:
            return (), np.zeros(0), np.zeros(0)
        k = len(opposite)
        ys = tuple(opposite.inputs)
        h = opposite.store[:, :k]
        xcol = self.cols[instr.vin]
        b = np.einsum("ij,i->j", h, xcol) / self.n_samples
        rho_applied = self.program.matrix_ratio(instr.matrix, instr.transposed)
        # C^-1 = L_K^-T L_K^-1 on the kept inputs and 0 on the dependent ones
        kept = opposite.kept
        linv = np.linalg.solve(opposite.kept_factor(), np.eye(len(kept)))
        w = np.zeros(k)
        w[kept] = linv.T @ (linv @ b[kept])
        # the delta-method stderr is reported only by a single ensemble
        # (replicas report their spread), so only a state built with it pays for it
        if self._with_stderr:
            m = np.zeros((k, k))
            m[np.ix_(kept, kept)] = linv.T @ linv / rho_applied
            job = (h, xcol, [self.cols[nm] for nm in ys], w, m)
            if self._helper is None:
                stderr = self._correction_stderr(*job)
            else:
                stderr = self._helper.submit(self._correction_stderr, *job)
        else:
            stderr = np.full(k, np.nan)
        return ys, w / rho_applied, stderr

    def _correction_stderr(
        self, h: np.ndarray, xcol: np.ndarray, ys: list[np.ndarray], w: np.ndarray,
        m: np.ndarray,
    ) -> np.ndarray:
        """Delta-method stderr of the coefficients ``m.T @ b``, ``m = C^-1 / rho``.

        Sample s moves b and the Gram matrix by the influence
        ``r_sj = h_sj x_s - y_sj (y_s . w)``, so ``std_j = sqrt((m^T Cov(r) m)_jj / n)``.
        ``Cov(r) = (sum r^T r - n rbar rbar^T) / (n - 1)`` is summed over
        fixed row blocks in one reused ``(block, k)`` buffer.  ``rbar = b - C w``
        is the solve residual, close to 0, so this one-pass form loses no
        precision to cancellation.
        """
        k = w.size
        n = self.n_samples
        rows = min(n, STDERR_BLOCK_ROWS)
        buf = np.empty((rows, k), order="F")
        yw = np.empty(rows)
        tmp = np.empty(rows)
        rtr = np.zeros((k, k))
        rsum = np.zeros(k)
        for s in range(0, n, rows):
            e = min(s + rows, n)
            r, ywb, t = buf[: e - s], yw[: e - s], tmp[: e - s]
            np.multiply(ys[0][s:e], w[0], out=ywb)
            for a, y in zip(w[1:], ys[1:]):
                ywb += np.multiply(y[s:e], a, out=t)
            np.multiply(h[s:e], xcol[s:e, None], out=r)
            for rj, y in zip(r.T, ys):
                rj -= np.multiply(y[s:e], ywb, out=t)
            rtr += r.T @ r
            rsum += r.sum(axis=0)
        cov = (rtr - np.outer(rsum, rsum) / n) / (n - 1)
        var = np.sum(m * (cov @ m), axis=0)
        return np.sqrt(np.maximum(var, 0.0) / n)

    # -- instruction processing ---------------------------------------------

    def advance(self, instr) -> "LimitState":
        if isinstance(instr, MatMul):
            self._advance_matmul(instr)
            return self
        if not isinstance(instr, (Nonlin, Moment)):
            raise TypeError(f"cannot advance over {instr!r}")
        pars = tuple(self.scalar_limits[nm][0] for nm in instr.params)
        self._check_steps(instr, pars)
        cols = tuple(self.cols[nm] for nm in instr.inputs)
        if isinstance(instr, Nonlin):
            self.cols[instr.out] = exprs.evaluate_columns(instr.expr, cols, pars)
        else:
            vals = np.asarray(exprs.evaluate(instr.expr, cols, pars), dtype=np.float64)
            self.scalar_limits[instr.out] = self._mean_stderr(vals, f"moment {instr.out}")
        return self

    def _check_steps(self, instr: Nonlin | Moment, pars: tuple[float, ...]) -> None:
        """Raise StepAtJump where a step of parameters alone is on its jump: where it
        differs between their limit values and their rule values at n = JUMP_N, or
        where moving one of them by 3 of its ensemble stderr either way changes it
        (a moment scalar's limit is known only to within that stderr).  The Master
        Theorem needs nonlinearities continuous in their parameters at the limit values."""
        rules = {s.name: s.rule for s in self.program.scalars if s.rule is not None}
        for e in _nodes(instr.expr):
            if e.op != "step" or exprs.n_inputs(e):
                continue  # a step of an input jumps on a null set of its samples
            used = sorted({a.index for a in _nodes(e) if a.op == "param"})
            others = [([rules[nm].value(JUMP_N) if nm in rules else v
                        for nm, v in zip(instr.params, pars)],
                       f"at the rule values for n = {JUMP_N}")]
            for j in used:
                se = self.scalar_limits[instr.params[j]][1]
                for shift in (-3.0 * se, 3.0 * se):
                    moved = list(pars)
                    moved[j] += shift
                    others.append((moved, f"with {instr.params[j]} moved by {shift:+.3g}, "
                                          f"3 of its ensemble stderr {se:.3g}"))
            at_limit = float(exprs.evaluate(e, (), pars))
            for ps, where in others:
                at_other = float(exprs.evaluate(e, (), ps))
                if at_other != at_limit:
                    named = ", ".join(sorted(f"p{j + 1} = {instr.params[j]}" for j in used))
                    raise StepAtJump(
                        f"{type(instr).__name__.lower()} {instr.out}: {exprs.format_expr(e)} "
                        f"with {named} is {at_limit!r} at the limit values but {at_other!r} "
                        f"{where}"
                    )

    def _advance_matmul(self, instr: MatMul):
        family = self._family(instr.matrix, instr.transposed)
        xcol = self.cols[instr.vin]
        n = self.n_samples
        gram_row = np.array([_dot(self.cols[nm], xcol) / n for nm in family.inputs])
        gcol = self.extend_family(family, gram_row, _dot(xcol, xcol) / n, label=instr.out)

        self.correction_info[instr.out] = self._correction(instr)
        family.inputs.append(instr.vin)
        family.outputs.append(instr.out)
        self.gauss_cols[instr.out] = gcol
        if instr.out in self._matmul_inputs:
            self.cols[instr.out] = self.cols.form(instr.out)

    # -- queries -------------------------------------------------------------

    def _mean_stderr(self, vals: np.ndarray, what: str) -> tuple[float, float]:
        """Ensemble mean and single-ensemble stderr of the statistic `what`.

        A constant has stderr 0.  Raises NonFiniteEstimate when the mean or
        the stderr is not finite.
        """
        if vals.ndim == 0:
            mean, se = float(vals), 0.0
        else:
            with np.errstate(over="ignore", invalid="ignore"):
                mean = float(np.mean(vals))
                se = float(np.std(vals, ddof=1) / math.sqrt(self.n_samples))
        if not (math.isfinite(mean) and math.isfinite(se)):
            raise NonFiniteEstimate(f"{what} has a non-finite estimate: mean {mean}, stderr {se}")
        return mean, se

    def expect(self, test: exprs.Expr, vectors: list[str]) -> tuple[float, float]:
        """Monte-Carlo mean and stderr of test over the given limit variables."""
        self.program.check_average(test, vectors)
        cols = tuple(self.cols[nm] for nm in vectors)
        vals = np.asarray(exprs.evaluate(test, cols), dtype=np.float64)
        return self._mean_stderr(
            vals, f"expectation of {exprs.format_expr(test)} over {','.join(vectors)}"
        )

    def scalar_limit(self, name: str) -> tuple[float, float]:
        if name not in self.scalar_limits:
            raise UnknownSymbol(f"scalar {name!r} has no recorded limit")
        return self.scalar_limits[name]

    def correction_coeffs(self, gvar: str) -> tuple[tuple[str, ...], np.ndarray, np.ndarray]:
        """(inputs, coefficients, stderr) of the correction part of a product."""
        if gvar not in self.correction_info:
            raise UnknownSymbol(f"{gvar!r} is not a matmul output")
        return self.correction_info[gvar]


def _dot(a: np.ndarray, b: np.ndarray) -> float:
    """a . b as a numpy sum: one thread, and the same bytes under any BLAS thread count."""
    return float(np.einsum("i,i->", a, b))


def _draw_fresh(seed: int, family: GaussianFamily, k: int) -> None:
    """Member k's fresh standard normals, in place in its store column."""
    stream(seed, "fresh", family.matrix, family.transposed, k).standard_normal(
        out=family.store[:, k]
    )


def _nodes(e: exprs.Expr):
    """Every node of an expression tree, root first."""
    yield e
    for a in e.args:
        yield from _nodes(a)


def build_limit(
    program: Program, n_samples: int = DEFAULT_SAMPLES, seed: int = 0
) -> LimitState:
    """Process a whole program into its limit state."""
    return _process(LimitState(program, n_samples=n_samples, seed=seed))


def _process(state: LimitState) -> LimitState:
    """Advance over the whole program.  This thread runs the chain; a helper
    thread, when there is one, computes the correction stderrs, collected at
    the end, or, in a build without them, draws every member's fresh normals,
    queued up front in program order (see the module docstring)."""
    with helper_thread() as helper:
        state._helper = helper
        queue_fills = helper is not None and not state._with_stderr
        try:
            slots: dict[tuple[str, bool], int] = {}
            for instr in state.program.instructions:
                if queue_fills and isinstance(instr, MatMul):
                    key = (instr.matrix, instr.transposed)
                    k = slots[key] = slots.get(key, -1) + 1
                    state._fills[(*key, k)] = helper.submit(
                        _draw_fresh, state.seed, state._family(*key), k)
            for instr in state.program.instructions:
                state.advance(instr)
            for g, (ys, coeffs, stderr) in list(state.correction_info.items()):
                if isinstance(stderr, Future):
                    state.correction_info[g] = (ys, coeffs, stderr.result())
        finally:
            state._helper = None
            state._fills.clear()
    return state


class ReplicaAnswers:
    """What a caller reads of one replica, kept in place of its columns.

    Made right after the replica is built, from the expectation tests its
    caller declared before the build: their expectations, the scalar
    limits, ``correction_info`` and the diagnostics, a few floats per query
    where the state holds every column and family store.  Its ``expect`` and
    ``scalar_limit`` give a state's floats.
    """

    def __init__(self, state: LimitState, tests):
        self.expectations = {(test, tuple(vectors)): state.expect(test, vectors)
                             for test, vectors in tests}
        self.scalar_limits = state.scalar_limits
        self.correction_info = state.correction_info
        self.diagnostics = state.diagnostics

    def expect(self, test: exprs.Expr, vectors: list[str]) -> tuple[float, float]:
        key = (test, tuple(vectors))
        if key not in self.expectations:
            raise UnknownSymbol(
                f"expectation of {exprs.format_expr(test)} over {','.join(vectors)} "
                "is not among the tests declared before the build"
            )
        return self.expectations[key]

    scalar_limit = LimitState.scalar_limit


class ReplicatedLimit:
    """Limit estimates pooled over independent ensembles.

    A single ensemble's standard errors condition on the covariances,
    correction coefficients, and scalar parameters estimated from that same
    ensemble, so they understate the total uncertainty on deep programs.
    Splitting the sample budget across independent replicas and reporting
    the replica spread gives honest error bars at the same total cost.

    ``states`` holds one entry per replica, a full ``LimitState`` or a
    ``ReplicaAnswers`` record (see ``build_replicated``); both are pooled
    through the same methods and the same rule.
    """

    def __init__(self, states: list[LimitState | ReplicaAnswers]):
        if not states:
            raise ValueError("need at least one replica")
        self.states = states
        self.correction_info = {
            g: (ys, *self._pool([st.correction_info[g][1:] for st in states]))
            for g, (ys, _, _) in states[0].correction_info.items()
        }

    @staticmethod
    def _pool(estimates: list[tuple]) -> tuple:
        """Pool per-replica (value, stderr) pairs into (replica mean, spread/sqrt(R)).

        A single replica keeps its own ensemble stderr.
        """
        if len(estimates) == 1:
            return estimates[0]
        vals = np.array([v for v, _ in estimates])
        return vals.mean(axis=0), vals.std(axis=0, ddof=1) / math.sqrt(len(vals))

    def expect(self, test: exprs.Expr, vectors: list[str]) -> tuple[float, float]:
        mean, se = self._pool([st.expect(test, vectors) for st in self.states])
        return float(mean), float(se)

    def scalar_limit(self, name: str) -> tuple[float, float]:
        mean, se = self._pool([st.scalar_limit(name) for st in self.states])
        return float(mean), float(se)

    correction_coeffs = LimitState.correction_coeffs  # over the pooled correction_info

    def diagnostics(self) -> list[str]:
        """Every replica's diagnostics in first-seen order, duplicates dropped."""
        return list(dict.fromkeys(d for st in self.states for d in st.diagnostics))


def build_replicated(
    program: Program,
    n_samples: int = DEFAULT_SAMPLES,
    seed: int = 0,
    replicas: int = 1,
    *,
    with_stderr: bool = True,
    tests: list[tuple[exprs.Expr, list[str]]] | None = None,
) -> ReplicatedLimit:
    """Split the sample budget over independent ensembles (see ReplicatedLimit).

    Each replica gets n_samples // replicas samples, which must be at least 2.
    A single ensemble computes its correction stderrs unless with_stderr is
    False (a caller that never reads them); replicas never do.

    With ``tests``, the (expression, vectors) pairs whose expectations the
    caller will ask for, each replica is reduced to a ``ReplicaAnswers``
    record as soon as it is built, and its columns, Gaussian parts and
    family stores are freed before the next replica is built; ``expect`` of
    any other test raises UnknownSymbol.  Without it every replica's full
    state is kept until the result is dropped; that path serves only the
    benchmark replay, which reads ``states``, and goes when the replay is
    replaced by a library-owned run trace.
    """
    if replicas < 1:
        raise ValueError("replicas must be >= 1")
    states = []
    for r in range(replicas):
        state = _process(LimitState(program, n_samples=n_samples // replicas,
                                    seed=seed * 1_000_003 + r,
                                    _with_stderr=with_stderr and replicas == 1))
        states.append(state if tests is None else ReplicaAnswers(state, tests))
        del state  # with tests, this frees the replica before the next is built
    return ReplicatedLimit(states)
