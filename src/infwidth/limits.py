"""Infinite-width limit engine.

Processes a program instruction by instruction and maintains, for every
vector, the limiting coordinate random variable as a node in a symbolic DAG
together with a large seeded Monte-Carlo ensemble of joint samples.

The limit of a matmul output splits into two parts:

* a *Gaussian part*, jointly Gaussian across all products by the same matrix
  in the same direction, with covariance ``var_scale * E[Z_x Z_y]`` between
  the products of inputs x and y.  The effective scale is the declared
  variance for forward products and ``rho * variance`` for transposed
  products, where rho is the limiting rows/cols ratio.  New members are
  sampled by Gaussian conditioning on the existing family columns.
* a *correction part*, a linear combination of the inputs of earlier
  opposite-direction products by the same matrix.  The coefficients solve
  ``a = rho_applied^-1 C^+ b`` where C is the Gram matrix of those inputs'
  limit variables, b holds the cross-moments of their Gaussian parts with
  the current input, and rho_applied is the limiting rows/cols ratio of the
  matrix as applied.  This pseudoinverse form needs no derivatives and is
  exact for non-differentiable nonlinearities as well.

Scalars produced by moment instructions converge to the ensemble mean of
the expression over the children's limit samples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import exprs
from .errors import (
    ArityMismatch,
    DimClassConflict,
    NonPSDExtension,
    UnknownSymbol,
)
from .numerics import pseudoinverse, repair_psd, sample_init_block, stream
from .program import MatMul, Moment, Nonlin, Program

DEFAULT_SAMPLES = 200_000

__all__ = [
    "LimitState",
    "ReplicatedLimit",
    "build_limit",
    "build_replicated",
    "DEFAULT_SAMPLES",
]


@dataclass(frozen=True)
class InitNode:
    name: str


@dataclass(frozen=True)
class GaussNode:
    """Fresh Gaussian component of one matmul product."""

    matrix: str
    transposed: bool
    index: int  # position within the family


@dataclass(frozen=True)
class MatMulNode:
    gauss: GaussNode
    correction: tuple[tuple[float, str], ...]  # (coefficient, input vector name)


@dataclass(frozen=True)
class AppliedNode:
    expr: exprs.Expr
    children: tuple[str, ...]
    param_limits: tuple[float, ...]


LimitNode = InitNode | GaussNode | MatMulNode | AppliedNode


class GaussianFamily:
    """All products by one matrix in one direction, with their joint covariance."""

    def __init__(self, matrix: str, transposed: bool, var_scale: float):
        self.matrix = matrix
        self.transposed = transposed
        self.var_scale = var_scale  # effective variance of the family
        self.inputs: list[str] = []  # matmul input names, introduction order
        self.outputs: list[str] = []  # product names
        self.cov = np.zeros((0, 0))

    def __len__(self) -> int:
        return len(self.inputs)

    @property
    def key(self) -> tuple[str, bool]:
        return (self.matrix, self.transposed)


class LimitState:
    """Limit DAG plus joint sample ensemble, built by appending instructions.

    Processing is prefix-monotone: advancing appends new vectors, scalars,
    and family members but never rewrites existing ones.  A fully processed
    state is immutable by convention and safe to share.
    """

    def __init__(self, program: Program, n_samples: int = DEFAULT_SAMPLES, seed: int = 0):
        self.program = program
        self.n_samples = int(n_samples)
        self.seed = int(seed)
        self.position = 0
        self.nodes: dict[str, LimitNode] = {}
        self.cols: dict[str, np.ndarray] = {}
        self.gauss_cols: dict[str, np.ndarray] = {}
        self.families: dict[tuple[str, bool], GaussianFamily] = {}
        self.scalar_limits: dict[str, tuple[float, float]] = {}
        self.correction_info: dict[str, tuple[tuple[str, ...], np.ndarray, np.ndarray]] = {}
        self.diagnostics: list[str] = []
        self._init_ensemble()

    # -- construction ------------------------------------------------------

    def _init_ensemble(self):
        for rep in self.program.cdc_reps():
            block = sample_init_block(
                self.seed, "init", *self.program.init_block(rep), self.n_samples
            )
            self.cols.update(block)
            self.nodes.update((nm, InitNode(nm)) for nm in block)
        for s in self.program.scalars:
            self.scalar_limits[s.name] = (s.limit, 0.0)

    # -- family machinery ----------------------------------------------------

    def _family(self, matrix: str, transposed: bool) -> GaussianFamily:
        key = (matrix, transposed)
        if key not in self.families:
            decl = self.program.matrix(matrix)
            scale = decl.sigma2
            if transposed:
                scale = self.program.matrix_ratio(matrix) * decl.sigma2
            self.families[key] = GaussianFamily(matrix, transposed, scale)
        return self.families[key]

    def extend_family(
        self, family: GaussianFamily, cov_row: np.ndarray, variance: float, label: str
    ) -> np.ndarray:
        """Append one jointly-Gaussian member by conditioning on the family.

        The new sample column is the conditional mean given the existing
        columns plus a fresh innovation of the conditional variance; the
        family covariance gains the given row/diagonal.
        """
        k = len(family)
        cov_row = np.asarray(cov_row, dtype=np.float64)
        if cov_row.shape != (k,):
            raise ArityMismatch(f"covariance row has length {cov_row.size}, family has {k}")
        if variance < 0:
            raise NonPSDExtension(f"negative variance {variance} for {label}")

        aug = np.zeros((k + 1, k + 1))
        aug[:k, :k] = family.cov
        aug[:k, k] = aug[k, :k] = cov_row
        aug[k, k] = variance
        wmin = float(np.linalg.eigvalsh(aug)[0]) if k + 1 > 0 else 0.0
        if wmin < -1e-6 * max(variance, 1e-12):
            raise NonPSDExtension(
                f"extension for {label} is not PSD-repairable (min eig {wmin:.3e})"
            )

        xi = stream(self.seed, "fresh", family.matrix, family.transposed, k).standard_normal(
            self.n_samples
        )
        if k == 0:
            cond_mean = 0.0
            cond_var = variance
        else:
            base = repair_psd(family.cov, rel_tol=1e-9)
            w = pseudoinverse(base) @ cov_row
            existing = np.column_stack([self.gauss_cols[nm] for nm in family.outputs])
            cond_mean = existing @ w
            cond_var = variance - float(cov_row @ w)
        if cond_var <= 1e-10 * max(variance, 1e-30):
            self.diagnostics.append(
                f"DegenerateGVar: {label} has vanishing conditional variance; "
                "its Gaussian part is a deterministic image of earlier members"
            )
            cond_var = max(cond_var, 0.0)
        col = cond_mean + math.sqrt(max(cond_var, 0.0)) * xi

        family.cov = aug
        return col

    def _correction(
        self, matrix: str, transposed: bool, vin: str
    ) -> tuple[tuple[str, ...], np.ndarray, np.ndarray]:
        """Coefficients of the correction part over earlier opposite inputs.

        Returns (input names, coefficients, first-order standard errors).
        """
        opposite = self.families.get((matrix, not transposed))
        if opposite is None or len(opposite) == 0:
            return (), np.zeros(0), np.zeros(0)
        ys = tuple(opposite.inputs)
        yc = np.column_stack([self.cols[nm] for nm in ys])
        hc = np.column_stack([self.gauss_cols[nm] for nm in opposite.outputs])
        xcol = self.cols[vin]
        n = self.n_samples
        gram = (yc.T @ yc) / n
        b = hc.T @ xcol / n
        rho_applied = self.program.matrix_ratio(matrix, transposed)
        cplus = pseudoinverse(gram)
        coeffs = cplus @ b / rho_applied
        # delta-method stderr: per-sample influence of both b and the Gram matrix
        w = cplus @ b
        r = hc * xcol[:, None] - yc * (yc @ w)[:, None]
        infl = (r - r.mean(axis=0)) @ (cplus.T / rho_applied)
        stderr = infl.std(axis=0, ddof=1) / math.sqrt(n)
        return ys, coeffs, stderr

    # -- instruction processing ---------------------------------------------

    def advance(self, instr) -> "LimitState":
        if isinstance(instr, MatMul):
            self._advance_matmul(instr)
        elif isinstance(instr, Nonlin):
            pars = tuple(self.scalar_limits[nm][0] for nm in instr.params)
            cols = tuple(self.cols[nm] for nm in instr.inputs)
            self.cols[instr.out] = np.asarray(
                exprs.evaluate(instr.expr, cols, pars), dtype=np.float64
            )
            self.nodes[instr.out] = AppliedNode(instr.expr, instr.inputs, pars)
        elif isinstance(instr, Moment):
            pars = tuple(self.scalar_limits[nm][0] for nm in instr.params)
            cols = tuple(self.cols[nm] for nm in instr.inputs)
            vals = np.asarray(exprs.evaluate(instr.expr, cols, pars), dtype=np.float64)
            if vals.ndim == 0:
                self.scalar_limits[instr.out] = (float(vals), 0.0)
            else:
                self.scalar_limits[instr.out] = (
                    float(np.mean(vals)),
                    float(np.std(vals, ddof=1) / math.sqrt(self.n_samples)),
                )
        else:
            raise TypeError(f"cannot advance over {instr!r}")
        self.position += 1
        return self

    def _advance_matmul(self, instr: MatMul):
        family = self._family(instr.matrix, instr.transposed)
        xcol = self.cols[instr.vin]
        n = self.n_samples
        scale = family.var_scale
        cov_row = (
            np.array([float(self.cols[nm] @ xcol) / n for nm in family.inputs]) * scale
            if len(family)
            else np.zeros(0)
        )
        variance = scale * float(xcol @ xcol) / n
        gcol = self.extend_family(family, cov_row, variance, label=instr.out)

        ys, coeffs, stderr = self._correction(instr.matrix, instr.transposed, instr.vin)
        self.correction_info[instr.out] = (ys, coeffs, stderr)

        col = gcol.copy()
        for a, nm in zip(coeffs, ys):
            col += a * self.cols[nm]
        index = len(family)
        family.inputs.append(instr.vin)
        family.outputs.append(instr.out)
        self.gauss_cols[instr.out] = gcol
        self.cols[instr.out] = col
        self.nodes[instr.out] = MatMulNode(
            GaussNode(instr.matrix, instr.transposed, index),
            tuple((float(a), nm) for a, nm in zip(coeffs, ys)),
        )

    # -- queries -------------------------------------------------------------

    def expect(self, test: exprs.Expr, vectors: list[str]) -> tuple[float, float]:
        """Monte-Carlo mean and stderr of test over the given limit variables."""
        reps = {self.program.cdc(nm) for nm in vectors}
        if len(reps) > 1:
            raise DimClassConflict(f"test vectors span several classes: {sorted(reps)}")
        if exprs.n_inputs(test) > len(vectors):
            raise ArityMismatch("test expression arity exceeds vector count")
        cols = tuple(self.cols[nm] for nm in vectors)
        vals = np.asarray(exprs.evaluate(test, cols), dtype=np.float64)
        if vals.ndim == 0:
            return float(vals), 0.0
        return (
            float(np.mean(vals)),
            float(np.std(vals, ddof=1) / math.sqrt(self.n_samples)),
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


def build_limit(
    program: Program, n_samples: int = DEFAULT_SAMPLES, seed: int = 0
) -> LimitState:
    """Process a whole program into its limit state."""
    state = LimitState(program, n_samples=n_samples, seed=seed)
    for instr in program.instructions:
        state.advance(instr)
    return state


class ReplicatedLimit:
    """Limit estimates pooled over independent ensembles.

    A single ensemble's standard errors condition on the covariances,
    correction coefficients, and scalar parameters estimated from that same
    ensemble, so they understate the total uncertainty on deep programs.
    Splitting the sample budget across independent replicas and reporting
    the replica spread gives honest error bars at the same total cost.
    """

    def __init__(self, states: list[LimitState]):
        if not states:
            raise ValueError("need at least one replica")
        self.states = states

    @property
    def program(self) -> Program:
        return self.states[0].program

    def _combine(self, vals: np.ndarray, fallback: float) -> tuple[float, float]:
        if len(self.states) == 1:
            return float(vals[0]), fallback
        return (
            float(np.mean(vals)),
            float(np.std(vals, ddof=1) / math.sqrt(len(vals))),
        )

    def expect(self, test: exprs.Expr, vectors: list[str]) -> tuple[float, float]:
        pairs = [st.expect(test, vectors) for st in self.states]
        return self._combine(np.array([p[0] for p in pairs]), pairs[0][1])

    def scalar_limit(self, name: str) -> tuple[float, float]:
        pairs = [st.scalar_limit(name) for st in self.states]
        return self._combine(np.array([p[0] for p in pairs]), pairs[0][1])

    def correction_coeffs(self, gvar: str):
        ys, c0, se0 = self.states[0].correction_coeffs(gvar)
        if len(self.states) == 1:
            return ys, c0, se0
        coeffs = np.array([st.correction_coeffs(gvar)[1] for st in self.states])
        r = len(self.states)
        if coeffs.size == 0:
            return ys, c0, se0
        return (
            ys,
            coeffs.mean(axis=0),
            coeffs.std(axis=0, ddof=1) / math.sqrt(r),
        )

    @property
    def correction_info(self):
        return {g: self.correction_coeffs(g) for g in self.states[0].correction_info}

    def diagnostics(self) -> list[str]:
        return list(self.states[0].diagnostics)


def build_replicated(
    program: Program,
    n_samples: int = DEFAULT_SAMPLES,
    seed: int = 0,
    replicas: int = 1,
) -> ReplicatedLimit:
    """Split the sample budget over independent ensembles (see ReplicatedLimit)."""
    if replicas < 1:
        raise ValueError("replicas must be >= 1")
    per = max(2, n_samples // replicas)
    states = [
        build_limit(program, n_samples=per, seed=seed * 1_000_003 + r)
        for r in range(replicas)
    ]
    return ReplicatedLimit(states)
