"""Numerical utilities: pseudoinverse, PSD factors, Hermite expansions, RNG streams.

The pseudoinverse is a public reference for the limit engine's Cholesky
solves.  ``psd_factor`` checks and factors a declared initial covariance
once, when the program is built; ``sample_init_block`` draws from that
factor and does no linear algebra beyond one product.

``gaussian_expect`` integrates with numpy's order-200 Gauss-Hermite rule
(``numpy.polynomial.hermite_e.hermegauss``), built on first use.
``gauss_hermite_nodes`` serves the Hermite oracle, whose orders reach
thousands, where numpy's rule overflows: it is the only user of scipy and
imports ``scipy.special`` on its first call, so no CLI command loads scipy.
Both rules are cached and returned as read-only arrays shared by all
callers.
"""

from __future__ import annotations

import functools
import hashlib
import math
import warnings

import numpy as np

from . import exprs
from .errors import TruncationWarning


def pseudoinverse(m: np.ndarray) -> np.ndarray:
    """Moore-Penrose pseudoinverse via SVD.

    Singular values below ``1e-12 * max_singular_value`` are treated as
    exact zeros, so the result is stable on rank-deficient input.
    """
    m = np.asarray(m, dtype=np.float64)
    if m.size == 0:
        return m.T.copy()
    u, s, vt = np.linalg.svd(m, full_matrices=False)
    keep = s > 1e-12 * s[0]
    inv = np.where(keep, 1.0 / np.where(keep, s, 1.0), 0.0)
    return (vt.T * inv) @ u.T


PSD_REL_TOL = 1e-10  # eigenvalues down to -PSD_REL_TOL * scale count as roundoff


def psd_factor(cov: np.ndarray) -> np.ndarray:
    """A matrix L with L @ L.T == cov (non-empty, symmetric), from one ``eigh``.

    Eigenvalues in ``[-PSD_REL_TOL * scale, 0)`` are roundoff and clipped to
    zero (scale is the largest absolute eigenvalue); anything more negative,
    or NaN, raises ValueError because the matrix is not a covariance.
    """
    w, v = np.linalg.eigh(np.asarray(cov, dtype=np.float64))
    scale = float(np.abs(w).max())
    if not w[0] >= -PSD_REL_TOL * scale:
        raise ValueError(
            f"matrix is not PSD within tolerance: min eigenvalue {w[0]:.3e}, "
            f"scale {scale:.3e}"
        )
    return v * np.sqrt(np.clip(w, 0.0, None))


def stream(seed: int, *labels) -> np.random.Generator:
    """Deterministic counter-based random stream keyed by (seed, labels).

    Streams for distinct keys are independent regardless of the order in
    which they are created or consumed, which keeps sampling reproducible
    under any execution schedule.
    """
    h = hashlib.sha256()
    h.update(str(int(seed)).encode())
    for lab in labels:
        h.update(b"\x1f")
        h.update(str(lab).encode())
    key = int.from_bytes(h.digest()[:16], "little")
    return np.random.Generator(np.random.Philox(key=key))


def sample_init_block(
    seed: int, label: str, names, mean: np.ndarray, factor: np.ndarray, n: int
) -> dict[str, np.ndarray]:
    """n iid draws of the initial vectors `names` ~ N(mean, L L^T), one column each.

    The block is mean + gauss @ L.T with L = factor, where the gauss column
    of each name comes from its own stream (seed, label, name).
    """
    gauss = np.column_stack([stream(seed, label, nm).standard_normal(n) for nm in names])
    block = mean[None, :] + gauss @ factor.T
    return {nm: np.ascontiguousarray(block[:, j]) for j, nm in enumerate(names)}


# ---------------------------------------------------------------------------
# Gauss-Hermite quadrature and Hermite expansions
# ---------------------------------------------------------------------------

_SQRT_2PI = math.sqrt(2.0 * math.pi)


def _probability_rule(xs: np.ndarray, ws: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of a rule for exp(-x^2/2), rescaled to sum to one
    and made read-only."""
    ws = ws / _SQRT_2PI
    xs.flags.writeable = False
    ws.flags.writeable = False
    return xs, ws


@functools.lru_cache(maxsize=None)
def gauss_hermite_nodes(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and probability weights for E over a standard normal, for the
    Hermite oracle.

    scipy's Golub-Welsch implementation stays stable at the high orders
    needed to integrate discontinuous functions accurately, where numpy's
    hermegauss overflows (its weights are NaN at order 500).  scipy is
    imported here, on first use, to keep it off the import path.  The
    result is computed once per order and shared, so both arrays are
    read-only.
    """
    from scipy import special

    return _probability_rule(*special.roots_hermitenorm(order))


@functools.cache
def expect_nodes() -> tuple[np.ndarray, np.ndarray]:
    """gaussian_expect's order-200 nodes and probability weights, from
    numpy's Golub-Welsch rule; built on first use, shared and read-only."""
    return _probability_rule(*np.polynomial.hermite_e.hermegauss(200))


def gaussian_expect(f, var: float = 1.0) -> float:
    """E f(z) for z ~ N(0, var) by Gauss-Hermite quadrature at order 200
    (expect_nodes), without scipy."""
    xs, ws = expect_nodes()
    vals = np.asarray(f(math.sqrt(var) * xs), dtype=np.float64)
    if vals.ndim == 0:
        return float(vals)  # constant integrand
    return float(np.dot(ws, vals))


def hermite_matrix(xs: np.ndarray, k_max: int) -> np.ndarray:
    """Orthonormal Hermite values H_k(xs) for k = 0..k_max, shape (k_max+1, len(xs)).

    Uses the normalized three-term recurrence, which is stable for large k.
    """
    out = np.empty((k_max + 1, xs.size))
    out[0] = 1.0
    if k_max >= 1:
        out[1] = xs
    for k in range(1, k_max):
        out[k + 1] = (xs * out[k] - math.sqrt(k) * out[k - 1]) / math.sqrt(k + 1)
    return out


def hermite_coefficients(phi: exprs.Expr, k_max: int, order: int | None = None) -> np.ndarray:
    """Coefficients of phi in the orthonormal Hermite basis under N(0,1)."""
    if order is None:
        order = max(4 * k_max, 8)
    xs, ws = gauss_hermite_nodes(order)
    vals = exprs.evaluate_columns(phi, (xs,))
    h = hermite_matrix(xs, k_max)
    return h @ (ws * vals)


def hermite_pair_expectation(
    phi: exprs.Expr, psi: exprs.Expr, rho: float, trunc: int
) -> float:
    """E phi(z1) psi(z2) for unit-variance jointly Gaussian (z1, z2), corr rho.

    Computed from the Hermite diagonalization sum_k a_k b_k rho^k truncated
    at k = trunc; emits TruncationWarning when the last kept term is not
    negligible.  Needs scipy: its quadrature order is at least 6000
    (gauss_hermite_nodes).
    """
    if not -1.0 <= rho <= 1.0:
        raise ValueError("correlation must lie in [-1, 1]")
    # the quadrature error on discontinuous factors decays like 1/order and
    # must sit well below Monte-Carlo error bars, so the oracle over-resolves
    order = max(4 * trunc, 6000)
    a = hermite_coefficients(phi, trunc, order)
    b = hermite_coefficients(psi, trunc, order)
    if abs(a[trunc] * b[trunc]) > 1e-8:
        warnings.warn(
            f"Hermite tail term |a_K b_K| = {abs(a[trunc] * b[trunc]):.2e} at K={trunc}",
            TruncationWarning,
            stacklevel=2,
        )
    powers = rho ** np.arange(trunc + 1)
    return float(np.dot(a * b, powers))
