"""Closed-form spectral laws and free-probability numerics.

Spectral laws are carried around as truncated moment sequences (m_1..m_K,
with m_0 = 1 implicit).  Free multiplicative convolution works at the moment
level through the S-transform: S(z) = chi(z)(1+z)/z, where chi is the
compositional inverse of the moment generating series psi(z) = sum m_k z^k.
All series arithmetic is exact truncated power-series arithmetic in float64
with compensated summation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NonInvertibleSeries

# ---------------------------------------------------------------------------
# Catalan numbers, semicircle, Marchenko-Pastur
# ---------------------------------------------------------------------------


def catalan(k: int) -> int:
    """Exact k-th Catalan number, binom(2k, k) / (k + 1)."""
    if k < 0:
        raise ValueError("k must be >= 0")
    return math.comb(2 * k, k) // (k + 1)


def semicircle_moment(r: int) -> float:
    """r-th moment of the unit semicircle law: C_{r/2} for even r, else 0."""
    if r < 0:
        raise ValueError("r must be >= 0")
    return float(catalan(r // 2)) if r % 2 == 0 else 0.0


def semicircle_b_coeff(t: int, r: int) -> float:
    """Weight of the depth-r term in the depth-t symmetric-product expansion:
    C_{(t-r)/2} when t - r is even, else 0."""
    if not 0 <= r <= t:
        raise ValueError("need 0 <= r <= t")
    return float(catalan((t - r) // 2)) if (t - r) % 2 == 0 else 0.0


def mp_moment(r: int, rho: float, method: str = "explicit") -> float:
    """r-th moment of the Marchenko-Pastur law with shape ratio rho.

    "explicit" evaluates the closed Catalan sum
        M_r = sum_k rho^k (1+rho)^(r-1-2k) binom(r-1, 2k) C_k;
    "recurrence" uses M_1 = 1, M_s = rho * sum_{q=1}^{s-2} M_q M_{s-1-q}
    + (1+rho) M_{s-1}.  Both agree to machine precision.  M_r grows like
    rho^(r-1), so a moment beyond the float range raises ValueError.
    """
    if r < 1:
        raise ValueError("r must be >= 1")
    if not (rho > 0 and math.isfinite(rho)):
        raise ValueError("rho must be positive and finite")
    if method not in ("explicit", "recurrence"):
        raise ValueError(f"unknown method {method!r}")
    try:  # float powers and fsum raise on overflow, products give inf
        if method == "explicit":
            total, c = 0.0, 1  # c = C_k, advanced by C_(k+1) = C_k 2(2k+1)/(k+2)
            for k in range(0, (r - 1) // 2 + 1):
                total += (
                    rho**k
                    * (1.0 + rho) ** (r - 1 - 2 * k)
                    * math.comb(r - 1, 2 * k)
                    * c
                )
                c = c * 2 * (2 * k + 1) // (k + 2)
        else:
            m = [1.0]
            for s in range(2, r + 1):
                val = (1.0 + rho) * m[s - 2]
                val += rho * math.fsum(m[q - 1] * m[s - 2 - q] for q in range(1, s - 1))
                m.append(val)
            total = m[r - 1]
    except OverflowError:
        total = math.inf
    if not math.isfinite(total):
        raise ValueError(f"mp law moment M_{r} at rho = {rho!r} exceeds the float range")
    return total


def mp_moments(k_max: int, rho: float) -> np.ndarray:
    return np.array([mp_moment(r, rho) for r in range(1, k_max + 1)])


def semicircle_density(x: float) -> float:
    """Density of the semicircle law on [-2, 2]."""
    if abs(x) >= 2.0:
        return 0.0
    return math.sqrt(4.0 - x * x) / (2.0 * math.pi)


def mp_density(x: float, rho: float) -> float:
    """Continuous density of the Marchenko-Pastur law with shape ratio rho."""
    a = (1.0 - math.sqrt(rho)) ** 2
    b = (1.0 + math.sqrt(rho)) ** 2
    if x <= a or x >= b or x <= 0.0:
        return 0.0
    return math.sqrt((b - x) * (x - a)) / (2.0 * math.pi * rho * x)


def mp_atom(rho: float) -> float:
    """Mass at zero of the Marchenko-Pastur law: relu(1 - 1/rho)."""
    return max(0.0, 1.0 - 1.0 / rho)


def law_density(law: str, x: float, rho: float | None = None) -> tuple[float, float]:
    """(continuous density at x, atom mass at zero) for a named law."""
    if law == "semicircle":
        return semicircle_density(x), 0.0
    if law == "mp":
        if rho is None:
            raise ValueError("mp law needs a shape ratio")
        return mp_density(x, rho), mp_atom(rho)
    raise ValueError(f"unknown law {law!r}")


# ---------------------------------------------------------------------------
# Truncated formal power series
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FormalSeries:
    """Power series truncated after order K; coefficients c[0..K]."""

    coeffs: tuple[float, ...]

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def __getitem__(self, k: int) -> float:
        return self.coeffs[k] if k < len(self.coeffs) else 0.0

    def truncate(self, order: int) -> "FormalSeries":
        c = list(self.coeffs[: order + 1])
        c += [0.0] * (order + 1 - len(c))
        return FormalSeries(tuple(c))


def series(coeffs) -> FormalSeries:
    return FormalSeries(tuple(float(c) for c in coeffs))


def series_mul(f: FormalSeries, g: FormalSeries, order: int) -> FormalSeries:
    out = []
    for k in range(order + 1):
        out.append(math.fsum(f[i] * g[k - i] for i in range(k + 1)))
    return FormalSeries(tuple(out))


def series_compose(f: FormalSeries, g: FormalSeries, order: int) -> FormalSeries:
    """f(g(z)) to the given order; requires g(0) = 0 unless f is constant."""
    if f.order <= 0 or all(c == 0.0 for c in f.coeffs[1:]):
        return series([f[0]] + [0.0] * order)
    if g[0] != 0.0:
        raise NonInvertibleSeries("composition needs an inner series with zero constant term")
    acc = [0.0] * (order + 1)
    acc[0] = f[0]
    power = series([1.0]).truncate(order)  # g^0
    for k in range(1, f.order + 1):
        power = series_mul(power, g, order)
        if f[k] != 0.0:
            for i in range(order + 1):
                acc[i] += f[k] * power[i]
    return FormalSeries(tuple(acc))


def series_comp_inverse(f: FormalSeries, order: int) -> FormalSeries:
    """Compositional inverse: g with f(g(z)) = z, requires c0 = 0, c1 != 0.

    Lagrange inversion: g_n = [z^(n-1)] h(z)^n / n with h = z / f(z), so
    one loop of series products builds every coefficient.
    """
    if f[0] != 0.0:
        raise NonInvertibleSeries("compositional inverse needs zero constant term")
    if f[1] == 0.0:
        raise NonInvertibleSeries("compositional inverse needs a nonzero linear term")
    h = _series_reciprocal(series(f.coeffs[1:]), order - 1)
    out, power = [0.0], series([1.0])
    for n in range(1, order + 1):
        power = series_mul(power, h, order - 1)
        out.append(power[n - 1] / n)
    return FormalSeries(tuple(out))


def _series_reciprocal(f: FormalSeries, order: int) -> FormalSeries:
    if f[0] == 0.0:
        raise NonInvertibleSeries("reciprocal needs a nonzero constant term")
    out = [1.0 / f[0]]
    for k in range(1, order + 1):
        s = math.fsum(f[i] * out[k - i] for i in range(1, k + 1))
        out.append(-s / f[0])
    return FormalSeries(tuple(out))


# ---------------------------------------------------------------------------
# S-transform and free multiplicative convolution
# ---------------------------------------------------------------------------


def as_moments(m) -> np.ndarray:
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 1 or m.size < 1:
        raise ValueError("a moment sequence is a nonempty 1-d array m[1..K]")
    if not np.all(np.isfinite(m)):
        raise ValueError("moments must be finite")
    return m


def s_transform(m) -> FormalSeries:
    """S-transform of a moment sequence, as a series of order K-1.

    S(z) = chi(z) (1+z) / z with chi the compositional inverse of
    psi(z) = sum_{k>=1} m_k z^k; requires m_1 != 0.
    """
    m = as_moments(m)
    if m[0] == 0.0:
        raise NonInvertibleSeries("S-transform needs a nonzero first moment")
    k = m.size
    psi = series([0.0] + list(m))
    chi = series_comp_inverse(psi, k)
    chi_over_z = series(list(chi.coeffs[1:]))  # order k-1
    one_plus_z = series([1.0, 1.0])
    return series_mul(chi_over_z, one_plus_z, k - 1)


def moments_from_s(s: FormalSeries, k: int) -> np.ndarray:
    """Moment sequence m[1..K] whose S-transform is the given series."""
    if s[0] == 0.0:
        raise NonInvertibleSeries("series has vanishing constant term")
    if s.order < k - 1:
        raise ValueError(f"need the S series to order {k - 1}, got {s.order}")
    # chi(z) = z S(z) / (1+z); psi = chi^{-1}; m_j = psi_j
    s_over = series_mul(s.truncate(k - 1), _series_reciprocal(series([1.0, 1.0]), k - 1), k - 1)
    chi = series([0.0] + list(s_over.coeffs))  # z * (...)
    psi = series_comp_inverse(chi, k)
    return np.array([psi[j] for j in range(1, k + 1)])


def free_mul_conv(a, b, k: int | None = None) -> np.ndarray:
    """Free multiplicative convolution of two moment sequences.

    Multiplies the S-transforms and reads the moments back; both first
    moments must be nonzero.
    """
    a = as_moments(a)
    b = as_moments(b)
    if k is None:
        k = min(a.size, b.size)
    if a.size < k or b.size < k:
        raise ValueError(f"need {k} moments on both operands")
    sa = s_transform(a[:k])
    sb = s_transform(b[:k])
    return moments_from_s(series_mul(sa, sb, k - 1), k)


def point_mass_moments(c: float, k: int) -> np.ndarray:
    """Moments of a unit point mass at c (the identity of ⊠ when c = 1)."""
    return np.array([c**j for j in range(1, k + 1)])
