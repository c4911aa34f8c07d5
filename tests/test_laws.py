import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from infwidth.errors import NonInvertibleSeries
from infwidth.laws import (
    catalan,
    free_mul_conv,
    law_density,
    moments_from_s,
    mp_atom,
    mp_density,
    mp_moment,
    mp_moments,
    point_mass_moments,
    s_transform,
    semicircle_b_coeff,
    semicircle_density,
    semicircle_moment,
    series,
    series_comp_inverse,
    series_compose,
    series_mul,
)

# ---------------------------------------------------------------------------
# independent oracles
# ---------------------------------------------------------------------------


def count_noncrossing_pairings(points: int) -> int:
    """Brute-force count of non-crossing perfect matchings of points on a line."""
    if points % 2 == 1:
        return 0
    if points == 0:
        return 1
    total = 0
    # pair point 0 with an odd-distance partner; both sides must pair internally
    for j in range(1, points, 2):
        total += count_noncrossing_pairings(j - 1) * count_noncrossing_pairings(
            points - j - 1
        )
    return total


def b_coeff_by_recurrence(t_max: int) -> dict[tuple[int, int], float]:
    """Weights from the two-sided product expansion recurrence."""
    b = {(0, 0): 1.0}
    for t in range(0, t_max):
        b[(t + 1, t + 1)] = 1.0
        for r in range(0, t + 1):
            b[(t + 1, r)] = sum(
                b[(s, r)] * b[(t, s + 1)] for s in range(r, t)
            )
    return b


def fuss_catalan(k: int) -> int:
    # moments of the two-fold free product of unit-ratio Wishart laws
    return math.comb(3 * k, k) // (2 * k + 1)


# ---------------------------------------------------------------------------
# Catalan / semicircle / Marchenko-Pastur
# ---------------------------------------------------------------------------


def test_catalan_values():
    assert catalan(0) == 1
    assert [catalan(k) for k in range(5)] == [1, 1, 2, 5, 14]
    assert catalan(4) == 14
    assert catalan(10) == 16796
    assert catalan(10) == count_noncrossing_pairings(20)


def test_catalan_big_integer():
    assert isinstance(catalan(20), int) and catalan(20) > 2**31  # exact past 32-bit
    assert catalan(30) == 3814986502092304


def test_catalan_far_past_the_recursion_limit():
    # a closed form, so no index needs the ones below it first
    assert catalan(5000) == math.comb(10000, 5000) // 5001
    # C_1200 and C_5000 are far beyond the float range, which cmd_law reports
    for call in (lambda: semicircle_moment(10000), lambda: semicircle_b_coeff(2400, 0)):
        with pytest.raises(OverflowError):
            call()


def test_semicircle_moments():
    assert semicircle_moment(2) == 1.0
    assert semicircle_moment(3) == 0.0
    assert semicircle_moment(8) == 14.0
    for k in range(1, 7):  # even moments satisfy the convolution recurrence
        want = sum(
            semicircle_moment(2 * i) * semicircle_moment(2 * (k - 1 - i))
            for i in range(k)
        )
        assert semicircle_moment(2 * k) == want


def test_semicircle_b_coeffs():
    assert semicircle_b_coeff(4, 0) == 2.0
    assert semicircle_b_coeff(3, 0) == 0.0
    assert semicircle_b_coeff(5, 1) == 2.0
    oracle = b_coeff_by_recurrence(8)
    for (t, r), val in oracle.items():
        assert semicircle_b_coeff(t, r) == val


def test_mp_moment_values():
    for rho in (0.25, 1.0, 3.0):
        assert mp_moment(1, rho) == pytest.approx(1.0)
    assert mp_moment(2, 0.5) == pytest.approx(1.5)
    assert mp_moment(3, 1.0) == pytest.approx(5.0)


@pytest.mark.parametrize("rho", [0.0, -1.0, math.nan, math.inf])
def test_mp_moment_rejects_rho_not_positive_finite(rho):
    with pytest.raises(ValueError, match="^rho must be positive and finite$"):
        mp_moment(2, rho)


@pytest.mark.parametrize("method", ["explicit", "recurrence"])
@pytest.mark.parametrize("rho", [1e200, 1e308])
def test_mp_moment_beyond_the_float_range_raises(method, rho):
    # M_3 = (1 + rho)^2 + rho overflows; M_2 = 1 + rho does not
    assert mp_moment(2, rho, method) == 1.0 + rho
    with pytest.raises(ValueError, match="^mp law moment M_3 .* exceeds the float range$"):
        mp_moment(3, rho, method)


def test_mp_explicit_vs_recurrence():
    for rho in (0.25, 0.5, 1.0, 2.0, 4.0):
        for r in range(1, 21):
            a = mp_moment(r, rho, "explicit")
            b = mp_moment(r, rho, "recurrence")
            assert abs(a - b) <= 1e-12 * max(1.0, abs(a)), (r, rho)


def test_mp_at_unit_ratio_is_catalan():
    for r in range(1, 13):
        assert mp_moment(r, 1.0) == pytest.approx(float(catalan(r)), rel=1e-14)


def test_mp_atom():
    assert mp_atom(2.0) == pytest.approx(0.5)
    assert mp_atom(1.0) == 0.0
    assert mp_atom(0.5) == 0.0
    assert law_density("mp", 0.5, rho=2.0)[1] == pytest.approx(0.5)


def test_semicircle_density_support_edges():
    assert semicircle_density(2.0) == 0.0
    assert semicircle_density(-2.0) == 0.0
    assert law_density("semicircle", 0.0) == (1.0 / math.pi, 0.0)


def _continuous_mass(rho: float) -> float:
    # angle substitution x = (a+b)/2 - (b-a)/2 cos(theta) smooths both edges;
    # midpoint rule avoids evaluating the rho = 1 edge singularity exactly at 0
    a = (1.0 - math.sqrt(rho)) ** 2
    b = (1.0 + math.sqrt(rho)) ** 2
    edges = np.linspace(0.0, math.pi, 10_001)
    thetas = 0.5 * (edges[1:] + edges[:-1])
    h = edges[1] - edges[0]
    xs = 0.5 * (a + b) - 0.5 * (b - a) * np.cos(thetas)
    jac = 0.5 * (b - a) * np.sin(thetas)
    vals = np.array([mp_density(float(x), rho) for x in xs]) * jac
    return float(np.sum(vals) * h)


def test_mp_density_total_mass():
    assert _continuous_mass(1.0) == pytest.approx(1.0, abs=1e-6)
    assert _continuous_mass(0.5) == pytest.approx(1.0, abs=1e-6)
    assert _continuous_mass(2.0) + mp_atom(2.0) == pytest.approx(1.0, abs=1e-6)


def test_semicircle_density_total_mass():
    thetas = np.linspace(0.0, math.pi, 10_001)
    xs = -2.0 * np.cos(thetas)
    vals = np.array([semicircle_density(float(x)) for x in xs]) * 2.0 * np.sin(thetas)
    assert float(np.trapezoid(vals, thetas)) == pytest.approx(1.0, abs=1e-6)


# ---------------------------------------------------------------------------
# formal series
# ---------------------------------------------------------------------------


def test_series_mul_exact():
    f = series([1.0, 2.0, 3.0])
    g = series([0.0, 1.0, -1.0])
    assert series_mul(f, g, 4).coeffs == (0.0, 1.0, 1.0, 1.0, -3.0)


def test_compose_with_zero_series_gives_constant():
    f = series([4.0, 2.0, 1.0])
    z = series([0.0, 0.0, 0.0])
    assert series_compose(f, z, 3).coeffs == (4.0, 0.0, 0.0, 0.0)


def test_inverse_of_identity():
    assert series_comp_inverse(series([0.0, 1.0]), 5).coeffs[:2] == (0.0, 1.0)


def test_inverse_of_z_plus_z2():
    inv = series_comp_inverse(series([0.0, 1.0, 1.0]), 4)
    assert inv.coeffs == (0.0, 1.0, -1.0, 2.0, -5.0)
    back = series_compose(series([0.0, 1.0, 1.0]), inv, 4)
    assert np.allclose(back.coeffs, (0.0, 1.0, 0.0, 0.0, 0.0), atol=1e-12)


def test_inverse_requires_zero_constant_and_linear_term():
    with pytest.raises(NonInvertibleSeries):
        series_comp_inverse(series([1.0, 1.0]), 3)
    with pytest.raises(NonInvertibleSeries):
        series_comp_inverse(series([0.0, 0.0, 1.0]), 3)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(-1.5, 1.5), min_size=2, max_size=6), st.floats(0.8, 1.25))
def test_inverse_roundtrips_random_series(tail, lead):
    f = series([0.0, lead] + tail)
    inv = series_comp_inverse(f, f.order)
    back = series_compose(f, inv, f.order)
    want = [0.0, 1.0] + [0.0] * (f.order - 1)
    scale = max(1.0, float(np.abs(inv.coeffs).max()) ** 2)
    assert np.allclose(back.coeffs, want, atol=1e-9 * scale)


# ---------------------------------------------------------------------------
# S-transform and free multiplicative convolution
# ---------------------------------------------------------------------------


def test_s_transform_point_mass_is_one():
    s = s_transform(point_mass_moments(1.0, 6))
    assert np.allclose(s.coeffs, [1.0] + [0.0] * 5, atol=1e-12)


def test_s_transform_mp_unit():
    s = s_transform(mp_moments(4, 1.0))
    assert np.allclose(s.coeffs, (1.0, -1.0, 1.0, -1.0), atol=1e-12)


def test_s_transform_scaling():
    m = mp_moments(5, 0.5)
    c = 2.0
    scaled = np.array([c**k for k in range(1, 6)]) * m
    s1 = s_transform(m)
    s2 = s_transform(scaled)
    assert np.allclose(np.array(s2.coeffs) * c, s1.coeffs, atol=1e-10)


def test_moments_from_s_examples():
    assert np.allclose(moments_from_s(series([1.0, 0, 0, 0, 0]), 5), np.ones(5))
    got = moments_from_s(series([1.0, -1.0, 1.0, -1.0, 1.0]), 5)
    assert np.allclose(got, [1.0, 2.0, 5.0, 14.0, 42.0], atol=1e-9)
    with pytest.raises(NonInvertibleSeries):
        moments_from_s(series([0.0, 1.0]), 2)


@settings(max_examples=60, deadline=None)
@given(
    st.floats(0.5, 2.0),
    st.lists(st.floats(-2, 2), min_size=2, max_size=5),
)
def test_s_roundtrip_random_moments(m1, rest):
    # conditioning of the inversion grows like (m_max / m1^2)^K, so the
    # 1e-9 identity is a claim about moment sequences of moderate order
    m = np.array([m1] + rest)
    back = moments_from_s(s_transform(m), m.size)
    assert np.allclose(back, m, atol=1e-9 * max(1.0, float(np.abs(m).max())))


def test_free_conv_identity_element():
    m = mp_moments(5, 1.0)
    got = free_mul_conv(m, point_mass_moments(1.0, 5))
    assert np.allclose(got, m, atol=1e-9)


def test_free_conv_mp_square_is_fuss_catalan():
    got = free_mul_conv(mp_moments(4, 1.0), mp_moments(4, 1.0))
    want = [fuss_catalan(k) for k in range(1, 5)]
    assert np.allclose(got, want, atol=1e-9)
    assert want == [1, 3, 12, 55]


def test_free_conv_first_moment_multiplicative():
    rng = np.random.default_rng(7)
    for _ in range(20):
        a = rng.uniform(0.5, 2.0, size=4)
        b = rng.uniform(0.5, 2.0, size=4)
        got = free_mul_conv(a, b)
        assert got[0] == pytest.approx(a[0] * b[0], rel=1e-10)


def test_free_conv_commutative_associative():
    rng = np.random.default_rng(11)
    for _ in range(10):
        a = rng.uniform(0.5, 2.0, size=8)
        b = rng.uniform(0.5, 2.0, size=8)
        c = rng.uniform(0.5, 2.0, size=8)
        ab = free_mul_conv(a, b)
        ba = free_mul_conv(b, a)
        assert np.allclose(ab, ba, atol=1e-9 * max(1, np.abs(ab).max()))
        left = free_mul_conv(ab, c)
        right = free_mul_conv(a, free_mul_conv(b, c))
        assert np.allclose(left, right, atol=1e-9 * max(1, np.abs(left).max()))


def test_free_conv_requires_nonzero_first_moment():
    with pytest.raises(NonInvertibleSeries):
        free_mul_conv(np.array([0.0, 1.0]), np.array([1.0, 1.0]))
