import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy import special

import infwidth
from infwidth import exprs as E
from infwidth.errors import TruncationWarning
from infwidth.numerics import (
    expect_nodes,
    gauss_hermite_nodes,
    gaussian_expect,
    hermite_coefficients,
    hermite_matrix,
    hermite_pair_expectation,
    pseudoinverse,
    psd_factor,
    stream,
)


def penrose_holds(a: np.ndarray, ap: np.ndarray, tol: float) -> bool:
    """Brute-force check of all four defining conditions."""
    scale = max(1.0, float(np.abs(a).max()))
    checks = [
        a @ ap @ a - a,
        ap @ a @ ap - ap,
        (a @ ap).T - a @ ap,
        (ap @ a).T - ap @ a,
    ]
    return all(float(np.abs(c).max()) <= tol * scale for c in checks)


def test_pinv_invertible_diagonal():
    got = pseudoinverse(np.diag([2.0, 4.0]))
    assert np.allclose(got, np.diag([0.5, 0.25]), atol=1e-14)


def test_pinv_zero_matrix():
    assert np.array_equal(pseudoinverse(np.zeros((3, 2))), np.zeros((2, 3)))


def test_pinv_rank_one():
    got = pseudoinverse(np.ones((2, 2)))
    assert np.allclose(got, np.full((2, 2), 0.25), atol=1e-14)
    assert penrose_holds(np.ones((2, 2)), got, 1e-12)


def test_pinv_random_rank_deficient_penrose():
    rng = np.random.default_rng(42)
    for _ in range(100):
        n, m = rng.integers(2, 13, size=2)
        r = int(rng.integers(1, min(n, m) + 1))
        a = (rng.standard_normal((n, r)) @ rng.standard_normal((r, m)))
        ap = pseudoinverse(a)
        assert penrose_holds(a, ap, 1e-10)


def test_psd_factor_clips_tiny_negatives():
    m = np.array([[1.0, 1.0], [1.0, 1.0 - 1e-12]])
    factor = psd_factor(m)
    assert np.linalg.eigvalsh(factor @ factor.T)[0] >= -1e-15


def test_psd_factor_rejects_indefinite():
    with pytest.raises(ValueError):
        psd_factor(np.array([[1.0, 2.0], [2.0, 1.0]]))


def test_stream_determinism_and_independence():
    a1 = stream(7, "matrix", "W").standard_normal(5)
    a2 = stream(7, "matrix", "W").standard_normal(5)
    b = stream(7, "matrix", "V").standard_normal(5)
    c = stream(8, "matrix", "W").standard_normal(5)
    assert np.array_equal(a1, a2)
    assert not np.array_equal(a1, b)
    assert not np.array_equal(a1, c)


def test_gauss_hermite_basics():
    xs, ws = gauss_hermite_nodes(64)
    assert ws.sum() == pytest.approx(1.0, abs=1e-12)
    assert float(ws @ xs**2) == pytest.approx(1.0, abs=1e-12)
    assert gaussian_expect(lambda z: z**4, var=2.0) == pytest.approx(12.0, rel=1e-10)


def test_gauss_hermite_nodes_are_cached_and_read_only():
    xs, ws = gauss_hermite_nodes(200)
    again = gauss_hermite_nodes(200)
    assert again[0] is xs and again[1] is ws
    for arr in (xs, ws):
        with pytest.raises(ValueError):
            arr[0] = 0.0
    want_xs, want_ws = special.roots_hermitenorm(200)
    assert np.array_equal(xs, want_xs)
    assert np.array_equal(ws, want_ws / math.sqrt(2.0 * math.pi))
    misses = gauss_hermite_nodes.cache_info().misses
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TruncationWarning)
        hermite_pair_expectation(E.step(E.x(0)), E.tanh(E.x(0)), 0.5, trunc=80)
    assert gauss_hermite_nodes.cache_info().misses - misses <= 1


def test_expect_nodes_are_numpy_gauss_hermite_built_once():
    xs, ws = expect_nodes()
    assert expect_nodes()[0] is xs and expect_nodes()[1] is ws
    assert expect_nodes.cache_info().misses == 1
    for arr in (xs, ws):
        with pytest.raises(ValueError):
            arr[0] = 0.0
    want_xs, want_ws = special.roots_hermitenorm(200)
    assert np.abs(xs - want_xs).max() <= 1e-13
    assert np.abs(ws - want_ws / math.sqrt(2.0 * math.pi)).max() <= 1e-14
    assert abs(ws.sum() - 1.0) <= 1e-14
    for k in range(1, 11):
        assert float(ws @ xs ** (2 * k)) == pytest.approx(math.prod(range(1, 2 * k, 2)),
                                                         rel=1e-14, abs=0.0)
    assert gaussian_expect(lambda z: z**4) == float(ws @ xs**4)


def test_expect_nodes_do_not_depend_on_blas_threads():
    code = ("import hashlib; from infwidth.numerics import expect_nodes; xs, ws = expect_nodes(); "
            "print(hashlib.sha256(xs.tobytes() + ws.tobytes()).hexdigest())")
    src = str(Path(infwidth.__file__).resolve().parents[1])
    digests = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, check=True)
        digests.append(proc.stdout)
    assert digests[0] == digests[1]


def test_hermite_matrix_orthonormal():
    xs, ws = gauss_hermite_nodes(200)
    h = hermite_matrix(xs, 12)
    gram = (h * ws) @ h.T
    assert np.allclose(gram, np.eye(13), atol=1e-8)


def test_hermite_coefficients_of_square():
    # x^2 = H_0 + sqrt(2) H_2 in the orthonormal basis
    a = hermite_coefficients(E.pow_(E.x(0), 2), 4)
    assert a[0] == pytest.approx(1.0, abs=1e-10)
    assert a[2] == pytest.approx(math.sqrt(2.0), abs=1e-10)
    assert abs(a[1]) < 1e-10 and abs(a[3]) < 1e-10


def test_pair_expectation_identity():
    val = hermite_pair_expectation(E.x(0), E.x(0), 0.3, trunc=6)
    assert val == pytest.approx(0.3, abs=1e-10)


def test_pair_expectation_independent_centered():
    # rho = 0 with a mean-zero factor kills every term
    val = hermite_pair_expectation(E.x(0), E.tanh(E.x(0)), 0.0, trunc=8)
    assert val == pytest.approx(0.0, abs=1e-12)


def test_pair_expectation_squares():
    # E z1^2 z2^2 = 1 + 2 rho^2
    for rho in (-0.9, -0.5, 0.0, 0.5, 0.9):
        val = hermite_pair_expectation(E.pow_(E.x(0), 2), E.pow_(E.x(0), 2), rho, 8)
        assert val == pytest.approx(1.0 + 2.0 * rho * rho, abs=1e-9)


def test_pair_expectation_step_closed_form():
    # E step(z1) step(z2) = 1/4 + arcsin(rho) / (2 pi)
    sstep = E.step(E.x(0))
    for rho in (-0.5, 0.25, 0.5):
        want = 0.25 + math.asin(rho) / (2.0 * math.pi)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", TruncationWarning)
            got = hermite_pair_expectation(sstep, sstep, rho, trunc=80)
        # coefficient quadrature on a discontinuous function is the limiting
        # error here, well inside the 3-stderr band the engine compares at
        assert got == pytest.approx(want, abs=1e-3)


def test_truncation_warning_fires():
    with pytest.warns(TruncationWarning):
        hermite_pair_expectation(E.step(E.x(0)), E.step(E.x(0)), 0.9, trunc=3)
