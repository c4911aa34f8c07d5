import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_bounded_expr, random_expr
from infwidth import exprs as E
from infwidth.errors import ArityMismatch, ParseError


def test_relu_at_negative_is_zero():
    assert E.evaluate(E.relu(E.x(0)), (-1.0,)) == 0.0


def test_step_scaled():
    e = E.mul(E.step(E.x(0)), E.const(2.0))
    assert E.evaluate(e, (0.3,)) == 2.0
    assert E.evaluate(e, (-0.3,)) == 0.0


def test_square_nonlinearity():
    sq = E.mul(E.x(0), E.x(0))
    assert E.evaluate(sq, (3.0,)) == 9.0


def test_vectorized_evaluation_matches_scalar():
    rng = random.Random(1)
    xs = np.linspace(-3, 3, 101)
    for _ in range(20):
        e = random_expr(rng, 1, 0, depth=3)
        vec = E.evaluate_columns(e, (xs,))  # a constant is repeated
        assert vec.shape == xs.shape and vec.dtype == np.float64
        for i in (0, 17, 100):
            assert vec[i] == pytest.approx(float(E.evaluate(e, (xs[i],))), abs=1e-12)


def test_arity_errors():
    with pytest.raises(ArityMismatch):
        E.evaluate(E.x(1), (1.0,))
    with pytest.raises(ArityMismatch):
        E.evaluate(E.p(0), (1.0,))


def test_bounded_flags():
    assert E.is_bounded(E.step(E.x(0)))
    assert E.is_bounded(E.tanh(E.add(E.x(0), E.x(1))))
    assert E.is_bounded(E.clamp(E.mul(E.x(0), E.x(0)), -1, 5))
    assert E.is_bounded(E.mul(E.step(E.x(0)), E.tanh(E.x(1))))
    assert not E.is_bounded(E.x(0))
    assert not E.is_bounded(E.relu(E.x(0)))
    assert not E.is_bounded(E.mul(E.x(0), E.step(E.x(0))))


def test_static_range_on_grid():
    # a bounded composite stays within its computed static range over a
    # million-point grid spanning [-1e6, 1e6]
    e = E.sub(E.mul(E.tanh(E.x(0)), E.step(E.x(0))), E.clamp(E.pow_(E.x(0), 2), 0.0, 2.0))
    lo, hi = E.static_range(e)
    assert math.isfinite(lo) and math.isfinite(hi)
    xs = np.linspace(-1e6, 1e6, 1_000_001)
    vals = E.evaluate(e, (xs,))
    assert vals.min() >= lo - 1e-12
    assert vals.max() <= hi + 1e-12


def test_static_range_random_bounded_exprs():
    rng = random.Random(7)
    xs = rng_inputs = np.random.default_rng(0).uniform(-50, 50, size=(100_000, 2))
    for _ in range(25):
        e = random_bounded_expr(rng, 2, depth=3)
        lo, hi = E.static_range(e)
        assert math.isfinite(lo) and math.isfinite(hi)
        vals = np.asarray(E.evaluate(e, (rng_inputs[:, 0], rng_inputs[:, 1])))
        assert vals.min() >= lo - 1e-12 and vals.max() <= hi + 1e-12


def test_evaluation_is_finite_on_random_trees():
    rng = random.Random(99)
    pts = np.random.default_rng(3).uniform(-10, 10, size=(1000, 3))
    for _ in range(50):
        e = random_expr(rng, 3, 0, depth=4)
        vals = np.asarray(E.evaluate(e, (pts[:, 0], pts[:, 1], pts[:, 2])))
        assert np.all(np.isfinite(vals))


def test_substitute_composes():
    psi = E.step(E.x(0))
    composed = E.mul(E.substitute(psi, {0: E.x(2)}), E.x(0))
    assert E.evaluate(composed, (5.0, 0.0, 1.0)) == 5.0
    assert E.evaluate(composed, (5.0, 0.0, -1.0)) == 0.0


def test_parse_examples():
    assert E.parse_expr("x1 + x2") == E.add(E.x(0), E.x(1))
    assert E.parse_expr("2.0 * x1") == E.mul(E.const(2.0), E.x(0))
    assert E.parse_expr("-3.5") == E.const(-3.5)
    assert E.parse_expr("x1^2") == E.pow_(E.x(0), 2)
    assert E.parse_expr("min(x1, max(x2, 0.0))") == E.min_(
        E.x(0), E.max_(E.x(1), E.const(0.0))
    )
    with pytest.raises(ParseError):
        E.parse_expr("x1 +")
    with pytest.raises(ParseError):
        E.parse_expr("foo(x1)")
    with pytest.raises(ParseError):
        E.parse_expr("x1 / x2")


@pytest.mark.parametrize("text, col, message", [
    ("-x0", 4, "input slots are numbered from x1"),  # through unary minus of a non-literal
    ("x0", 3, "input slots are numbered from x1"),
    ("p0", 3, "parameter slots are numbered from p1"),
    ("x1^-2", 6, "power must be a nonnegative integer"),
    ("x1^1.5", 7, "power must be a nonnegative integer"),
    ("1.2.3", 1, "expected a number"),
    ("x1^e", 4, "expected a number"),
])
def test_parse_errors_name_line_and_column(text, col, message):
    with pytest.raises(ParseError) as err:
        E.parse_expr(text, line=7)
    assert (err.value.line, err.value.col) == (7, col)
    assert str(err.value) == f"line 7, col {col}: {message}"


def test_roundtrip_handles_precedence():
    cases = [
        E.mul(E.add(E.x(0), E.x(1)), E.x(0)),
        E.sub(E.x(0), E.sub(E.x(1), E.x(0))),
        E.pow_(E.add(E.x(0), E.const(1.0)), 3),
        E.add(E.x(0), E.mul(E.const(-2.0), E.x(1))),
        E.sub(E.const(0.0), E.tanh(E.x(0))),
    ]
    for e in cases:
        assert E.parse_expr(E.format_expr(e)) == e


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 10**9))
def test_roundtrip_random_trees(seed):
    rng = random.Random(seed)
    e = random_expr(rng, 3, 2, depth=4)
    text = E.format_expr(e)
    assert E.parse_expr(text) == e, text
