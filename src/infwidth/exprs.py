"""Closed expression language for coordinatewise nonlinearities.

Expressions are trees over input slots ``x1..xk`` and scalar parameter slots
``p1..pl`` built from: constants, add, sub, mul, integer powers, abs, min,
max, clamp, relu, step (Heaviside, 1 for positive argument), and tanh.
Division and exp are deliberately absent so that every expression is
polynomially bounded and evaluates to a finite real on finite input.

A static range bound is derived by interval arithmetic; an expression is
``bounded`` when that range is finite (step/tanh/clamp compositions), which
is the admissibility condition for diagonal-matrix test functions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from .errors import ArityMismatch, ParseError

_BINARY = {"add", "sub", "mul", "min", "max"}
_UNARY = {"abs", "relu", "step", "tanh"}


@dataclass(frozen=True)
class Expr:
    """One node of an expression tree. Use the factory functions below."""

    op: str
    args: tuple["Expr", ...] = ()
    value: float = 0.0  # payload for "const"
    index: int = 0  # payload for "input"/"param" (0-based)
    lo: float = 0.0  # payload for "clamp"
    hi: float = 0.0
    power: int = 0  # payload for "pow"


def const(v: float) -> Expr:
    return Expr("const", value=float(v))


def x(i: int) -> Expr:
    """Input slot, 0-based."""
    if i < 0:
        raise ValueError("input index must be >= 0")
    return Expr("input", index=i)


def p(i: int) -> Expr:
    """Parameter slot, 0-based."""
    if i < 0:
        raise ValueError("parameter index must be >= 0")
    return Expr("param", index=i)


def add(a: Expr, b: Expr) -> Expr:
    return Expr("add", (a, b))


def sub(a: Expr, b: Expr) -> Expr:
    return Expr("sub", (a, b))


def mul(a: Expr, b: Expr) -> Expr:
    return Expr("mul", (a, b))


def pow_(a: Expr, k: int) -> Expr:
    if k < 0 or k != int(k):
        raise ValueError("power must be a nonnegative integer")
    return Expr("pow", (a,), power=int(k))


def abs_(a: Expr) -> Expr:
    return Expr("abs", (a,))


def min_(a: Expr, b: Expr) -> Expr:
    return Expr("min", (a, b))


def max_(a: Expr, b: Expr) -> Expr:
    return Expr("max", (a, b))


def clamp(a: Expr, lo: float, hi: float) -> Expr:
    if not (lo <= hi):
        raise ValueError("clamp needs lo <= hi")
    return Expr("clamp", (a,), lo=float(lo), hi=float(hi))


def relu(a: Expr) -> Expr:
    return Expr("relu", (a,))


def step(a: Expr) -> Expr:
    return Expr("step", (a,))


def tanh(a: Expr) -> Expr:
    return Expr("tanh", (a,))


def n_inputs(e: Expr) -> int:
    """Minimum input arity: 1 + highest referenced input slot (0 if none)."""
    if e.op == "input":
        return e.index + 1
    return max((n_inputs(a) for a in e.args), default=0)


def n_params(e: Expr) -> int:
    if e.op == "param":
        return e.index + 1
    return max((n_params(a) for a in e.args), default=0)


def evaluate(e: Expr, inputs=(), params=()):
    """Evaluate coordinatewise; inputs may be scalars or numpy arrays.

    Raises ArityMismatch when a referenced slot is missing.
    """
    if n_inputs(e) > len(inputs):
        raise ArityMismatch(
            f"expression references input x{n_inputs(e)} but got {len(inputs)} inputs"
        )
    if n_params(e) > len(params):
        raise ArityMismatch(
            f"expression references parameter p{n_params(e)} but got {len(params)} parameters"
        )
    return _eval(e, inputs, params)


def evaluate_columns(e: Expr, inputs, params=()) -> np.ndarray:
    """Evaluate over equal-length columns: float64 values shaped like the
    first input, a constant (an expression that reads no input) repeated."""
    vals = np.asarray(evaluate(e, inputs, params), dtype=np.float64)
    return np.full(np.shape(inputs[0]), float(vals)) if vals.ndim == 0 else vals


def _eval(e: Expr, inputs, params):
    op = e.op
    if op == "const":
        return e.value
    if op == "input":
        return inputs[e.index]
    if op == "param":
        return params[e.index]
    if op == "add":
        return _eval(e.args[0], inputs, params) + _eval(e.args[1], inputs, params)
    if op == "sub":
        return _eval(e.args[0], inputs, params) - _eval(e.args[1], inputs, params)
    if op == "mul":
        return _eval(e.args[0], inputs, params) * _eval(e.args[1], inputs, params)
    if op == "pow":
        return _eval(e.args[0], inputs, params) ** e.power
    if op == "abs":
        return np.abs(_eval(e.args[0], inputs, params))
    if op == "min":
        return np.minimum(_eval(e.args[0], inputs, params), _eval(e.args[1], inputs, params))
    if op == "max":
        return np.maximum(_eval(e.args[0], inputs, params), _eval(e.args[1], inputs, params))
    if op == "clamp":
        return np.clip(_eval(e.args[0], inputs, params), e.lo, e.hi)
    if op == "relu":
        return np.maximum(_eval(e.args[0], inputs, params), 0.0)
    if op == "step":
        return (np.asarray(_eval(e.args[0], inputs, params)) > 0).astype(np.float64)
    if op == "tanh":
        return np.tanh(_eval(e.args[0], inputs, params))
    raise ValueError(f"unknown op {op!r}")


# ---------------------------------------------------------------------------
# Static range bound (interval arithmetic)
# ---------------------------------------------------------------------------

_INF = math.inf


def _imul(a: float, b: float) -> float:
    # exact zero annihilates even an infinite endpoint
    if a == 0.0 or b == 0.0:
        return 0.0
    return a * b


@lru_cache(maxsize=None)
def static_range(e: Expr) -> tuple[float, float]:
    """Conservative (lo, hi) bound of the expression over all real inputs."""
    op = e.op
    if op == "const":
        return (e.value, e.value)
    if op in ("input", "param"):
        return (-_INF, _INF)
    if op == "add":
        (a, b), (c, d) = (static_range(e.args[0]), static_range(e.args[1]))
        return (a + c, b + d)
    if op == "sub":
        (a, b), (c, d) = (static_range(e.args[0]), static_range(e.args[1]))
        return (a - d, b - c)
    if op == "mul":
        (a, b), (c, d) = (static_range(e.args[0]), static_range(e.args[1]))
        cands = [_imul(a, c), _imul(a, d), _imul(b, c), _imul(b, d)]
        return (min(cands), max(cands))
    if op == "pow":
        a, b = static_range(e.args[0])
        k = e.power
        if k == 0:
            return (1.0, 1.0)
        if k % 2 == 1:
            return (a**k if a > -_INF else -_INF, b**k if b < _INF else _INF)
        hi = max(_imul(a, a) ** (k // 2) if abs(a) < _INF else _INF,
                 _imul(b, b) ** (k // 2) if abs(b) < _INF else _INF)
        lo = 0.0 if a <= 0 <= b else min(abs(a), abs(b)) ** k
        return (lo, hi)
    if op == "abs":
        a, b = static_range(e.args[0])
        lo = 0.0 if a <= 0 <= b else min(abs(a), abs(b))
        return (lo, max(abs(a), abs(b)))
    if op == "min":
        (a, b), (c, d) = (static_range(e.args[0]), static_range(e.args[1]))
        return (min(a, c), min(b, d))
    if op == "max":
        (a, b), (c, d) = (static_range(e.args[0]), static_range(e.args[1]))
        return (max(a, c), max(b, d))
    if op == "clamp":
        a, b = static_range(e.args[0])
        clip = lambda t: min(max(t, e.lo), e.hi)
        return (clip(a), clip(b))
    if op == "relu":
        a, b = static_range(e.args[0])
        return (max(a, 0.0), max(b, 0.0))
    if op == "step":
        a, b = static_range(e.args[0])
        return (1.0 if a > 0 else 0.0, 0.0 if b <= 0 else 1.0)
    if op == "tanh":
        a, b = static_range(e.args[0])
        return (math.tanh(a) if a > -_INF else -1.0, math.tanh(b) if b < _INF else 1.0)
    raise ValueError(f"unknown op {op!r}")


def is_bounded(e: Expr) -> bool:
    lo, hi = static_range(e)
    return math.isfinite(lo) and math.isfinite(hi)


def substitute(e: Expr, input_map: dict[int, Expr]) -> Expr:
    """Replace input slots by expressions (used for composition)."""
    if e.op == "input":
        return input_map.get(e.index, e)
    if not e.args:
        return e
    new_args = tuple(substitute(a, input_map) for a in e.args)
    return Expr(e.op, new_args, e.value, e.index, e.lo, e.hi, e.power)


# ---------------------------------------------------------------------------
# Surface syntax: parse and canonical print (round-trip identity)
# ---------------------------------------------------------------------------

_FUNCS: dict[str, Callable] = {
    "relu": relu, "step": step, "tanh": tanh, "abs": abs_,
}
_FUNCS2 = {"min": min_, "max": max_}

# precedence levels for printing
_PREC = {"add": 1, "sub": 1, "mul": 2, "pow": 4}


def format_expr(e: Expr) -> str:
    """Canonical text form; ``parse_expr(format_expr(e)) == e``."""
    op = e.op
    if op == "const":
        return repr(e.value)
    if op == "input":
        return f"x{e.index + 1}"
    if op == "param":
        return f"p{e.index + 1}"
    if op in ("add", "sub"):
        sym = "+" if op == "add" else "-"
        left = _fmt_child(e.args[0], 1, right=False)
        right = _fmt_child(e.args[1], 1, right=True)
        return f"{left} {sym} {right}"
    if op == "mul":
        left = _fmt_child(e.args[0], 2, right=False)
        right = _fmt_child(e.args[1], 2, right=True)
        return f"{left} * {right}"
    if op == "pow":
        base = format_expr(e.args[0])
        if e.args[0].op not in ("const", "input", "param") or (
            e.args[0].op == "const" and e.args[0].value < 0
        ):
            base = f"({base})"
        return f"{base}^{e.power}"
    if op == "clamp":
        return f"clamp({format_expr(e.args[0])}, {repr(e.lo)}, {repr(e.hi)})"
    if op in _UNARY:
        return f"{op}({format_expr(e.args[0])})"
    if op in ("min", "max"):
        return f"{op}({format_expr(e.args[0])}, {format_expr(e.args[1])})"
    raise ValueError(f"unknown op {op!r}")


def _fmt_child(e: Expr, parent_prec: int, right: bool) -> str:
    text = format_expr(e)
    prec = _PREC.get(e.op, 5)
    if prec < parent_prec or (right and prec == parent_prec and e.op in _BINARY):
        return f"({text})"
    if e.op == "const" and e.value < 0:
        return f"({text})"
    return text


class _Lexer:
    def __init__(self, text: str, line: int = 1):
        self.text = text
        self.pos = 0
        self.line = line

    def error(self, msg: str):
        raise ParseError(msg, self.line, self.pos + 1)

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos] in " \t":
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take(self, ch: str):
        if self.peek() != ch:
            self.error(f"expected {ch!r}")
        self.pos += 1

    def at_end(self) -> bool:
        return self.peek() == ""

    def number(self) -> float:
        self.skip_ws()
        start = self.pos
        t = self.text
        if self.pos < len(t) and t[self.pos] in "+-":
            self.pos += 1
        while self.pos < len(t) and (t[self.pos].isdigit() or t[self.pos] == "."):
            self.pos += 1
        if self.pos < len(t) and t[self.pos] in "eE":
            self.pos += 1
            if self.pos < len(t) and t[self.pos] in "+-":
                self.pos += 1
            while self.pos < len(t) and t[self.pos].isdigit():
                self.pos += 1
        try:
            return float(t[start:self.pos])
        except ValueError:
            self.pos = start
            self.error("expected a number")

    def word(self) -> str:
        self.skip_ws()
        start = self.pos
        t = self.text
        while self.pos < len(t) and (t[self.pos].isalnum() or t[self.pos] == "_"):
            self.pos += 1
        return t[start:self.pos]


def parse_expr(text: str, line: int = 1) -> Expr:
    lex = _Lexer(text, line)
    e = _parse_sum(lex)
    if not lex.at_end():
        lex.error("unexpected trailing input in expression")
    return e


def _parse_sum(lex: _Lexer) -> Expr:
    e = _parse_product(lex)
    while lex.peek() in ("+", "-"):
        op = lex.peek()
        lex.take(op)
        rhs = _parse_product(lex)
        e = add(e, rhs) if op == "+" else sub(e, rhs)
    return e


def _parse_product(lex: _Lexer) -> Expr:
    e = _parse_unary(lex)
    while lex.peek() == "*":
        lex.take("*")
        e = mul(e, _parse_unary(lex))
    return e


def _parse_unary(lex: _Lexer) -> Expr:
    if lex.peek() == "-":
        lex.take("-")
        if lex.peek().isdigit() or lex.peek() == ".":
            return _parse_power_tail(lex, const(-lex.number()))
        return sub(const(0.0), _parse_unary(lex))
    return _parse_power(lex)


def _parse_power(lex: _Lexer) -> Expr:
    return _parse_power_tail(lex, _parse_atom(lex))


def _parse_power_tail(lex: _Lexer, base: Expr) -> Expr:
    while lex.peek() == "^":
        lex.take("^")
        k = lex.number()
        if k != int(k) or k < 0:
            lex.error("power must be a nonnegative integer")
        base = pow_(base, int(k))
    return base


def _parse_atom(lex: _Lexer) -> Expr:
    ch = lex.peek()
    if ch == "(":
        lex.take("(")
        e = _parse_sum(lex)
        lex.take(")")
        return e
    if ch.isdigit() or ch == ".":
        return const(lex.number())
    w = lex.word()
    if not w:
        lex.error("expected an expression")
    if w in _FUNCS:
        lex.take("(")
        e = _FUNCS[w](_parse_sum(lex))
        lex.take(")")
        return e
    if w in _FUNCS2:
        lex.take("(")
        a = _parse_sum(lex)
        lex.take(",")
        b = _parse_sum(lex)
        lex.take(")")
        return _FUNCS2[w](a, b)
    if w == "clamp":
        lex.take("(")
        a = _parse_sum(lex)
        lex.take(",")
        lo = lex.number()
        lex.take(",")
        hi = lex.number()
        lex.take(")")
        return clamp(a, lo, hi)
    if w[0] == "x" and w[1:].isdigit():
        i = int(w[1:])
        if i < 1:
            lex.error("input slots are numbered from x1")
        return x(i - 1)
    if w[0] == "p" and w[1:].isdigit():
        i = int(w[1:])
        if i < 1:
            lex.error("parameter slots are numbered from p1")
        return p(i - 1)
    lex.error(f"unknown token {w!r}")
