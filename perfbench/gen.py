"""Seeded generator of the limit-deep chain programs.

Each chain is ``z_i = f_i(W z_{i-1}, W^T z_{i-1})`` over a single square
matrix ``W`` of variance 0.5, so ``W + W^T`` has unit entry variance.  The
depths are fixed so that every seed asks for the same amount of limit-engine
work (the correction cost grows quadratically with depth); the seed chooses
which maps are affine and which non-affine map each of the others is.

The all-affine chain is the bundled ``semicircle`` program made deep: every
``z_k`` is ``(W + W^T)^k z_0`` in the limit, so ``E[z_0 z_k]`` is the k-th
semicircle moment and ``E[z_k^2]`` is the Catalan number ``C_k``.  These are
the closed forms its output is checked against.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

AFFINE = "x1 + x2"
NON_AFFINE = ("tanh(x1 + x2)", "relu(x1) + x2", "clamp(x1 + x2, -2.0, 2.0)")

DEPTH = 16
AFFINE_PROBABILITY = 0.5


@dataclass(frozen=True)
class Chain:
    name: str
    text: str  # DSL source
    depth: int
    affine_share: float  # share of the nonlins that are affine
    tests: tuple[tuple[str, str], ...]  # (expression, comma-joined vectors)


def chain(name: str, maps: list[str], tests: list[tuple[str, str]]) -> Chain:
    lines = [f"# {name}: depth {len(maps)}", "matrix W : c x c var 0.5", "vector z0 : c"]
    for i, f in enumerate(maps, start=1):
        lines.append(f"x{i} = matmul W z{i - 1}")
        lines.append(f"y{i} = matmul W^T z{i - 1}")
        lines.append(f"z{i} = nonlin {f} (x{i}, y{i})")
    share = sum(f == AFFINE for f in maps) / len(maps)
    return Chain(name, "\n".join(lines) + "\n", len(maps), share, tuple(tests))


def affine_moment_tests(depth: int) -> list[tuple[str, str]]:
    """Expectations of the all-affine chain that have closed forms."""
    ks = sorted({2, depth // 4, depth // 2, depth})
    tests = [("x1 * x2", f"z0,z{k}") for k in ks]
    tests.append(("x1^2", f"z{depth // 4}"))
    return tests


def generate(seed: int) -> list[Chain]:
    """The limit-deep programs for one benchmark seed."""
    rng = random.Random(seed)
    maps = [
        AFFINE if rng.random() < AFFINE_PROBABILITY else rng.choice(NON_AFFINE)
        for _ in range(DEPTH)
    ]
    d = DEPTH
    mixed_tests = [("x1 * x2", f"z0,z{d}"), ("x1 * x2", f"z{d // 2},z{d}"), ("x1^2", f"z{d}")]
    return [
        chain("deep_affine", [AFFINE] * DEPTH, affine_moment_tests(DEPTH)),
        chain("deep_mixed", maps, mixed_tests),
    ]
