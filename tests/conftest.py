"""Shared generators for fuzz/property tests, the reference matrix draw and
the dense matrix of one sampler."""

import math
import random

import numpy as np

from infwidth import exprs as E
from infwidth.finite import BLOCK_ENTRIES, form_dense
from infwidth.numerics import stream
from infwidth.program import (
    CovDecl,
    MatMul,
    MatrixDecl,
    Moment,
    Nonlin,
    RatioDecl,
    ScalarDecl,
    ScalarRule,
    VectorDecl,
    build_program,
)


def random_expr(rng: random.Random, n_inputs: int, n_params: int = 0, depth: int = 3) -> E.Expr:
    if depth == 0 or rng.random() < 0.3:
        choices = ["const", "input"]
        if n_params:
            choices.append("param")
        kind = rng.choice(choices)
        if kind == "const":
            return E.const(round(rng.uniform(-3, 3), 3))
        if kind == "param":
            return E.p(rng.randrange(n_params))
        return E.x(rng.randrange(n_inputs))
    op = rng.choice(
        ["add", "sub", "mul", "pow", "abs", "relu", "step", "tanh", "min", "max", "clamp"]
    )
    a = random_expr(rng, n_inputs, n_params, depth - 1)
    if op in ("add", "sub", "mul", "min", "max"):
        b = random_expr(rng, n_inputs, n_params, depth - 1)
        return {"add": E.add, "sub": E.sub, "mul": E.mul, "min": E.min_, "max": E.max_}[op](a, b)
    if op == "pow":
        return E.pow_(a, rng.randrange(0, 4))
    if op == "clamp":
        lo = round(rng.uniform(-2, 0), 3)
        return E.clamp(a, lo, lo + round(rng.uniform(0, 3), 3))
    return {"abs": E.abs_, "relu": E.relu, "step": E.step, "tanh": E.tanh}[op](a)


def random_bounded_expr(rng: random.Random, n_inputs: int, depth: int = 2) -> E.Expr:
    base = random_expr(rng, n_inputs, 0, depth)
    wrap = rng.choice(["tanh", "step", "clamp"])
    if wrap == "tanh":
        return E.tanh(base)
    if wrap == "step":
        return E.step(base)
    return E.clamp(base, -1.0, 1.0)


def random_program(rng: random.Random):
    """A random valid program exercising every declaration/instruction form."""
    decls = []
    classes = [f"c{i}" for i in range(rng.randint(1, 3))]
    for c in classes[1:]:
        if rng.random() < 0.7:
            decls.append(RatioDecl(c, rng.choice([0.5, 1.0, 2.0])))
    matrices = []
    for i in range(rng.randint(1, 3)):
        rows, cols = rng.choice(classes), rng.choice(classes)
        matrices.append(MatrixDecl(f"W{i}", rows, cols, round(rng.uniform(0.25, 2.0), 3)))
        decls.append(matrices[-1])
    vectors = {}
    for i in range(rng.randint(1, 3)):
        c = rng.choice(classes)
        decls.append(
            VectorDecl(f"v{i}", c, round(rng.uniform(-1, 1), 3), round(rng.uniform(0.25, 2), 3))
        )
        vectors[f"v{i}"] = c
    by_class = {}
    for nm, c in vectors.items():
        by_class.setdefault(c, []).append(nm)
    if rng.random() < 0.5:
        grp = rng.choice(list(by_class.values()))
        if len(grp) >= 2:
            decls.append(CovDecl(grp[0], grp[1], 0.25))
    scalars = []
    if rng.random() < 0.6:
        rule = None
        if rng.random() < 0.5:
            rule = ScalarRule(E.x(0), E.add(E.const(1.0), E.x(0)))  # u/(1+u) -> 0
        decls.append(ScalarDecl("th0", 0.0 if rule else round(rng.uniform(-1, 1), 3), rule))
        scalars.append("th0")

    counter = 0
    for _ in range(rng.randint(1, 6)):
        counter += 1
        kind = rng.choice(["matmul", "nonlin", "moment"])
        if kind == "matmul":
            m = rng.choice(matrices)
            transposed = rng.random() < 0.5
            need = m.rows if transposed else m.cols
            cands = [nm for nm, c in vectors.items() if c == need]
            if not cands:
                continue
            out = f"g{counter}"
            decls.append(MatMul(out, m.name, transposed, rng.choice(cands)))
            vectors[out] = m.cols if transposed else m.rows
        else:
            cls = rng.choice(sorted(set(vectors.values())))
            cands = [nm for nm, c in vectors.items() if c == cls]
            k = rng.randint(1, min(2, len(cands)))
            ins = tuple(rng.sample(cands, k))
            pars = tuple(scalars) if (scalars and rng.random() < 0.4) else ()
            expr = random_expr(rng, k, len(pars), depth=2)
            out = f"g{counter}"
            if kind == "nonlin":
                decls.append(Nonlin(out, expr, ins, pars))
                vectors[out] = cls
            else:
                decls.append(Moment(out, expr, ins, pars))
                scalars.append(out)
    return build_program(decls)


def block_reference(seed, name, r, c, sigma2):
    """The documented dense draw of a matrix, block by block on one thread."""
    rows = max(1, BLOCK_ENTRIES // c)
    parts = []
    for b, start in enumerate(range(0, r, rows)):
        labels = ("matrix", name, b) if b else ("matrix", name)
        parts.append(stream(seed, *labels).standard_normal((min(rows, r - start), c)))
    return np.concatenate(parts) * math.sqrt(sigma2 / c)


def dense(sampler):
    """One W consistent with every product of sampler, in a new array:
    form_dense on that sampler alone."""
    w = np.empty(sampler.shape)
    form_dense([sampler], [w])
    return w
