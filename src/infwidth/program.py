"""Validated intermediate representation of matrix-vector programs.

A program is an ordered list of declarations (matrices, initial vectors,
initial scalars) and instructions (matmul, coordinatewise nonlin, moment).
Vectors are typed by dimension-class symbols; classes that are forced to
share a dimension (by matrix sides, by coordinatewise instructions, or by
explicit ties) are merged into common dimension classes (CDCs) with
union-find.  Each class carries a limiting size ratio used when classes
grow to infinity at fixed relative scale.

Everything here is immutable after ``build_program``; a Program can be
shared freely across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Mapping

import numpy as np

from . import exprs
from .errors import (
    ArityMismatch,
    DimClassConflict,
    DuplicateSymbol,
    NonPSDCovariance,
    UndeclaredSymbol,
)
from .numerics import psd_factor

# ---------------------------------------------------------------------------
# Declarations and instructions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MatrixDecl:
    name: str
    rows: str  # dimension-class symbol
    cols: str
    sigma2: float  # per-entry variance numerator; entries ~ N(0, sigma2/cols_dim)

    def __post_init__(self):
        if not (self.sigma2 > 0 and math.isfinite(self.sigma2)):
            raise ValueError(f"matrix {self.name}: sigma2 must be positive and finite")


@dataclass(frozen=True)
class VectorDecl:
    name: str
    dim: str
    mean: float = 0.0
    var: float = 1.0

    def __post_init__(self):
        if not math.isfinite(self.mean):
            raise ValueError(f"vector {self.name}: mean must be finite")
        if not (self.var >= 0 and math.isfinite(self.var)):
            raise ValueError(f"vector {self.name}: variance must be >= 0 and finite")


@dataclass(frozen=True)
class CovDecl:
    """Covariance between two initial vectors (same CDC required)."""

    a: str
    b: str
    cov: float


@dataclass(frozen=True)
class RatioDecl:
    """Limiting size of a dimension class relative to the unit class."""

    dim: str
    ratio: float

    def __post_init__(self):
        if not (self.ratio > 0 and math.isfinite(self.ratio)):
            raise ValueError(f"class {self.dim}: ratio must be positive and finite")


@dataclass(frozen=True)
class TieDecl:
    """Declares two vectors to share a dimension class."""

    a: str
    b: str


@dataclass(frozen=True)
class ScalarRule:
    """Finite-size value of an initial scalar: num(u)/den(u) at u = 1/n."""

    num: exprs.Expr
    den: exprs.Expr | None = None

    def value(self, n: int) -> float:
        return self._at(1.0 / float(n), "vanished")

    def limit(self) -> float:
        return self._at(0.0, "vanishes in the limit")

    def _at(self, u: float, vanishing: str) -> float:
        top = float(exprs.evaluate(self.num, (u,)))
        if self.den is None:
            return top
        bot = float(exprs.evaluate(self.den, (u,)))
        if bot == 0.0:
            raise ZeroDivisionError(f"scalar rule denominator {vanishing}")
        return top / bot


@dataclass(frozen=True)
class ScalarDecl:
    name: str
    limit: float
    rule: ScalarRule | None = None  # None means the constant sequence

    def __post_init__(self):
        if not math.isfinite(self.limit):
            raise ValueError(f"scalar {self.name}: limit must be finite")


@dataclass(frozen=True)
class MatMul:
    out: str
    matrix: str
    transposed: bool
    vin: str


@dataclass(frozen=True)
class Nonlin:
    out: str
    expr: exprs.Expr
    inputs: tuple[str, ...]
    params: tuple[str, ...] = ()


@dataclass(frozen=True)
class Moment:
    out: str  # scalar name
    expr: exprs.Expr
    inputs: tuple[str, ...]
    params: tuple[str, ...] = ()


Instruction = MatMul | Nonlin | Moment
InitBlock = tuple[tuple[str, ...], np.ndarray, np.ndarray]
Declaration = MatrixDecl | VectorDecl | CovDecl | RatioDecl | TieDecl | ScalarDecl


# ---------------------------------------------------------------------------
# Program
# ---------------------------------------------------------------------------


class _UnionFind:
    def __init__(self):
        self.parent: dict[str, str] = {}

    def add(self, s: str):
        self.parent.setdefault(s, s)

    def find(self, s: str) -> str:
        self.add(s)
        root = s
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[s] != root:
            self.parent[s], s = root, self.parent[s]
        return root

    def union(self, a: str, b: str):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            # deterministic root: lexicographically smallest symbol
            lo, hi = sorted((ra, rb))
            self.parent[hi] = lo


@dataclass(frozen=True)
class Program:
    matrices: tuple[MatrixDecl, ...] = ()
    vectors: tuple[VectorDecl, ...] = ()
    scalars: tuple[ScalarDecl, ...] = ()
    covs: tuple[CovDecl, ...] = ()
    ratios: tuple[RatioDecl, ...] = ()
    ties: tuple[TieDecl, ...] = ()
    instructions: tuple[Instruction, ...] = ()
    # derived, not part of structural identity
    vector_class: Mapping[str, str] = field(default_factory=dict, compare=False, repr=False)
    cdc_of_class: Mapping[str, str] = field(default_factory=dict, compare=False, repr=False)
    class_ratio: Mapping[str, float] = field(default_factory=dict, compare=False, repr=False)
    # (names, mean, factor L with L L^T = covariance) of each class's initial vectors
    init_blocks: Mapping[str, InitBlock] = field(default_factory=dict, compare=False, repr=False)

    # -- lookups ----------------------------------------------------------
    def matrix(self, name: str) -> MatrixDecl:
        for m in self.matrices:
            if m.name == name:
                return m
        raise UndeclaredSymbol(f"matrix {name!r} not declared")

    @property
    def vector_names(self) -> tuple[str, ...]:
        names = [v.name for v in self.vectors]
        names += [i.out for i in self.instructions if not isinstance(i, Moment)]
        return tuple(names)

    @property
    def scalar_names(self) -> tuple[str, ...]:
        names = [s.name for s in self.scalars]
        names += [i.out for i in self.instructions if isinstance(i, Moment)]
        return tuple(names)

    def cdc(self, vector: str) -> str:
        """CDC representative of a vector's dimension class."""
        try:
            return self.cdc_of_class[self.vector_class[vector]]
        except KeyError:
            raise UndeclaredSymbol(f"vector {vector!r} not in program") from None

    def cdc_reps(self) -> tuple[str, ...]:
        return tuple(sorted(set(self.cdc_of_class.values())))

    def matrix_ratio(self, name: str, transposed: bool = False) -> float:
        """Limiting rows/cols ratio of the matrix as applied."""
        m = self.matrix(name)
        r = self.class_ratio[self.cdc_of_class[m.rows]]
        c = self.class_ratio[self.cdc_of_class[m.cols]]
        return c / r if transposed else r / c

    def check_average(self, test: exprs.Expr, vectors) -> None:
        """Raise unless the coordinate average of test over vectors is defined."""
        reps = {self.cdc(nm) for nm in vectors}
        if len(reps) > 1:
            raise DimClassConflict(f"test vectors span several classes: {sorted(reps)}")
        if exprs.n_inputs(test) > len(vectors):
            raise ArityMismatch("test expression arity exceeds vector count")


def build_program(decls: Iterable[Declaration | Instruction]) -> Program:
    """Validate an ordered declaration/instruction list into a Program.

    Checks symbol uniqueness, reference order, expression arities, and the
    dimension-class constraints; computes the CDC partition, class ratios
    and each class's initial block.
    """
    matrices: list[MatrixDecl] = []
    vectors: list[VectorDecl] = []
    scalars: list[ScalarDecl] = []
    covs: list[CovDecl] = []
    ratios: list[RatioDecl] = []
    ties: list[TieDecl] = []
    instrs: list[Instruction] = []

    for d in decls:
        if isinstance(d, MatrixDecl):
            matrices.append(d)
        elif isinstance(d, VectorDecl):
            vectors.append(d)
        elif isinstance(d, ScalarDecl):
            scalars.append(d)
        elif isinstance(d, CovDecl):
            covs.append(d)
        elif isinstance(d, RatioDecl):
            ratios.append(d)
        elif isinstance(d, TieDecl):
            ties.append(d)
        elif isinstance(d, (MatMul, Nonlin, Moment)):
            instrs.append(d)
        else:
            raise TypeError(f"unsupported declaration {d!r}")

    seen: set[str] = set()

    def declare(name: str, what: str):
        if name in seen:
            raise DuplicateSymbol(f"symbol {name!r} redeclared as {what}")
        seen.add(name)

    vec_class: dict[str, str] = {}
    known_scalars: set[str] = set()

    for m in matrices:
        declare(m.name, "matrix")
    for v in vectors:
        declare(v.name, "vector")
        vec_class[v.name] = v.dim
    for s in scalars:
        declare(s.name, "scalar")
        known_scalars.add(s.name)
        if s.rule is not None:
            if abs(s.rule.limit() - s.limit) > 1e-9 * max(1.0, abs(s.limit)):
                raise ValueError(
                    f"scalar {s.name!r}: finite-size rule does not converge to "
                    f"its declared limit {s.limit}"
                )

    mat_by_name = {m.name: m for m in matrices}

    # first pass: assign classes to derived vectors, check symbol order/arity
    for ins in instrs:
        if isinstance(ins, MatMul):
            if ins.matrix not in mat_by_name:
                raise UndeclaredSymbol(f"matrix {ins.matrix!r} not declared")
            if ins.vin not in vec_class:
                raise UndeclaredSymbol(f"vector {ins.vin!r} used before definition")
            declare(ins.out, "vector")
            m = mat_by_name[ins.matrix]
            vec_class[ins.out] = m.cols if ins.transposed else m.rows
        elif isinstance(ins, (Nonlin, Moment)):
            if not ins.inputs:
                raise ArityMismatch("nonlin/moment needs at least one input vector")
            for nm in ins.inputs:
                if nm not in vec_class:
                    raise UndeclaredSymbol(f"vector {nm!r} used before definition")
            for nm in ins.params:
                if nm not in known_scalars:
                    raise UndeclaredSymbol(f"scalar {nm!r} used before definition")
            if exprs.n_inputs(ins.expr) > len(ins.inputs):
                raise ArityMismatch(
                    f"{ins.out!r}: expression needs {exprs.n_inputs(ins.expr)} inputs, "
                    f"got {len(ins.inputs)}"
                )
            if exprs.n_params(ins.expr) > len(ins.params):
                raise ArityMismatch(
                    f"{ins.out!r}: expression needs {exprs.n_params(ins.expr)} parameters, "
                    f"got {len(ins.params)}"
                )
            declare(ins.out, "vector" if isinstance(ins, Nonlin) else "scalar")
            if isinstance(ins, Nonlin):
                vec_class[ins.out] = vec_class[ins.inputs[0]]
            else:
                known_scalars.add(ins.out)

    # second pass: union-find closure over class symbols
    uf = _UnionFind()
    for m in matrices:
        uf.add(m.rows)
        uf.add(m.cols)
    for c in vec_class.values():
        uf.add(c)
    for r in ratios:
        uf.add(r.dim)
    for t in ties:
        if t.a not in vec_class or t.b not in vec_class:
            raise UndeclaredSymbol(f"tie references unknown vector {t.a!r} or {t.b!r}")
        uf.union(vec_class[t.a], vec_class[t.b])

    # third pass: check instruction constraints under the final closure
    for ins in instrs:
        if isinstance(ins, MatMul):
            m = mat_by_name[ins.matrix]
            need = m.rows if ins.transposed else m.cols
            got = vec_class[ins.vin]
            if uf.find(need) != uf.find(got):
                side = "rows" if ins.transposed else "cols"
                raise DimClassConflict(
                    f"{ins.out!r} = matmul: input {ins.vin!r} has class {got!r} "
                    f"but {ins.matrix!r} needs its {side} class {need!r}"
                )
        elif isinstance(ins, (Nonlin, Moment)):
            classes = {uf.find(vec_class[nm]) for nm in ins.inputs}
            if len(classes) > 1:
                raise DimClassConflict(
                    f"{ins.out!r}: inputs span several dimension classes {sorted(classes)}"
                )

    pairs: set[frozenset[str]] = set()
    for c in covs:
        if c.a not in {v.name for v in vectors} or c.b not in {v.name for v in vectors}:
            raise UndeclaredSymbol(f"cov references unknown initial vector: {c}")
        if c.a == c.b:
            raise DuplicateSymbol(f"cov {c.a} {c.b}: declare a variance as "
                                  f"'vector {c.a} : {vec_class[c.a]} var VALUE'")
        if frozenset((c.a, c.b)) in pairs:
            raise DuplicateSymbol(f"cov of {c.a!r} and {c.b!r} declared twice")
        pairs.add(frozenset((c.a, c.b)))
        if uf.find(vec_class[c.a]) != uf.find(vec_class[c.b]):
            raise DimClassConflict(
                f"cov({c.a},{c.b}): jointly sampled vectors must share a class"
            )

    cdc_of_class = {c: uf.find(c) for c in uf.parent}

    # class ratios: declared per class symbol; merged classes must agree
    class_ratio: dict[str, float] = {}
    for r in ratios:
        rep = cdc_of_class[r.dim]
        if rep in class_ratio and abs(class_ratio[rep] - r.ratio) > 1e-12:
            raise DimClassConflict(
                f"class {r.dim!r} merged into {rep!r} with conflicting ratios"
            )
        class_ratio[rep] = r.ratio
    for rep in set(cdc_of_class.values()):
        class_ratio.setdefault(rep, 1.0)

    return Program(
        matrices=tuple(matrices),
        vectors=tuple(vectors),
        scalars=tuple(scalars),
        covs=tuple(covs),
        ratios=tuple(ratios),
        ties=tuple(ties),
        instructions=tuple(instrs),
        vector_class=dict(vec_class),
        cdc_of_class=cdc_of_class,
        class_ratio=class_ratio,
        init_blocks=_init_blocks(vectors, covs, cdc_of_class),
    )


def _init_blocks(vectors, covs, cdc_of_class) -> dict[str, InitBlock]:
    """(names, mean, L) of each class's initial vectors, L L^T their declared covariance.

    Factoring is the PSD check.  The arrays are read-only because a Program
    is shared across threads.
    """
    blocks: dict[str, InitBlock] = {}
    for rep in sorted(set(cdc_of_class.values())):
        decls = [v for v in vectors if cdc_of_class[v.dim] == rep]
        if not decls:
            continue
        names = tuple(v.name for v in decls)
        pos = {n: i for i, n in enumerate(names)}
        mean = np.array([v.mean for v in decls], dtype=np.float64)
        cov = np.diag(np.array([v.var for v in decls], dtype=np.float64))
        for c in covs:
            if c.a in pos and c.b in pos:
                cov[pos[c.a], pos[c.b]] = cov[pos[c.b], pos[c.a]] = c.cov
        try:
            factor = psd_factor(cov)
        except ValueError as exc:
            raise NonPSDCovariance(
                f"initial covariance of {', '.join(names)} in class {rep!r}: {exc}"
            ) from None
        mean.flags.writeable = factor.flags.writeable = False
        blocks[rep] = (names, mean, factor)
    return blocks


def compute_cdc(program: Program) -> dict[str, frozenset[str]]:
    """Partition of vectors into CDCs, keyed by representative class symbol."""
    out: dict[str, set[str]] = {}
    for name in program.vector_names:
        out.setdefault(program.cdc(name), set()).add(name)
    return {k: frozenset(v) for k, v in out.items()}
