"""Finite-size sampling and execution of programs, plus matrix-word statistics.

A Realization is one concrete sample of a program: every initial vector
drawn at the assigned dimensions from its own deterministic stream, then all
instructions executed in order.  A matrix is not drawn: each of its products
is sampled from its exact law given the earlier ones (ProductSampler), and
the matrix itself is formed only when a word needs it (Realization.form,
which forms all of a word's matrices together: the one way to get a dense
matrix).  On top of realizations this module
evaluates coordinate averages, applies matrix words (products of program
matrices and diagonal matrices of bounded coordinatewise images) factor by
factor, and estimates normalized traces either exactly, from power traces
of the dense word, or with the Gaussian probe identity tr M = E z^T M z.
"""

from __future__ import annotations

import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
import warnings

import numpy as np

from . import exprs
from .errors import (
    ArityMismatch,
    CapExceeded,
    DimClassConflict,
    MemoryPolicyError,
    ShapeMismatch,
    UndeclaredSymbol,
)
from .numerics import sample_init_block, stream
from .program import MatMul, Moment, Nonlin, Program

EXACT_CAP = 1024  # largest side of a dense word / eigendecomposition
# largest dense matrix (entries), checked when Realization.form forms one;
# products allocate none
ELEMENT_CAP = 1 << 26
HUTCHINSON_PROBES = 32
# probe columns per separately keyed block of probe_forms, so a probe
# estimate holds a few n x 128 blocks whatever its probe count; 128 keeps
# every default (32-probe) run in one block, with its bytes
PROBE_BLOCK = 128
# entries per separately keyed row block of a formed matrix's W~; form_dense
# fills the blocks of every matrix it forms on one pool of the usable CPUs
BLOCK_ENTRIES = 1 << 22
# entries per row chunk of form_dense's W~ fill and rank-k correction, so
# their temporaries stay in L2
CHUNK_ENTRIES = 1 << 16
DEPENDENT_TOL = 1e-12  # relative residual below which an input adds no direction
SUPPORT_ALIGN = 32  # _take pads operands, and Realization.form buffers, to multiples of this


def dims_for_scale(program: Program, n: int) -> dict[str, int]:
    """Dimension per CDC at base scale n, honouring declared limiting ratios."""
    return {rep: max(1, round(program.class_ratio[rep] * n)) for rep in program.cdc_reps()}


def resolve_dims(program: Program, dims: dict[str, int]) -> dict[str, int]:
    """Normalize a class->size map onto CDC representatives and validate it."""
    out: dict[str, int] = {}
    for cls, n in dims.items():
        if cls not in program.cdc_of_class:
            raise UndeclaredSymbol(f"dimension given for unknown class {cls!r}")
        if n < 1:
            raise ValueError("all dimensions must be >= 1")
        rep = program.cdc_of_class[cls]
        if rep in out and out[rep] != n:
            raise DimClassConflict(
                f"classes merged into {rep!r} assigned conflicting sizes"
            )
        out[rep] = int(n)
    missing = [rep for rep in program.cdc_reps() if rep not in out]
    if missing:
        raise DimClassConflict(f"no dimension assigned for classes {missing}")
    reps = program.cdc_reps()
    if reps:
        base = min(out[r] / program.class_ratio[r] for r in reps)
        for r in reps:
            target = program.class_ratio[r] * base
            if target > 0 and abs(out[r] - target) > 0.01 * target + 1.0:
                warnings.warn(
                    f"dimension {out[r]} of class {r!r} is more than 1% away from "
                    f"the declared limiting ratio (expected ~{target:.0f})",
                    stacklevel=2,
                )
    return out


class ProductSampler:
    """Products of one W : r x c with iid N(0, sigma2/c) entries, W never drawn.

    The sampler keeps orthonormal bases Q_X of the inputs of W x and Q_Y of
    the inputs of W^T y (rows of `q`, Gram-Schmidt with one
    re-orthogonalisation pass) and their images Z_X = W Q_X and
    Z_Y = W^T Q_Y (rows of `z`).  Given those, W is its conditional mean
    Z_X Q_X^T + Q_Y Z_Y^T P_X^perp plus P_Y^perp W~ P_X^perp for a fresh W~,
    so with alpha = Q_X^T x and x^perp = P_X^perp x

        W x = Z_X alpha + Q_Y Z_Y^T x^perp + sqrt(sigma2/c) |x^perp| P_Y^perp g

    is an exact draw given every earlier product (W^T y likewise, with the
    roles swapped).  An (n, p) block is the p products of its columns in
    order: their residuals against Q_X are orthonormalised one after
    another, and all their images come from one set of matrix products.
    The t-th fresh g comes from the stream
    (seed, "matrix", name, "product", t), counted over both directions.  An
    input column with |x^perp| <= DEPENDENT_TOL |x| (in a block, x^perp is
    also taken against the earlier columns) draws no g and adds no direction.
    A product costs O((r + c) k) per column for k earlier directions, plus
    O(c p) per column of a block.  Every product applied, also after
    instantiate, extends the sampler, so a matrix formed afterwards
    reproduces it.
    """

    def __init__(self, seed: int, name: str, rows: int, cols: int, sigma2: float):
        self.seed, self.name, self.shape = seed, name, (rows, cols)
        self.scale = math.sqrt(sigma2 / cols)
        # index 0: inputs of W x (length cols), index 1: inputs of W^T y
        self.q = [np.empty((0, cols)), np.empty((0, rows))]
        self.z = [np.empty((0, rows)), np.empty((0, cols))]
        self.draws = 0

    def apply(self, v: np.ndarray, transposed: bool = False) -> np.ndarray:
        """W v, or W^T v, for a vector or an (n, p) block, sampled given every
        earlier product.  A vector is a block of one column, and numpy treats
        both alike, so the two give the same bytes."""
        side = int(transposed)
        q_in, q_out, z_out = self.q[side], self.q[1 - side], self.z[1 - side]
        block = v.reshape(len(v), -1)
        alpha, rest = _split(q_in, block)
        out = (alpha.T @ self.z[side]).T
        u, coef = _orthonormal_rows(block, rest)
        if len(u):
            g = np.array([
                stream(self.seed, "matrix", self.name, "product", self.draws + t)
                .standard_normal(q_out.shape[1])
                for t in range(len(u))
            ])
            self.draws += len(u)
            image = (z_out @ u.T).T @ q_out + self.scale * _split(q_out, g.T)[1].T
            self.q[side] = np.vstack([q_in, u])
            self.z[side] = np.vstack([self.z[side], image])
            out = out + image.T @ coef
        return out.reshape(len(out), *v.shape[1:])

    def _blocks(self, w: np.ndarray) -> list[tuple[tuple, np.ndarray]]:
        """(stream key, rows of w) of each row block of W~: max(1,
        BLOCK_ENTRIES // c) rows, block 0 from (seed, "matrix", name) and
        block b >= 1 from (seed, "matrix", name, b)."""
        rows = max(1, BLOCK_ENTRIES // self.shape[1])
        return [(("matrix", self.name, b) if b else ("matrix", self.name), w[start:start + rows])
                for b, start in enumerate(range(0, self.shape[0], rows))]

    def _fill(self, key: tuple, view: np.ndarray) -> None:
        """Scaled normals from the stream key into view, in C order and in
        row chunks of about CHUNK_ENTRIES, so view's rows may be strided."""
        gen = stream(self.seed, *key)
        step = max(1, CHUNK_ENTRIES // self.shape[1])
        for start in range(0, len(view), step):
            part = view[start:start + step]
            np.multiply(gen.standard_normal(part.shape), self.scale, out=part)

    def _correct(self, w: np.ndarray) -> None:
        """Add the conditional mean to w = W~ in place."""
        (qx, qy), (zx, zy) = self.q, self.z
        if len(qx) + len(qy) == 0:
            return
        # W = W~ + D_X Q_X^T + Q_Y E_Y^T with D_X = Z_X - W~ Q_X and
        # E_Y = P_X^perp (Z_Y - W~^T Q_Y): one rank-k update, in row chunks
        d_x = zx.T - np.einsum("ij,kj->ik", w, qx)
        e_y = _split(qx, zy.T - np.einsum("ji,kj->ik", w, qy))[1]
        left, right = np.hstack([d_x, qy.T]), np.vstack([qx, e_y.T])
        step = max(1, CHUNK_ENTRIES // self.shape[1])
        for start in range(0, self.shape[0], step):
            w[start:start + step] += np.einsum("ik,kj->ij", left[start:start + step], right)


def form_dense(samplers: list[ProductSampler], outs: list[np.ndarray]) -> None:
    """Form each sampler's W, consistent with every product, in its out
    array of its shape (rows may be strided, as in a padded buffer).

    W is the conditional mean plus P_Y^perp W~ P_X^perp.  W~ comes in row
    blocks of max(1, BLOCK_ENTRIES // c) rows, each from its own keyed
    stream (ProductSampler._blocks), and the blocks of every matrix are
    filled by one map_threads call on the usable CPUs; every stream is a
    pure function of its key, so a matrix with no products is that draw
    bit for bit on any number of threads.  Then each correction is added in row chunks of
    about CHUNK_ENTRIES, so it allocates only small temporaries beside W.
    The correction takes W~ Q_X^T, W~^T Q_Y^T and the rank-k update as
    numpy sums, not BLAS, whose bytes can depend on the thread count (gemv
    and gemm at n = 700, say).  The caller allocates every out array in
    its own thread: buffers allocated in pool threads can come from glibc
    arenas that keep their pages after the arrays are freed.  That helps
    only when the caller is the main thread; under `free` or `jacobian`
    with --workers 2 or more it is itself a worker.
    """
    fills = [(s, key, view) for s, w in zip(samplers, outs) for key, view in s._blocks(w)]
    # Generator fills and in-place scaling release the GIL
    map_threads(lambda task: task[0]._fill(*task[1:]), fills,
                min(len(fills), len(os.sched_getaffinity(0))))
    for s, w in zip(samplers, outs):
        s._correct(w)


def map_threads(fn, items, workers: int) -> list:
    """[fn(item) for item in items], on a pool of `workers` threads when
    that is 2 or more.  The one thread map: CLI cells and W~ fills use it."""
    if workers <= 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(workers) as pool:
        return list(pool.map(fn, items))


def _split(q: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(q v, v - q^T q v) for orthonormal rows q, with one re-orthogonalisation pass."""
    alpha = q @ v
    rest = v - q.T @ alpha
    again = q @ rest
    rest -= q.T @ again
    return alpha + again, rest


def _orthonormal_rows(block: np.ndarray, rest: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal rows u and coefficients c with rest = u^T c, from
    Gram-Schmidt on rest's columns in order.  A column adds a row only if
    its part outside the earlier rows exceeds DEPENDENT_TOL times the norm
    of the same column of block; a column that adds none keeps its
    coefficients on the earlier rows and loses the rest."""
    cols = np.ascontiguousarray(rest.T)
    u = np.empty_like(cols)
    coef = np.zeros((len(cols), len(cols)))
    m = 0
    for j, col in enumerate(cols):
        if m:  # numpy's products with an empty basis are slow, not free
            coef[:m, j], col = _split(u[:m], col)
        norm = float(np.linalg.norm(col))
        if norm <= DEPENDENT_TOL * float(np.linalg.norm(block[:, j])):
            continue
        coef[m, j] = norm
        u[m] = col / norm
        m += 1
    return u[:m], coef[:m]


@dataclass(frozen=True)
class Realization:
    """One finite-size sample of a program; immutable and thread-shareable.

    No matrix is drawn: `samplers` knows each one through its products, and
    `matrices` holds those formed so far.  Read matrices with `form(*names)`:
    a matrix is formed on first use (form_dense), subject to ELEMENT_CAP, in
    a zero-padded buffer whose sides are multiples of SUPPORT_ALIGN, and
    `matrices` holds its (r, c) top-left view, read-only, whose `.base` is
    that buffer.  Products applied after instantiate, through
    `samplers[name].apply`, extend that sampler: a matrix formed afterwards
    reproduces them too, one formed before does not.  Such products mutate
    the sampler, so one thread applies them.
    """

    program: Program
    seed: int
    dims: dict[str, int]  # CDC representative -> size
    matrices: dict[str, np.ndarray] = field(repr=False)
    vectors: dict[str, np.ndarray] = field(repr=False)
    scalars: dict[str, float]
    samplers: dict[str, ProductSampler] = field(default_factory=dict, repr=False)
    _lock: threading.Lock = field(
        default_factory=threading.Lock, init=False, repr=False, compare=False
    )

    def form(self, *names: str) -> list[np.ndarray]:
        """The dense (r, c) matrix of each name, in order, formed once.

        Under one lock, the matrices not formed yet are formed together:
        their buffers are allocated here, in the calling thread, and one
        form_dense call fills them, every W~ block of every matrix on one
        pool.  Each matrix is the read-only top-left view of its buffer,
        whose sides are padded once to multiples of SUPPORT_ALIGN, so a
        product can multiply that buffer (`.base`) without copying W.
        """
        with self._lock:
            todo = [name for name in dict.fromkeys(names) if name not in self.matrices]
            shapes = [self.samplers[name].shape for name in todo]
            for name, (r, c) in zip(todo, shapes):
                if r * c > ELEMENT_CAP:
                    raise MemoryPolicyError(
                        f"matrix {name!r} would need {r}x{c} entries (cap {ELEMENT_CAP})"
                    )
            bufs = [np.zeros([n + -n % SUPPORT_ALIGN for n in shape]) for shape in shapes]
            views = [buf[:r, :c] for buf, (r, c) in zip(bufs, shapes)]
            if todo:  # else every name is formed already
                form_dense([self.samplers[name] for name in todo], views)
            for name, buf, (r, c) in zip(todo, bufs, shapes):
                buf.flags.writeable = False
                self.matrices[name] = buf[:r, :c]
            return [self.matrices[name] for name in names]


def instantiate(program: Program, dims: dict[str, int], seed: int) -> Realization:
    """Sample and execute a program; a pure function of (program, dims, seed).

    A matrix W : r x c has iid N(0, sigma2/c) entries.  W is not drawn: a
    ProductSampler samples each of its products exactly, and
    Realization.form forms W only on request (form_dense).
    Products applied after instantiate extend the samplers of the returned
    Realization.
    """
    dims = resolve_dims(program, dims)
    samplers = {
        m.name: ProductSampler(seed, m.name, dims[program.cdc_of_class[m.rows]],
                               dims[program.cdc_of_class[m.cols]], m.sigma2)
        for m in program.matrices
    }

    vectors: dict[str, np.ndarray] = {}
    for rep, block in program.init_blocks.items():
        vectors.update(sample_init_block(seed, "vector", *block, dims[rep]))

    scalars: dict[str, float] = {}
    n_ref = _scalar_reference_dim(program, dims)
    for s in program.scalars:
        scalars[s.name] = s.limit if s.rule is None else s.rule.value(n_ref)

    for ins in program.instructions:
        if isinstance(ins, MatMul):
            vectors[ins.out] = samplers[ins.matrix].apply(vectors[ins.vin], ins.transposed)
        elif isinstance(ins, Nonlin):
            cols = tuple(vectors[nm] for nm in ins.inputs)
            pars = tuple(scalars[nm] for nm in ins.params)
            vectors[ins.out] = exprs.evaluate_columns(ins.expr, cols, pars)
        elif isinstance(ins, Moment):
            cols = tuple(vectors[nm] for nm in ins.inputs)
            pars = tuple(scalars[nm] for nm in ins.params)
            scalars[ins.out] = float(np.mean(exprs.evaluate(ins.expr, cols, pars)))

    return Realization(program, seed, dims, {}, vectors, scalars, samplers)


def _scalar_reference_dim(program: Program, dims: dict[str, int]) -> int:
    # size entering scalar sequence rules f(1/n): the first declared initial
    # vector's class, since initial scalars are declared alongside it
    if program.vectors:
        return dims[program.cdc(program.vectors[0].name)]
    return max(dims.values(), default=1)


def empirical_average(realization: Realization, test: exprs.Expr, vectors: list[str]) -> float:
    """Exact coordinate average (1/n) sum_a test(v1_a, ..., vk_a)."""
    realization.program.check_average(test, vectors)
    cols = tuple(realization.vectors[nm] for nm in vectors)
    return float(np.mean(exprs.evaluate(test, cols)))


# ---------------------------------------------------------------------------
# Matrix words
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MatFactor:
    name: str
    transposed: bool = False

    def key(self) -> str:
        return f"mat {self.name}^T" if self.transposed else f"mat {self.name}"

    def collection(self) -> tuple:
        """The pair {W, W^T} this factor belongs to."""
        return ("mat", self.name)


@dataclass(frozen=True)
class DiagFactor:
    vectors: tuple[str, ...]
    expr: exprs.Expr

    def __post_init__(self):
        if not exprs.is_bounded(self.expr):
            raise ValueError("diagonal factors require a bounded expression")
        if exprs.n_inputs(self.expr) > len(self.vectors):
            raise ArityMismatch("diagonal expression arity exceeds vector count")

    def key(self) -> str:
        return f"diag {','.join(self.vectors)} {exprs.format_expr(self.expr)}"

    def collection(self) -> tuple:
        """The diagonal matrices of this one bounded image of these vectors."""
        return ("diag", self.vectors, self.expr)


WordFactor = MatFactor | DiagFactor


@dataclass(frozen=True)
class MatrixWord:
    """Product of factors, leftmost first; applied right-to-left."""

    factors: tuple[WordFactor, ...]

    def key(self) -> str:
        return " | ".join(f.key() for f in self.factors)

    def __mul__(self, other: "MatrixWord") -> "MatrixWord":
        return MatrixWord(self.factors + other.factors)

    @property
    def T(self) -> "MatrixWord":
        """The transposed word: factors reversed, each matrix factor transposed."""
        return MatrixWord(tuple(
            MatFactor(f.name, not f.transposed) if isinstance(f, MatFactor) else f
            for f in reversed(self.factors)
        ))

    def mirror_half(self) -> "MatrixWord | None":
        """R with self = R^T R, the half applied first, if the word is a mirror:
        of even length, with factor i the transpose of factor m - 1 - i (a
        diagonal is its own transpose).  None for any other word."""
        m = len(self.factors)
        if m == 0 or m % 2 or self.T != self:
            return None
        return MatrixWord(self.factors[m // 2:])


def word_classes(program: Program, word: MatrixWord) -> tuple[str, str]:
    """(rows, cols) CDC representatives of the product; empty word is identity."""
    rows = cols = ""
    for f in word.factors:
        if isinstance(f, MatFactor):
            m = program.matrix(f.name)
            fr = program.cdc_of_class[m.cols if f.transposed else m.rows]
            fc = program.cdc_of_class[m.rows if f.transposed else m.cols]
        else:
            reps = {program.cdc(v) for v in f.vectors}
            if len(reps) != 1:
                raise DimClassConflict("diagonal factor vectors span several classes")
            fr = fc = reps.pop()
        if cols and cols != fr:
            raise ShapeMismatch(
                f"factor {f.key()!r} does not compose: expects rows {cols!r}, has {fr!r}"
            )
        if not rows:
            rows = fr
        cols = fc
    return rows, cols


def diag_entries(realization: Realization, f: DiagFactor) -> np.ndarray:
    """The diagonal entries of a diagonal factor, one per coordinate of its vectors."""
    return exprs.evaluate_columns(f.expr, tuple(realization.vectors[v] for v in f.vectors))


def _apply_factor(
    realization: Realization, f: WordFactor, probe: np.ndarray | None
) -> np.ndarray:
    """f @ probe; without a probe, f itself as a fresh dense matrix."""
    if isinstance(f, MatFactor):
        (w,) = realization.form(f.name)
        if probe is None:
            return (w.T if f.transposed else w).copy()
        rows = w.shape[int(f.transposed)]
        # padded operands: thread-stable bytes, as in word_block
        out = (w.base.T if f.transposed else w.base) @ _take(probe, None)
        return out[:rows, :probe.shape[1]] if probe.ndim == 2 else out[:rows]
    d = diag_entries(realization, f)
    if probe is None:
        return np.diag(d)
    return d[:, None] * probe if probe.ndim == 2 else d * probe


def word_apply(
    realization: Realization, word: MatrixWord, probe: np.ndarray | None = None
) -> np.ndarray:
    """word @ probe computed factor by factor, never forming the product.

    Without a probe it is the dense word, with the entries of word @ I (no
    side above EXACT_CAP), but no factor is applied to an identity: the
    first factor applied is taken as it is, and the others are applied to
    it.  The result may be a cropped view of a padded array.
    """
    rows, cols = word_classes(realization.program, word)
    if probe is None:
        if not rows:  # empty product: identity on an unknown class
            raise ShapeMismatch("cannot form the empty word")
        side = max(realization.dims[rows], realization.dims[cols])
        if side > EXACT_CAP:
            raise CapExceeded(f"side {side} exceeds dense cap {EXACT_CAP}")
    else:
        probe = np.asarray(probe, dtype=np.float64)
        if cols and probe.shape[0] != realization.dims[cols]:
            raise ShapeMismatch(
                f"probe has {probe.shape[0]} rows; word expects {realization.dims[cols]}"
            )
    out = probe
    for f in reversed(word.factors):
        out = _apply_factor(realization, f, out)
    return out


def diag_product(realization: Realization, factors, n: int) -> np.ndarray:
    """The entrywise product of the diagonal factors among `factors`, in
    order; ones of length n if there are none."""
    d = np.ones(n)
    for f in factors:
        if isinstance(f, DiagFactor):
            d *= diag_entries(realization, f)
    return d


def word_block(realization: Realization, word: MatrixWord) -> np.ndarray:
    """The dense word on the rows and columns its diagonals keep, in order,
    then zero rows and columns (_take): its Gram matrix has the power
    traces of the word's.  The word is not empty, and the caller bounds
    the side of what it takes from it (spectral_moments, the Gram side).

    Each maximal run of diagonal factors is folded into one vector
    (diag_product): the run applied first into d, which scales the columns
    of the first matrix factor, and the run after each matrix factor into
    e, which scales that product's rows once.  Each matrix factor is read
    only where its neighbouring runs are nonzero (_kept): its columns
    where the run before it is, its rows where e is.  The word's matrices
    are formed together and read from their padded buffers, so a side that
    keeps every index copies nothing.  An all-diagonal word, such as the
    half of diag | diag, is Diag(d).
    """
    fs = word.factors
    mats = [i for i, f in enumerate(fs) if isinstance(f, MatFactor)]
    n = realization.dims[word_classes(realization.program, word)[1]]
    d = diag_product(realization, fs[mats[-1] + 1:] if mats else fs, n)
    if not mats:
        return np.diag(d)
    names = [fs[i].name for i in mats]
    formed = dict(zip(names, realization.form(*names)))
    rows = cols = _kept(d != 0)  # rows: the kept rows of the running product
    out = None
    # the matrix factors in order of application, each with the run after it
    for start, i in reversed(list(zip([-1] + mats, mats))):
        f, run = fs[i], fs[start + 1:i]
        w = formed[f.name]
        e = diag_product(realization, run, w.shape[f.transposed])
        keep = _kept(e != 0)
        w = _take(w.base.T if f.transposed else w.base, keep, rows)
        out = np.multiply(w, _take(d, cols), order="C") if out is None else w @ out
        if run:
            out = _take(e, keep)[:, None] * out
        rows = keep
    return out


def _kept(keep: np.ndarray) -> np.ndarray | None:
    """The indices where keep is true, in order, or None if that is every
    index.  word_block keeps the indices where a run of diagonals is
    nonzero; _take pads the set."""
    return None if keep.all() else np.flatnonzero(keep)


def _take(
    a: np.ndarray, rows: np.ndarray | None, cols: np.ndarray | None = None
) -> np.ndarray:
    """a on the index arrays rows and cols (None keeps every index; a vector
    takes rows only), with zeros appended to each side up to a multiple of
    SUPPORT_ALIGN; a view of a when that changes nothing.  It is the one
    place an operand is padded (Realization.form pads its buffers once).

    A padded side adds only exact zeros to a product.  OpenBLAS gives the
    same bytes for any thread count on products whose sides are multiples
    of SUPPORT_ALIGN, as it does not on some others (n = 150, or the
    unpadded, data-dependent sides of kept sets).  The zeros come before the
    selection's temporary, so freeing it leaves no hole in the heap.
    """
    index = tuple(slice(None) if i is None else i for i in (rows, cols)[:a.ndim])
    if rows is not None and cols is not None:
        index = np.ix_(rows, cols)
    sides = [n if i is None else len(i) for n, i in zip(a.shape, (rows, cols))]
    if all(n % SUPPORT_ALIGN == 0 for n in sides):
        return a[index]
    out = np.zeros([n + -n % SUPPORT_ALIGN for n in sides])
    out[tuple(map(slice, sides))] = a[index]
    return out


def square_class(program: Program, word: MatrixWord) -> str:
    """CDC representative a square word acts on; "" for the empty word."""
    rows, cols = word_classes(program, word)
    if rows != cols:
        raise ShapeMismatch(f"word {word.key()!r} is not square: rows {rows!r}, cols {cols!r}")
    return rows


def trace_probes(n: int, method: str, cap: int, probes: int) -> int:
    """Gaussian probes for a normalized trace of side n; 0 means exact.

    method: "exact" (dense, requires n <= cap), "hutch" for `probes` Gaussian
    probes, or "auto" to pick exact when the side fits under the cap.
    """
    if method == "auto":
        method = "exact" if n <= cap else "hutch"
    if method == "exact":
        if n > cap:
            raise CapExceeded(f"side {n} exceeds dense cap {cap}")
        return 0
    if method != "hutch":
        raise ValueError(f"unknown trace method {method!r}")
    if probes < 2:
        raise ValueError(f"Gaussian-probe traces need at least 2 probes, got {probes}")
    return probes


def power_traces(m: np.ndarray, k_max: int, symmetric: bool = False) -> list[float]:
    """[tr(m^k) for k = 1..k_max] from the powers P_a = m^a, a <= ceil(k_max/2).

    tr(m^(2a)) is the sum of P_a * P_a^T and tr(m^(2a+1)) the sum of
    P_a * P_(a+1)^T, so this takes ceil(k_max/2) - 1 matrix products and
    keeps at most two powers besides m.  For a symmetric m (say a Gram
    matrix from a.T @ a, which is exactly symmetric) pass symmetric=True:
    the powers are symmetric too, and the sums become contiguous inner
    products instead of reads of one operand transposed.  Both are numpy
    loops, not BLAS, so the sums do not depend on the BLAS thread count.
    """
    inner = "ij,ij->" if symmetric else "ij,ji->"
    out = [float(np.trace(m))][:k_max]
    cur = m
    for k in range(2, k_max + 1):
        if k % 2:
            nxt = cur @ m
            out.append(float(np.einsum(inner, cur, nxt)))
            cur = nxt
        else:
            out.append(float(np.einsum(inner, cur, cur)))
    return out


def probe_forms(
    apply, n: int, k: int, probes: int, seed: int, *labels, adjoint=None
) -> np.ndarray:
    """Per-probe quadratic forms z^T A^r z for r = 1..k, shape (k, probes).

    apply maps a block of probe columns to B times it.  The probes z come
    in blocks of PROBE_BLOCK columns, block 0 drawn from
    stream(seed, *labels) and block b >= 1 from stream(seed, *labels, b);
    each block runs through all k moments before the next is drawn, so the
    memory does not grow with `probes`.  Without adjoint, A = B.  With adjoint, a map to B^T times a
    block, A = B^T B, and z^T A^r z = |x_r|^2 for x_0 = z and x_r = B x_{r-1}
    (r odd) or B^T x_{r-1} (r even): one application of B or B^T per form,
    not two.
    """
    out = np.empty((k, probes))
    for b, start in enumerate(range(0, probes, PROBE_BLOCK)):
        cols = slice(start, min(start + PROBE_BLOCK, probes))
        key = (*labels, b) if b else labels
        z = stream(seed, *key).standard_normal((n, cols.stop - start))
        v = z
        for r in range(k):
            if adjoint is None:
                v = apply(v)
                out[r, cols] = np.einsum("ip,ip->p", z, v)
            else:
                v = (adjoint if r % 2 else apply)(v)
                out[r, cols] = np.einsum("ip,ip->p", v, v)
    return out


def trace_moment(
    realization: Realization,
    word: MatrixWord,
    method: str = "auto",
    probes: int = HUTCHINSON_PROBES,
) -> tuple[float, float]:
    """Normalized trace (1/n) tr(word) with a standard error (see trace_probes)."""
    return spectral_moments(realization, word, 1, method, probes)[0]


def spectral_moments(
    realization: Realization,
    word: MatrixWord,
    k_max: int,
    method: str = "auto",
    probes: int = HUTCHINSON_PROBES,
) -> list[tuple[float, float]]:
    """[(1/n) tr(word^r) for r = 1..k_max] (see trace_probes, cap EXACT_CAP);
    word must be square (and should be symmetric to read as spectral moments).

    Exact moments are power traces of the dense word (word_apply) or, for
    a mirror word R^T R (MatrixWord.mirror_half), of the Gram matrix of R's
    kept block (word_block).  The probe forms of a mirror word apply only R
    or R^T, one per moment, on the probes of the whole word."""
    side = square_class(realization.program, word)
    if not side:
        return [(1.0, 0.0)] * k_max
    n = realization.dims[side]
    p = trace_probes(n, method, EXACT_CAP, probes)
    half = word.mirror_half()
    if p == 0 and half is None:
        return [(t / n, 0.0) for t in power_traces(word_apply(realization, word), k_max)]
    if p == 0:
        j = word_block(realization, half)
        return [(t / n, 0.0) for t in power_traces(j.T @ j, k_max, symmetric=True)]
    b = word if half is None else half
    forms = probe_forms(
        lambda v: word_apply(realization, b, v), n, k_max, p,
        realization.seed, "hutch", word.key(),
        adjoint=None if half is None else lambda v: word_apply(realization, b.T, v),
    )
    return [
        (float(np.mean(est)), float(np.std(est, ddof=1) / math.sqrt(p)))
        for est in forms / n
    ]


def eig_spectrum(realization: Realization, word: MatrixWord) -> np.ndarray:
    """Ascending eigenvalues of the dense symmetric word (side at most EXACT_CAP)."""
    square_class(realization.program, word)
    m = word_apply(realization, word)
    return np.linalg.eigvalsh(0.5 * (m + m.T))
