import itertools
import random

import numpy as np
import pytest

from conftest import random_program
from infwidth import exprs as E
from infwidth.errors import (
    ArityMismatch,
    DimClassConflict,
    DuplicateSymbol,
    NonPSDCovariance,
    UndeclaredSymbol,
)
from infwidth.finite import instantiate
from infwidth.limits import build_replicated
from infwidth.program import (
    CovDecl,
    MatMul,
    MatrixDecl,
    Nonlin,
    Program,
    RatioDecl,
    ScalarDecl,
    ScalarRule,
    TieDecl,
    VectorDecl,
    build_program,
    compute_cdc,
)


def add2():
    return E.add(E.x(0), E.x(1))


def test_semicircle_step_program_single_cdc():
    prog = build_program(
        [
            MatrixDecl("W", "c", "c", 0.5),
            VectorDecl("v", "c"),
            MatMul("x", "W", False, "v"),
            MatMul("y", "W", True, "v"),
            Nonlin("z", add2(), ("x", "y")),
        ]
    )
    assert len(compute_cdc(prog)) == 1


def test_empty_program_is_valid():
    prog = build_program([])
    assert prog == Program()
    assert compute_cdc(prog) == {}


def test_matmul_wrong_class_conflicts():
    with pytest.raises(DimClassConflict):
        build_program(
            [
                MatrixDecl("W", "a", "b", 1.0),
                VectorDecl("v", "a"),
                MatMul("x", "W", False, "v"),  # Wv needs input in class b
            ]
        )


def _mlp(ties: bool, layers: int = 3):
    decls = [VectorDecl("h1", "l1")]
    for l in range(2, layers + 1):
        decls.append(MatrixDecl(f"W{l}", f"l{l}", f"l{l-1}", 1.0))
    for l in range(1, layers):
        decls.append(Nonlin(f"x{l}", E.relu(E.x(0)), (f"h{l}",)))
        decls.append(MatMul(f"h{l+1}", f"W{l+1}", False, f"x{l}"))
    if ties:
        decls += [TieDecl("h1", f"h{l}") for l in range(2, layers + 1)]
    return build_program(decls)


def test_cdc_mlp_distinct_layers():
    prog = _mlp(ties=False)
    parts = compute_cdc(prog)
    assert len(parts) == 3
    assert {frozenset(p) for p in parts.values()} == {
        frozenset({"h1", "x1"}),
        frozenset({"h2", "x2"}),
        frozenset({"h3"}),
    }


def test_cdc_mlp_with_ties_single_class():
    assert len(compute_cdc(_mlp(ties=True))) == 1


@pytest.mark.parametrize("ties", list(itertools.permutations(
    [TieDecl("vd", "vc"), TieDecl("vc", "ve"), TieDecl("ve", "vb")])))
def test_tie_chain_maps_every_class_to_its_smallest_symbol(ties):
    # three ties chain d, c, e and b in any order; a is untied and keeps
    # itself, though it is smaller than the chain's representative
    vectors = [VectorDecl(f"v{c}", c) for c in "dceba"]
    prog = build_program([*vectors, *ties])
    assert list(prog.cdc_of_class.items()) == [
        ("d", "b"), ("c", "b"), ("e", "b"), ("b", "b"), ("a", "a")]


def test_self_tie_is_a_no_op():
    vectors = [VectorDecl("v", "b"), VectorDecl("w", "a")]
    prog = build_program([*vectors, TieDecl("v", "v")])
    assert list(prog.cdc_of_class.items()) == [("b", "b"), ("a", "a")]


def test_cdc_square_matrix_single_class():
    prog = build_program(
        [
            MatrixDecl("W", "c", "c", 1.0),
            VectorDecl("v", "c"),
            MatMul("x", "W", False, "v"),
            MatMul("y", "W", True, "x"),
        ]
    )
    assert len(compute_cdc(prog)) == 1


def test_cdc_idempotent_and_order_independent():
    base = [
        RatioDecl("b", 2.0),
        MatrixDecl("W", "a", "b", 1.0),
        VectorDecl("v", "b"),
        VectorDecl("w", "a"),
        TieDecl("v", "q"),
        MatMul("x", "W", False, "v"),
        Nonlin("q", E.tanh(E.x(0)), ("w",)),
    ]
    # ties may reference later vectors; validation happens on the closure
    prog1 = build_program(base)
    assert compute_cdc(prog1) == compute_cdc(prog1)
    # permute declaration blocks (keeping instruction order valid)
    perm = [base[1], base[0], base[3], base[2], base[5], base[6], base[4]]
    prog2 = build_program(perm)
    assert compute_cdc(prog1) == compute_cdc(prog2)


def test_tie_merges_ratio_conflict():
    with pytest.raises(DimClassConflict):
        build_program(
            [
                RatioDecl("a", 1.0),
                RatioDecl("b", 2.0),
                VectorDecl("v", "a"),
                VectorDecl("w", "b"),
                TieDecl("v", "w"),
            ]
        )


def test_duplicate_symbol():
    with pytest.raises(DuplicateSymbol):
        build_program([VectorDecl("v", "a"), VectorDecl("v", "a")])


def test_use_before_definition():
    # initial declarations are hoisted (they are the sampling setup), but a
    # derived vector must be produced before any instruction consumes it
    with pytest.raises(UndeclaredSymbol):
        build_program(
            [
                MatrixDecl("W", "a", "a", 1.0),
                VectorDecl("v", "a"),
                MatMul("x", "W", False, "q"),
                Nonlin("q", E.tanh(E.x(0)), ("v",)),
            ]
        )
    with pytest.raises(UndeclaredSymbol):
        build_program([VectorDecl("v", "a"), Nonlin("z", E.x(0), ("v",), ("th",))])


def test_nonlin_arity_checked():
    with pytest.raises(ArityMismatch):
        build_program(
            [VectorDecl("v", "a"), Nonlin("z", E.add(E.x(0), E.x(1)), ("v",))]
        )


def test_nonlin_inputs_must_share_class():
    with pytest.raises(DimClassConflict):
        build_program(
            [
                VectorDecl("v", "a"),
                VectorDecl("w", "b"),
                Nonlin("z", add2(), ("v", "w")),
            ]
        )


def test_cov_requires_same_class():
    with pytest.raises(DimClassConflict):
        build_program(
            [VectorDecl("v", "a"), VectorDecl("w", "b"), CovDecl("v", "w", 0.5)]
        )


@pytest.mark.parametrize("first, second", [(("v", "w"), ("w", "v")), (("v", "w"), ("v", "w"))])
def test_a_repeated_cov_pair_is_a_duplicate(first, second):
    # the second declaration used to replace the first silently
    a, b = second
    with pytest.raises(DuplicateSymbol, match=rf"^cov of '{a}' and '{b}' declared twice$"):
        build_program([VectorDecl("v", "a"), VectorDecl("w", "a"),
                       CovDecl(*first, 0.5), CovDecl(*second, 0.9)])


def test_a_cov_of_a_vector_with_itself_points_to_its_var():
    # cov v v used to override v's declared variance silently
    with pytest.raises(DuplicateSymbol, match=r"^cov v v: .*'vector v : a var VALUE'$"):
        build_program([VectorDecl("v", "a", var=1.0), CovDecl("v", "v", 2.0)])


@pytest.mark.parametrize("decls, error, message", [
    ([MatMul("y", "W", False, "v")], UndeclaredSymbol, "matrix 'W' not declared"),
    ([Nonlin("z", E.x(0), ("q",))], UndeclaredSymbol, "vector 'q' used before definition"),
    ([ScalarDecl("th", 0.5), Nonlin("z", E.mul(E.p(0), E.p(1)), ("v",), ("th",))],
     ArityMismatch, "'z': expression needs 2 parameters, got 1"),
    ([CovDecl("v", "q", 0.5)], UndeclaredSymbol,
     "cov references unknown initial vector: CovDecl(a='v', b='q', cov=0.5)"),
])
def test_build_errors_name_the_symbol(decls, error, message):
    with pytest.raises(error) as err:
        build_program([VectorDecl("v", "a"), *decls])
    assert type(err.value) is error
    assert str(err.value) == message


def test_init_block_psd_repair_accepts_near_psd():
    # correlation exactly 1 with a tiny negative eigenvalue from rounding
    prog = build_program(
        [
            VectorDecl("v", "a"),
            VectorDecl("w", "a"),
            CovDecl("v", "w", 1.0 + 1e-14),
        ]
    )
    names, mean, factor = prog.init_blocks[prog.cdc("v")]
    assert set(names) == {"v", "w"}


def test_init_block_rejects_far_from_psd():
    with pytest.raises(ValueError):
        build_program(
            [VectorDecl("v", "a"), VectorDecl("w", "a"), CovDecl("v", "w", 2.0)]
        )


@pytest.mark.parametrize("cov", [2.0, float("nan")])
def test_non_psd_covariance_names_the_vectors_and_class(cov):
    with pytest.raises(NonPSDCovariance, match=r"^initial covariance of v, w in class 'a': "):
        build_program(
            [VectorDecl("v", "a"), VectorDecl("u", "b"), VectorDecl("w", "a"),
             CovDecl("v", "w", cov)]
        )


def test_init_blocks_factor_each_class_once_and_sampling_does_not_refactor(monkeypatch):
    prog = build_program(
        [
            MatrixDecl("W", "a", "a", 1.0),
            VectorDecl("v", "a", mean=1.0, var=2),
            VectorDecl("w", "a", var=0.5),
            CovDecl("v", "w", 0.25),
            VectorDecl("s", "b", var=4),
            VectorDecl("t", "b", var=0.25),
            MatMul("x", "W", False, "v"),
        ]
    )
    assert list(prog.init_blocks) == ["a", "b"]
    names, mean, factor = prog.init_blocks["a"]
    assert names == ("v", "w") and mean.tolist() == [1.0, 0.0]
    assert np.abs(factor @ factor.T - [[2.0, 0.25], [0.25, 0.5]]).max() <= 1e-12
    _, _, diag = prog.init_blocks["b"]
    assert np.array_equal(diag @ diag.T, np.diag([4.0, 0.25]))
    assert not (mean.flags.writeable or factor.flags.writeable)

    def no_eigh(*args, **kwargs):
        raise AssertionError("eigh called while sampling")

    monkeypatch.setattr(np.linalg, "eigh", no_eigh)
    instantiate(prog, {"a": 8, "b": 8}, seed=0)
    build_replicated(prog, n_samples=64, seed=0, replicas=2)


def test_scalar_rule_limit_validation():
    # u/(1+u) -> 0: consistent
    rule = ScalarRule(E.x(0), E.add(E.const(1.0), E.x(0)))
    prog = build_program([ScalarDecl("th", 0.0, rule)])
    assert prog.scalars[0].rule.value(10) == pytest.approx((0.1) / 1.1)
    # declared limit inconsistent with the rule
    with pytest.raises(ValueError):
        build_program([ScalarDecl("th", 1.0, rule)])


def test_matrix_ratio():
    prog = build_program(
        [
            RatioDecl("m", 2.0),
            MatrixDecl("A", "m", "n", 1.0),
            VectorDecl("v", "m"),
            MatMul("u", "A", True, "v"),
        ]
    )
    assert prog.matrix_ratio("A") == pytest.approx(2.0)
    assert prog.matrix_ratio("A", transposed=True) == pytest.approx(0.5)


def test_random_programs_build_and_roundtrip_cdc():
    rng = random.Random(11)
    for _ in range(30):
        prog = random_program(rng)
        parts = compute_cdc(prog)
        names = {n for group in parts.values() for n in group}
        assert names == set(prog.vector_names)
