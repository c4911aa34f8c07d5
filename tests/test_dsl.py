import random

import pytest

from conftest import random_program
from infwidth import corpus, dsl
from infwidth import exprs as E
from infwidth.errors import DimClassConflict, ParseError, UndeclaredSymbol
from infwidth.finite import DiagFactor, MatFactor
from infwidth.freeness import word_from_groups
from infwidth.program import MatMul, Moment, Nonlin, Program, TieDecl

SEMICIRCLE_STEP = """
matrix W : c x c var 0.5
vector z0 : c
x1 = matmul W z0
y1 = matmul W^T z0
z1 = nonlin x1 + x2 (x1, y1)
"""


def test_parse_semicircle_step():
    prog = dsl.parse_program(SEMICIRCLE_STEP)
    assert len(prog.matrices) == 1 and len(prog.vectors) == 1
    assert [type(i) for i in prog.instructions] == [MatMul, MatMul, Nonlin]
    assert prog.instructions[1].transposed
    assert prog.instructions[2].expr == E.add(E.x(0), E.x(1))


def test_empty_source_is_empty_program():
    assert dsl.parse_program("") == Program()
    assert dsl.parse_program("# only a comment\n\n") == Program()


def test_missing_operand_is_syntax_error():
    with pytest.raises(ParseError) as err:
        dsl.parse_program("matrix W : c x c var 1.0\nvector v : c\nx = matmul W\n")
    assert err.value.line == 3


def test_error_positions_reported():
    with pytest.raises(ParseError) as err:
        dsl.parse_program("vector v : c\nz = nonlin x1 + (v)\n")
    assert err.value.line == 2


def test_build_errors_surface_from_source():
    with pytest.raises(DimClassConflict):
        dsl.parse_program(
            "matrix W : a x b var 1.0\nvector v : a\nx = matmul W v\n"
        )


@pytest.mark.parametrize("line, message", [
    ("vector v : c mean nan", "vector v: mean must be finite"),
    ("vector v : c mean inf", "vector v: mean must be finite"),
    ("vector v : c mean -inf", "vector v: mean must be finite"),
    ("vector v : c var inf", "vector v: variance must be >= 0 and finite"),
    ("vector v : c var nan", "vector v: variance must be >= 0 and finite"),
    ("scalar th limit nan", "scalar th: limit must be finite"),
    ("scalar th limit inf", "scalar th: limit must be finite"),
    ("matrix W : c x c var inf", "matrix W: sigma2 must be positive and finite"),
    ("class c ratio inf", "class c: ratio must be positive and finite"),
])
def test_non_finite_declaration_numbers_are_rejected(line, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        dsl.parse_program(line + "\n")


def test_scalar_rule_roundtrip():
    text = "scalar th limit 0.0 rule u / (1.0 + u)\nvector v : c\n"
    prog = dsl.parse_program(text)
    assert prog.scalars[0].rule.value(4) == pytest.approx(0.25 / 1.25)
    again = dsl.parse_program(dsl.print_program(prog))
    assert again == prog


def test_tie_merges_classes_and_roundtrips():
    prog = dsl.parse_program("vector v : a\nvector w : b\ntie v w\n")
    assert prog.ties == (TieDecl("v", "w"),)
    assert prog.cdc_of_class == {"a": "a", "b": "a"}
    text = dsl.print_program(prog)
    assert "tie v w" in text.splitlines()
    assert dsl.parse_program(text) == prog


def test_tie_of_an_unknown_vector_is_undeclared():
    with pytest.raises(UndeclaredSymbol, match="tie references unknown vector 'v' or 'q'"):
        dsl.parse_program("vector v : a\ntie v q\n")


def test_numbers_with_exponents_in_expressions_and_rules():
    text = (
        "scalar th limit 1e-3 rule 1e-3 + 2.5E+2 * u\n"
        "vector v : c\n"
        "z = nonlin 2.5E+2 * x1 - 1e-3 (v)\n"
    )
    prog = dsl.parse_program(text)
    assert prog.scalars[0].limit == 1e-3
    assert prog.scalars[0].rule.value(4) == 1e-3 + 250.0 / 4
    assert prog.instructions[0].expr == E.sub(E.mul(E.const(250.0), E.x(0)), E.const(1e-3))
    assert dsl.parse_program(dsl.print_program(prog)) == prog


def test_moment_and_params_roundtrip():
    text = (
        "vector v : c\n"
        "scalar th limit 0.5\n"
        "m = moment x1^2 (v)\n"
        "z = nonlin p1 * x1 - p2 (v ; th, m)\n"
    )
    prog = dsl.parse_program(text)
    assert isinstance(prog.instructions[0], Moment)
    assert prog.instructions[1].params == ("th", "m")
    assert dsl.parse_program(dsl.print_program(prog)) == prog


def test_whitespace_perturbation_same_canonical_form():
    messy = SEMICIRCLE_STEP.replace(" = ", "   =  ").replace(" : ", "  :   ")
    messy = "\n\n" + messy.replace("x1 + x2", "x1   +   x2") + "\n\n"
    assert dsl.print_program(dsl.parse_program(messy)) == dsl.print_program(
        dsl.parse_program(SEMICIRCLE_STEP)
    )


def test_renamed_symbols_print_verbatim():
    text = SEMICIRCLE_STEP.replace("W", "Mat").replace("z0", "start")
    prog = dsl.parse_program(text)
    out = dsl.print_program(prog)
    assert "Mat" in out and "start" in out and "W " not in out


def test_bundled_corpus_roundtrip():
    for name in corpus.PROGRAM_NAMES:
        prog = corpus.load_program(name)
        assert dsl.parse_program(dsl.print_program(prog)) == prog


def test_fuzz_corpus_roundtrip_50():
    rng = random.Random(2024)
    for _ in range(50):
        prog = random_program(rng)
        text = dsl.print_program(prog)
        assert dsl.parse_program(text) == prog, text


def test_word_file_parsing_groups_and_sums():
    groups = dsl.parse_word_factors(
        "mat W\nmat W^T\n\ndiag xv step(x1)\n\nmat W\n+\nmat W^T\n"
    )
    assert len(groups) == 3
    assert groups[0] == [[MatFactor("W"), MatFactor("W", True)]]
    assert groups[1] == [[DiagFactor(("xv",), E.step(E.x(0)))]]
    assert groups[2] == [[MatFactor("W")], [MatFactor("W", True)]]
    # collection change without a blank line still starts a new group
    auto = dsl.parse_word_factors("mat W\ndiag xv step(x1)\n")
    assert len(auto) == 2
    # two images of one vector are two collections; W and W^T are one
    diags = dsl.parse_word_factors("diag xv step(x1)\ndiag xv step(x1) - 0.5\n")
    assert len(diags) == 2
    assert dsl.parse_word_factors("mat W\nmat W^T\n") == groups[:1]
    for parsed in (groups, auto, diags):
        assert len(word_from_groups(parsed)) == len(parsed)  # no NotAlternating
