import random

import pytest

from conftest import random_program
from infwidth import corpus, dsl
from infwidth import exprs as E
from infwidth.errors import DimClassConflict, ParseError, UndeclaredSymbol
from infwidth.finite import DiagFactor, MatFactor, MatrixWord
from infwidth.freeness import WordPoly, monomial
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
    ("matrix W : a x b var 0", "matrix W: sigma2 must be positive and finite"),
    ("vector v : c var -1", "vector v: variance must be >= 0 and finite"),
    ("class a ratio -2", "class a: ratio must be positive and finite"),
])
def test_non_finite_declaration_numbers_are_rejected(line, message):
    # a declaration's value check is a parse error at its line, as every
    # other DSL error is
    with pytest.raises(ParseError) as err:
        dsl.parse_program(line + "\n")
    assert str(err.value) == f"line 1, col 1: {message}"


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
    word = dsl.parse_word("mat W\nmat W^T\n\ndiag xv step(x1)\n\nmat W\n+\nmat W^T\n")
    w, wt = MatFactor("W"), MatFactor("W", True)
    assert [poly for _, poly in word.factors] == [
        monomial(MatrixWord((w, wt))),
        monomial(MatrixWord((DiagFactor(("xv",), E.step(E.x(0))),))),
        WordPoly(((1.0, MatrixWord((w,))), (1.0, MatrixWord((wt,))))),
    ]
    # collection change without a blank line still starts a new polynomial
    assert len(dsl.parse_word("mat W\ndiag xv step(x1)\n")) == 2
    # a '+' joins monomials of one collection: the sum W + D is no
    # alternating product (W)(D)
    with pytest.raises(ParseError, match=r"^line 3, col 1: '\+' joins monomials of one "):
        dsl.parse_word("mat W\n+\ndiag xv step(x1)\n")
    # two images of one vector are two collections; W and W^T are one
    assert len(dsl.parse_word("diag xv step(x1)\ndiag xv step(x1) - 0.5\n")) == 2
    assert dsl.parse_word("mat W\nmat W^T\n").factors == word.factors[:1]
    assert dsl.parse_word("# only a comment\n\n+\n").factors == ()


@pytest.mark.parametrize("line, name", [
    ("mat W^T^T", "W^T"),
    ("mat 1W", "1W"),
    ("diag xv, step(x1)", ""),
])
def test_word_file_names_are_checked(line, name):
    # as in a program, a bad name is a parse error at its line, not an
    # undeclared symbol at its first use
    with pytest.raises(ParseError) as err:
        dsl.parse_word(f"mat W\n\n{line}\n")
    assert (err.value.line, err.value.col) == (3, 1)
    assert str(err.value) == f"line 3, col 1: invalid name {name!r}"


@pytest.mark.parametrize("parse, line, col, message", [
    (dsl.parse_program, "class 1c ratio 2.0", 1, "invalid name '1c'"),
    (dsl.parse_program, "class c ratio", 1, "expected: class NAME ratio VALUE"),
    (dsl.parse_program, "class c ratio two", 1, "expected a number, got 'two'"),
    (dsl.parse_program, "matrix W : c var 1.0", 1,
     "expected: matrix NAME : ROWS x COLS var VALUE"),
    (dsl.parse_program, "vector w", 1, "expected: vector NAME : CLASS [mean VALUE] [var VALUE]"),
    (dsl.parse_program, "cov v w", 1, "expected: cov NAME NAME VALUE"),
    (dsl.parse_program, "tie v", 1, "expected: tie NAME NAME"),
    (dsl.parse_program, "scalar th 0.0", 1,
     "expected: scalar NAME limit VALUE [rule EXPR[/EXPR]]"),
    # a bar inside parentheses is not the ratio's bar, so the numerator
    # holds it, and expressions have no division
    (dsl.parse_program, "scalar th limit 0.0 rule (u / 2.0)", 5, "expected ')'"),
    (dsl.parse_program, "hello world", 1, "unrecognized line 'hello world'"),
    (dsl.parse_program, "y = apply W v", 1, "unknown instruction 'apply'"),
    # an instruction keyword is a whole word, not a prefix
    (dsl.parse_program, "y = matmulX W v", 1, "unknown instruction 'matmulX'"),
    (dsl.parse_program, "y = nonlinear x1 (v)", 1, "unknown instruction 'nonlinear'"),
    (dsl.parse_program, "y =", 1, "expected an instruction after '='"),
    (dsl.parse_program, "z = nonlin x1 + 1.0", 8,
     "instruction must end with an argument list (...)"),
    (dsl.parse_program, "z = nonlin x1 + 1.0 v)", 1, "unbalanced parentheses in argument list"),
    (dsl.parse_program, "z = nonlin 1.0 ()", 1, "instruction needs at least one input vector"),
    # the matrix is checked before the input vector
    (dsl.parse_program, "y = matmul W^T^T 1v", 1, "invalid name 'W^T'"),
    # clamp's bounds are checked at the clamp's column in its expression
    (dsl.parse_program, "y = nonlin clamp(x1, 2.0, 1.0) (v)", 1, "clamp needs lo <= hi"),
    (dsl.parse_program, "y = nonlin x1 + clamp(x1, 2.0, 1.0) (v)", 6, "clamp needs lo <= hi"),
    (dsl.parse_word, "mat W W", 1, "expected: mat NAME[^T]"),
    (dsl.parse_word, "mat", 1, "expected: mat NAME[^T]"),
    (dsl.parse_word, "diag v", 1, "expected: diag VECTORS EXPR"),
    (dsl.parse_word, "diag xv x1", 1, "diagonal factors require a bounded expression"),
    (dsl.parse_word, "diag xv step(x2)", 1, "diagonal expression arity exceeds vector count"),
    (dsl.parse_word, "diag xv clamp(x1, 1.0, -1.0)", 1, "clamp needs lo <= hi"),
    (dsl.parse_word, "perm W", 1, "unknown word factor 'perm'"),
    (dsl.parse_word, "diag xv step(x1)\n+\nmat W", 1, "'+' joins monomials of one collection"),
])
def test_parse_errors_name_line_and_column(parse, line, col, message):
    # the bad line is the last line of the row, after two lines
    with pytest.raises(ParseError) as err:
        parse(f"# two lines before the row\n\n{line}\n")
    bad = 3 + line.count("\n")
    assert (err.value.line, err.value.col) == (bad, col)
    assert str(err.value) == f"line {bad}, col {col}: {message}"


def test_an_instruction_keyword_may_touch_its_expression():
    prog = dsl.parse_program("vector x : c\ny = nonlin(x1) (x)\n")
    assert prog.instructions[0].expr == E.x(0)
