"""Textual surface syntax for programs and matrix words.

Line-oriented grammar (``#`` starts a comment):

    class a ratio 2.0
    matrix W : a x b var 1.0
    vector v : a
    vector one : a mean 1.0 var 0.0
    cov v w 0.5
    tie v w
    scalar th limit 0.0 rule u
    y  = matmul W v
    yt = matmul W^T v
    z  = nonlin x1 + x2 (y, yt)
    c  = moment x1 * x1 (v)
    s  = nonlin p1 * x1 (z ; th)

Expressions use input slots x1..xk and parameter slots p1..pl; scalar rules
are ratios of polynomials in u = 1/n.  ``print_program`` emits a canonical
form with ``parse_program(print_program(p)) == p``.

A word file (for alternating-product experiments) holds one factor per
line, ``mat W``, ``mat W^T`` or ``diag v1,v2 <expr>``, and ``parse_word``
reads it into one alternating word.  Blank lines separate the polynomials
of the product, ``+`` lines the monomials of one polynomial, and a change
of collection (the factor's ``collection()``) between lines starts a new
polynomial; a factor after a ``+`` line must keep the collection of the
factor before it.  Names are checked as in programs, by the same ``NAME^T``
rule.
"""

from __future__ import annotations

import re

from . import exprs
from .errors import ArityMismatch, ParseError
from .finite import DiagFactor, MatFactor, MatrixWord
from .freeness import AlternatingWord, WordPoly, alternating_word
from .program import (
    CovDecl,
    MatMul,
    MatrixDecl,
    Moment,
    Nonlin,
    Program,
    RatioDecl,
    ScalarDecl,
    ScalarRule,
    TieDecl,
    VectorDecl,
    build_program,
)

_NAME = re.compile(r"[A-Za-z_][A-Za-z0-9_]*$")


def _check_name(tok: str, line: int):
    if not _NAME.match(tok):
        raise ParseError(f"invalid name {tok!r}", line, 1)


def _matrix_ref(tok: str, line: int) -> tuple[str, bool]:
    """(name, transposed) of a ``NAME`` or ``NAME^T`` matrix reference."""
    name = tok.removesuffix("^T")
    _check_name(name, line)
    return name, name != tok


def parse_program(text: str) -> Program:
    """Parse DSL text into a validated Program."""
    decls = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        decls.append(_parse_line(line, lineno))
    return build_program(decls)


def _parse_line(line: str, lineno: int):
    toks = line.split()
    head = toks[0]
    if head == "class":
        if len(toks) != 4 or toks[2] != "ratio":
            raise ParseError("expected: class NAME ratio VALUE", lineno, 1)
        _check_name(toks[1], lineno)
        return _checked(RatioDecl, lineno, toks[1], _num(toks[3], lineno))
    if head == "matrix":
        # matrix NAME : ROWS x COLS var VALUE
        m = re.match(
            r"matrix\s+(\S+)\s*:\s*(\S+)\s+x\s+(\S+)\s+var\s+(\S+)$", line
        )
        if not m:
            raise ParseError("expected: matrix NAME : ROWS x COLS var VALUE", lineno, 1)
        for t in m.groups()[:3]:
            _check_name(t, lineno)
        return _checked(MatrixDecl, lineno, *m.groups()[:3], _num(m.group(4), lineno))
    if head == "vector":
        m = re.match(
            r"vector\s+(\S+)\s*:\s*(\S+?)(?:\s+mean\s+(\S+))?(?:\s+var\s+(\S+))?$",
            line,
        )
        if not m:
            raise ParseError(
                "expected: vector NAME : CLASS [mean VALUE] [var VALUE]", lineno, 1
            )
        name, cls, mean, var = m.groups()
        _check_name(name, lineno)
        _check_name(cls, lineno)
        return _checked(VectorDecl, lineno, name, cls, _num(mean, lineno) if mean else 0.0,
                        _num(var, lineno) if var else 1.0)
    if head == "cov":
        if len(toks) != 4:
            raise ParseError("expected: cov NAME NAME VALUE", lineno, 1)
        return CovDecl(toks[1], toks[2], _num(toks[3], lineno))
    if head == "tie":
        if len(toks) != 3:
            raise ParseError("expected: tie NAME NAME", lineno, 1)
        return TieDecl(toks[1], toks[2])
    if head == "scalar":
        m = re.match(r"scalar\s+(\S+)\s+limit\s+(\S+)(?:\s+rule\s+(.+))?$", line)
        if not m:
            raise ParseError("expected: scalar NAME limit VALUE [rule EXPR[/EXPR]]", lineno, 1)
        name, lim, rule_text = m.groups()
        _check_name(name, lineno)
        rule = _parse_rule(rule_text, lineno) if rule_text else None
        return _checked(ScalarDecl, lineno, name, _num(lim, lineno), rule)
    # instruction: NAME = kind ...
    if len(toks) >= 2 and toks[1] == "=":
        out = toks[0]
        _check_name(out, lineno)
        rest = line.split("=", 1)[1].strip()
        return _parse_instruction(out, rest, lineno)
    raise ParseError(f"unrecognized line {line!r}", lineno, 1)


def _checked(decl, lineno: int, *args):
    """decl(*args), its value check a ParseError at the line."""
    try:
        return decl(*args)
    except ValueError as e:
        raise ParseError(str(e), lineno, 1) from None


def _parse_instruction(out: str, rest: str, lineno: int):
    if not rest:
        raise ParseError("expected an instruction after '='", lineno, 1)
    kind = re.match(r"\w*", rest).group()  # the keyword, read as a whole word
    if kind == "matmul":
        toks = rest.split()
        if len(toks) != 3:
            raise ParseError("expected: NAME = matmul MATRIX[^T] VECTOR", lineno, 1)
        mat, transposed = _matrix_ref(toks[1], lineno)
        _check_name(toks[2], lineno)
        return MatMul(out, mat, transposed, toks[2])
    if kind in ("nonlin", "moment"):
        body = rest[len(kind):].strip()
        expr_text, args_text = _split_args(body, lineno)
        expr = exprs.parse_expr(expr_text, line=lineno)
        inputs, params = _parse_arg_list(args_text, lineno)
        cls = Nonlin if kind == "nonlin" else Moment
        return cls(out, expr, inputs, params)
    raise ParseError(f"unknown instruction {rest.split()[0]!r}", lineno, 1)


def _split_args(body: str, lineno: int) -> tuple[str, str]:
    """Split '<expr> (<args>)' at the final balanced parenthesis group."""
    if not body.endswith(")"):
        raise ParseError("instruction must end with an argument list (...)", lineno, len(body))
    depth = 0
    for i in range(len(body) - 1, -1, -1):
        if body[i] == ")":
            depth += 1
        elif body[i] == "(":
            depth -= 1
            if depth == 0:
                return body[:i].strip(), body[i + 1 : -1]
    raise ParseError("unbalanced parentheses in argument list", lineno, 1)


def _parse_arg_list(text: str, lineno: int) -> tuple[tuple[str, ...], tuple[str, ...]]:
    if ";" in text:
        vec_part, par_part = text.split(";", 1)
    else:
        vec_part, par_part = text, ""
    inputs = tuple(t.strip() for t in vec_part.split(",") if t.strip())
    params = tuple(t.strip() for t in par_part.split(",") if t.strip())
    for t in inputs + params:
        _check_name(t, lineno)
    if not inputs:
        raise ParseError("instruction needs at least one input vector", lineno, 1)
    return inputs, params


def _parse_rule(text: str, lineno: int) -> ScalarRule:
    # a ratio of polynomials in u = 1/n, written NUM or NUM / DEN
    depth = 0
    split_at = -1
    for i, ch in enumerate(text):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch == "/" and depth == 0:
            split_at = i
            break
    if split_at >= 0:
        num_text, den_text = text[:split_at], text[split_at + 1 :]
    else:
        num_text, den_text = text, None
    subst = lambda t: re.sub(r"\bu\b", "x1", t)
    num = exprs.parse_expr(subst(num_text), line=lineno)
    den = (
        exprs.parse_expr(subst(den_text), line=lineno) if den_text is not None else None
    )
    return ScalarRule(num, den)


def _num(tok: str, lineno: int) -> float:
    try:
        return float(tok)
    except ValueError:
        raise ParseError(f"expected a number, got {tok!r}", lineno, 1) from None


# ---------------------------------------------------------------------------
# Canonical printing
# ---------------------------------------------------------------------------


def print_program(program: Program) -> str:
    """Canonical text; parsing it back gives a structurally equal Program."""
    lines: list[str] = []
    for r in program.ratios:
        lines.append(f"class {r.dim} ratio {r.ratio!r}")
    for m in program.matrices:
        lines.append(f"matrix {m.name} : {m.rows} x {m.cols} var {m.sigma2!r}")
    for v in program.vectors:
        extra = ""
        if v.mean != 0.0:
            extra += f" mean {v.mean!r}"
        if v.var != 1.0:
            extra += f" var {v.var!r}"
        lines.append(f"vector {v.name} : {v.dim}{extra}")
    for c in program.covs:
        lines.append(f"cov {c.a} {c.b} {c.cov!r}")
    for t in program.ties:
        lines.append(f"tie {t.a} {t.b}")
    for s in program.scalars:
        rule = ""
        if s.rule is not None:
            rule = " rule " + _format_rule(s.rule)
        lines.append(f"scalar {s.name} limit {s.limit!r}{rule}")
    for ins in program.instructions:
        if isinstance(ins, MatMul):
            mat = ins.matrix + ("^T" if ins.transposed else "")
            lines.append(f"{ins.out} = matmul {mat} {ins.vin}")
        else:
            kind = "nonlin" if isinstance(ins, Nonlin) else "moment"
            args = ", ".join(ins.inputs)
            if ins.params:
                args += " ; " + ", ".join(ins.params)
            lines.append(
                f"{ins.out} = {kind} {exprs.format_expr(ins.expr)} ({args})"
            )
    return "\n".join(lines) + "\n"


def _format_rule(rule: ScalarRule) -> str:
    unsubst = lambda t: re.sub(r"\bx1\b", "u", t)
    num = unsubst(exprs.format_expr(rule.num))
    if rule.den is None:
        return num
    return f"{num} / {unsubst(exprs.format_expr(rule.den))}"


# ---------------------------------------------------------------------------
# Word files
# ---------------------------------------------------------------------------


def parse_word(text: str) -> AlternatingWord:
    """Parse a word file into its alternating word; every coefficient is 1."""
    groups = [[[]]]  # the polynomials, each a list of monomials, each a list of factors
    last_collection = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            groups.append([[]])
            last_collection = None
            continue
        if line == "+":
            groups[-1].append([])
            continue
        toks = line.split(None, 2)
        if toks[0] == "mat":
            if len(toks) != 2:
                raise ParseError("expected: mat NAME[^T]", lineno, 1)
            factor: MatFactor | DiagFactor = MatFactor(*_matrix_ref(toks[1], lineno))
        elif toks[0] == "diag":
            if len(toks) != 3:
                raise ParseError("expected: diag VECTORS EXPR", lineno, 1)
            vectors = tuple(t.strip() for t in toks[1].split(","))
            for v in vectors:
                _check_name(v, lineno)
            expr = exprs.parse_expr(toks[2], line=lineno)
            try:
                factor = DiagFactor(vectors, expr)
            except (ValueError, ArityMismatch) as e:
                raise ParseError(str(e), lineno, 1) from None
        else:
            raise ParseError(f"unknown word factor {toks[0]!r}", lineno, 1)
        if last_collection not in (None, factor.collection()):
            if not groups[-1][-1]:  # the first factor of a monomial after '+'
                raise ParseError("'+' joins monomials of one collection", lineno, 1)
            groups.append([[]])
        groups[-1][-1].append(factor)
        last_collection = factor.collection()
    polys = [WordPoly(tuple((1.0, MatrixWord(tuple(m))) for m in group if m))
             for group in groups if any(group)]
    return alternating_word(*polys)
