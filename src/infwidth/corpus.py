"""Bundled example programs, alternating words, and verification test pairs."""

from __future__ import annotations

from importlib import resources

from . import dsl
from .freeness import AlternatingWord
from .program import Program

PROGRAM_NAMES = (
    "semicircle",
    "mp_half",
    "mp_one",
    "mp_two",
    "atav",
    "giabreak",
    "fipbase",
)

WORD_NAMES = ("word_a", "word_b", "negative")

# test pairs for the consistency sweep: program -> [(expr text, vectors)]
VERIFY_TESTS: dict[str, list[tuple[str, list[str]]]] = {
    "semicircle": [
        ("x1 * x2", ["z0", "z1"]),
        ("x1 * x2", ["z0", "z2"]),
        ("x1 * x2", ["z0", "z4"]),
        ("x1 * x2", ["z0", "z6"]),
    ],
    "mp_half": [
        ("x1 * x2", ["v0", "v1"]),
        ("x1 * x2", ["v0", "v2"]),
        ("x1 * x2", ["v0", "v3"]),
        ("x1 * x2", ["v0", "v4"]),
    ],
    "mp_one": [
        ("x1 * x2", ["v0", "v2"]),
        ("x1 * x2", ["v0", "v4"]),
    ],
    "mp_two": [
        ("x1 * x2", ["v0", "v2"]),
        ("x1 * x2", ["v0", "v4"]),
    ],
    "atav": [
        ("x1 * x2", ["v", "x"]),
        ("x1^2", ["x"]),
    ],
    "giabreak": [
        ("x1", ["dx1"]),
        ("x1^2", ["h2"]),
    ],
}


def load_program(name: str) -> Program:
    if name not in PROGRAM_NAMES:
        raise KeyError(f"no bundled program {name!r}; have {PROGRAM_NAMES}")
    text = resources.files("infwidth").joinpath(f"programs/{name}.ntp").read_text()
    return dsl.parse_program(text)


def load_word(name: str) -> AlternatingWord:
    if name not in WORD_NAMES:
        raise KeyError(f"no bundled word {name!r}; have {WORD_NAMES}")
    text = resources.files("infwidth").joinpath(f"words/{name}.word").read_text()
    return dsl.parse_word(text)
