"""Packaging metadata: the console script and the bundled data files.

The suite imports the package from ``src/``, so these checks read
``pyproject.toml`` directly instead of installing the distribution.
"""

import fnmatch
import importlib
from pathlib import Path

import pytest

from infwidth import corpus

tomllib = pytest.importorskip("tomllib")

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def project():
    with open(ROOT / "pyproject.toml", "rb") as f:
        return tomllib.load(f)


def test_console_script_resolves_to_cli_main(project):
    target = project["project"]["scripts"]["infwidth"]
    assert target == "infwidth.cli:main"
    module, attr = target.split(":")
    assert callable(getattr(importlib.import_module(module), attr))


def test_bundled_files_exist_and_are_package_data(project):
    globs = project["tool"]["setuptools"]["package-data"]["infwidth"]
    package = ROOT / "src" / "infwidth"
    files = [f"programs/{n}.ntp" for n in corpus.PROGRAM_NAMES]
    files += [f"words/{n}.word" for n in corpus.WORD_NAMES]
    for rel in files:
        assert (package / rel).is_file(), rel
        assert any(fnmatch.fnmatch(rel, g) for g in globs), rel
