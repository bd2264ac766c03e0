"""The README's Python examples run against the current API."""

import re
from pathlib import Path

import pytest

import urv.cli

README = Path(__file__).resolve().parents[1] / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```$", README.read_text(), re.M | re.S)


def test_readme_has_python_blocks():
    assert BLOCKS


def test_readme_matrix_flags_from_table():
    # the README quotes the --matrix help, which urv.matrices.KINDS generates
    assert f"--matrix {urv.cli._matrix_help()}\n" in README.read_text()


@pytest.mark.parametrize("index", range(len(BLOCKS)))
def test_readme_python_block_runs(index):
    exec(compile(BLOCKS[index], f"README.md python block {index}", "exec"), {})
