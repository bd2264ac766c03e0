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


@pytest.mark.parametrize("size", [[], ["--m", "398", "--n", "398"]])
def test_readme_lemma_digits(capsys, size):
    # the README quotes what these two lemma lines print, to the last digit
    assert urv.cli.main(["lemma", "--matrix", "slow", *size, "--ell", "60", "--seed", "3"]) == 0
    digits = capsys.readouterr().out.split(": ")[1].strip()
    assert f"prints {digits} under both" in " ".join(README.read_text().split())


@pytest.mark.parametrize("index", range(len(BLOCKS)))
def test_readme_python_block_runs(index):
    exec(compile(BLOCKS[index], f"README.md python block {index}", "exec"), {})
