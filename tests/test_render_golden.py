"""The text and LaTeX output of `reduce` and `closed-form`, pinned byte for
byte against tests/golden/<system>-<command>-<format>.txt."""

from pathlib import Path

import pytest

from conftest import EX1, EX2
from dtpower.cli import main

GOLDEN = Path(__file__).parent / "golden"

# MIXED3D has negative and fractional coefficients, squares and mixed
# monomials in its pieces, and a negative reduced term.
SYSTEMS = {
    "ex1": EX1,
    "ex2": EX2,
    "mixed3d": ((1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, 2, 1), (1, 0, 0)),
}


@pytest.mark.parametrize("fmt", ["text", "latex"])
@pytest.mark.parametrize("command", ["reduce", "closed-form"])
@pytest.mark.parametrize("name", sorted(SYSTEMS))
def test_output_matches_golden(name, command, fmt, tmp_path, capsys):
    spec = tmp_path / f"{name}.txt"
    spec.write_text("".join(" ".join(map(str, v)) + "\n" for v in SYSTEMS[name]))
    assert main([command, "--format", fmt, str(spec)]) == 0
    golden = GOLDEN / f"{name}-{command}-{fmt}.txt"
    assert capsys.readouterr().out == golden.read_text()
