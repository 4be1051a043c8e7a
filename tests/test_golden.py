"""CLI stdout, byte for byte, against outputs recorded in tests/golden/.

Each file is the stdout of the listed command with VERSORLAB_SEED=42.  All
but one use systems with explicit catalog seeds (and none runs ``verify``),
so their digits do not depend on the machine's LAPACK.  The exception is
``classes H3 --kind pin``, the class table of the largest binary group here:
H3's seeds are the Cholesky factor of a 3x3 Gram matrix, which is taken to
print the same to 12 decimals everywhere.  Regenerate a file only for an
intended output change.
"""

from pathlib import Path

import pytest

from versorlab.cli import main

GOLDEN = Path(__file__).parent / "golden"

CASES = {
    "classes_A3_chiral.json": ["classes", "A3", "--kind", "chiral"],
    "classes_A3_pin.json": ["classes", "A3", "--kind", "pin"],
    "classes_B3_full.md": ["classes", "B3", "--kind", "full", "--format", "markdown"],
    "classes_D4_full.md": ["classes", "D4", "--kind", "full", "--format", "markdown"],
    "classes_H3_pin.json": ["classes", "H3", "--kind", "pin"],
    "group_D4_spin.csv": ["group", "D4", "--kind", "spin", "--format", "csv"],
    "induce_A3.json": ["induce", "A3"],
    "induce_B3.json": ["induce", "B3"],
    "roots_F4.json": ["roots", "F4"],
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_stdout_matches_golden(name, monkeypatch, capsys):
    monkeypatch.setenv("VERSORLAB_SEED", "42")
    assert main(CASES[name]) == 0
    assert capsys.readouterr().out.encode() == (GOLDEN / name).read_bytes()
