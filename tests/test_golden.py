"""CLI stdout, byte for byte, against outputs recorded in tests/golden/.

Each file is the stdout of the listed command with VERSORLAB_SEED=42.  Only
systems with explicit catalog seeds are used (no Cholesky-built seeds and no
``verify``), so the recorded digits do not depend on the machine's LAPACK.
Regenerate a file only for an intended output change.
"""

from pathlib import Path

import pytest

from versorlab.cli import main

GOLDEN = Path(__file__).parent / "golden"

CASES = {
    "classes_A3_pin.json": ["classes", "A3", "--kind", "pin"],
    "classes_B3_full.md": ["classes", "B3", "--kind", "full", "--format", "markdown"],
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
