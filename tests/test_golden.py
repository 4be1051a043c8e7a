"""CLI stdout, byte for byte, against outputs recorded in tests/golden/.

Each file is the stdout of the listed command with VERSORLAB_SEED=42.  All
but one use systems with explicit catalog seeds (and none runs ``verify``),
so their digits do not depend on the machine's LAPACK.  The exceptions are
``classes H3 --kind pin``, the class table of the largest binary group here,
and ``induce H3``, which pins the seeded 2 000-pair sampled sweep: H3's
seeds are the Cholesky factor of a 3x3 Gram matrix, which is taken to print
the same to 12 decimals everywhere.  The three ``modular`` files pin
the versor route of a word, which goes one sandwich per letter: a 7-letter
and a 16-letter word, and ``tSt`` from 1.0001 + 0.0001i, which passes
within 1.5e-4 of tau = 0 and lands near -5001 + 5000i, where the 12 printed
decimals hold every digit of the float.  Regenerate a file only for an
intended output change.

``cli_digests.json`` pins many more commands by the sha256 of their stdout:
``group`` and ``classes`` of A1^3, A3, B3, H3 and D4 in every kind (json),
and pin in csv and markdown; ``induce`` on the four 3D systems; ``mckay``;
and ``roots`` on every catalog name, with I2 as I2(5) and I2(7), in json
and in csv, whose ``simple`` column marks the simple roots.  ``verify``
and ``modular`` are left out: their low digits rest on the platform's libm.
"""

import hashlib
import json
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
    "induce_H3.json": ["induce", "H3"],
    "modular_STtSTTS.json": ["modular", "STtSTTS", "0.3", "0.7"],
    "modular_near_zero.json": ["modular", "tSt", "1.0001", "0.0001"],
    "modular_word16.json": ["modular", "STTtSTSTtSTSSTtT", "0.3", "0.7"],
    "roots_F4.json": ["roots", "F4"],
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_stdout_matches_golden(name, monkeypatch, capsys):
    monkeypatch.setenv("VERSORLAB_SEED", "42")
    assert main(CASES[name]) == 0
    assert capsys.readouterr().out.encode() == (GOLDEN / name).read_bytes()


DIGESTS = json.loads((GOLDEN / "cli_digests.json").read_text())


@pytest.mark.parametrize("command", list(DIGESTS))
def test_cli_stdout_matches_digest(command, monkeypatch, capsys):
    monkeypatch.setenv("VERSORLAB_SEED", "42")
    assert main(command.split()) == 0
    out = capsys.readouterr().out.encode()
    assert hashlib.sha256(out).hexdigest() == DIGESTS[command]
