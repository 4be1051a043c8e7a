"""CLI stdout, byte for byte, against outputs recorded in tests/golden/.

Each file is the stdout of the listed command with VERSORLAB_SEED=42.  All
but one use systems with explicit catalog seeds (and none runs ``verify``),
so their digits do not depend on the machine's LAPACK.  The exceptions are
``classes H3 --kind pin``, the class table of the largest binary group here,
and ``induce H3``, which pins the seeded 2 000-pair sampled sweep: H3's
seeds are the Cholesky factor of a 3x3 Gram matrix, which is taken to print
the same to 12 decimals everywhere.  The ``modular`` files pin the versor
route of a word, which goes one integer matrix per letter in null
coordinates, in json, csv and markdown: a 7-letter and a 16-letter word,
and ``tSt`` from 1.0001 + 0.0001i, which passes within 1.5e-4 of tau = 0
and lands near -5001 + 5000i, where the 12 printed decimals hold every
digit of the float.
Regenerate a file only for an intended output change.

``cli_digests.json`` pins many more commands by the sha256 of their stdout:
``group`` and ``classes`` of A1^3, A3, B3, H3, D4 and F4 in every kind and
every format; ``induce`` on the four 3D systems and ``mckay``, in every format;
and ``roots`` on every catalog name, with I2 as I2(5) and I2(7), in every
format (the csv's ``simple`` column marks the simple roots).  ``modular`` is
pinned only by the files above.
``VERIFY_DIGESTS`` pins ``verify``'s stdout at six seeds; its residuals'
digits come from numpy's seeded generator and float products, with unit
draws normalized by ``math.fsum`` rather than BLAS, and were recorded with
numpy 2.4 on x86-64 Linux, when the sampled rows came to draw each block in
one generator call per distribution; CI reruns this file under forced OpenBLAS
kernels and numpy dispatch levels, which must not move them.  ``h4_digests.json`` pins ``group`` and
``classes`` of Spin(H4) in json, csv and markdown (H4's seeds, like H3's, are a
Cholesky factor); CI checks it in child processes, so this suite does not
pay for H4.  No subcommand takes ``--tolerance``, so no tolerance decides what
a listing prints: ``group H3``, ``classes H3 --kind pin``, ``roots`` and ``induce``
given one exit 2 with nothing on stdout.

``SINGLE_OBJECT_DIGEST`` pins no stdout but the float.hex of seeded one-object calls:
sandwiches in Cl(3,0), Cl(4,0) and Cl(3,1) with their versors' parity and ``norm_sign``,
``embed`` and ``apply`` (coords and the bytes of X) and the conformal constructors' M and v.
It was recorded before the versor checks moved to one ``tolist`` and library points to their
four floats, and reads the same under the forced kernels above; ``reflection``'s lines were
recorded again when it came to write its M from its parameters, not read it off the kernel.

``demo_02.txt`` is the stdout of ``demos/02_root_systems.py``, run in process:
its diagrams, Cartan matrix and axiom verdict, and H3's inner products to 6
decimals, plus 0.0, so that no -0.0 prints whatever sign a kernel leaves.
``demo_03.txt`` is the stdout of ``demos/03_tetrahedral_groups.py``, run in
process: A3's seeds are explicit, so its digits do not depend on LAPACK.
``demo_05.txt`` is the stdout of ``demos/05_ade_numerology.py``, which prints
only integers and labels.  ``demo_06.txt`` is the stdout of
``demos/06_conformal_modular.py``, run in process: its maps' and its words'
floats come from their matrices on null coordinates, through one letter step.
"""

import contextlib
import hashlib
import io
import json
import math
import os
import runpy
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from versorlab import cga2d, cli
from versorlab.algebra import Multivector, Signature, Versor, sandwich, vector
from versorlab.cli import main

GOLDEN = Path(__file__).parent / "golden"
DEMOS = Path(__file__).parent.parent / "demos"

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
    "modular_STtSTTS.csv": ["modular", "STtSTTS", "0.3", "0.7", "--format", "csv"],
    "modular_STtSTTS.json": ["modular", "STtSTTS", "0.3", "0.7"],
    "modular_STtSTTS.md": ["modular", "STtSTTS", "0.3", "0.7", "--format", "markdown"],
    "modular_near_zero.csv": ["modular", "tSt", "1.0001", "0.0001", "--format", "csv"],
    "modular_near_zero.json": ["modular", "tSt", "1.0001", "0.0001"],
    "modular_near_zero.md": ["modular", "tSt", "1.0001", "0.0001", "--format", "markdown"],
    "modular_word16.csv": ["modular", "STTtSTSTtSTSSTtT", "0.3", "0.7", "--format", "csv"],
    "modular_word16.json": ["modular", "STTtSTSTtSTSSTtT", "0.3", "0.7"],
    "modular_word16.md": ["modular", "STTtSTSTtSTSSTtT", "0.3", "0.7", "--format", "markdown"],
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


def test_one_parser_serves_every_call_in_a_process(monkeypatch, capsys):
    # cli parses with the one parser it built at import: runs in one process, usage
    # errors among them, each give main's stdout, stderr and exit code when run alone
    monkeypatch.setenv("VERSORLAB_SEED", "42")
    usage = (["roots", "A3", "--tolerance", "abc"], ["group", "A3", "--kind", "nope"])
    alone = {" ".join(argv): subprocess.run([sys.executable, "-m", "versorlab", *argv],
                                            capture_output=True, text=True, env=os.environ)
             for argv in usage}

    def rebuild():
        raise AssertionError("main built a second parser")

    monkeypatch.setattr(cli, "_build_parser", rebuild)
    for argv in (usage[0], ["roots", "A3"], ["group", "A3", "--kind", "pin", "--format", "csv"],
                 usage[1]):
        command, code = " ".join(argv), main(argv)
        out, err = capsys.readouterr()
        if command in alone:
            want = alone[command]
            assert (code, out, err) == (want.returncode, want.stdout, want.stderr) and code == 2
        else:
            assert (code, err) == (0, "")
            assert hashlib.sha256(out.encode()).hexdigest() == DIGESTS[command]


VERIFY_DIGESTS = {
    "42": "d3506edbaf52d1cfca423ee721eb9726504c0778028353c8f0c37734d0bff4f2",
    "7": "1ff4bece11292754b29d36523c93d82e8a8bb2608a6fc970ecc481223dbb5df0",
    "801": "3ca9ccf61c25c978cd3978404b61962115beac8e80092a24748b34ce7fb61a49",
    "1": "282fa9629c0a0dceca2070c41159a55bcc118c65ac82980df7ba595a6ac4cc27",
    "2": "1b152ee47eba1f38be41cd751b5a3e0cd7159b08fa41fe0030999e8030e889ba",
    "3": "2d6b3f3dc78b1e8e319c35833380b9ab2cd6676ed950b99d060878705187ca08",
}


@pytest.mark.parametrize("seed", list(VERIFY_DIGESTS))
def test_verify_stdout_matches_digest(seed, monkeypatch, capsys):
    # a fixed VERSORLAB_SEED gives byte-identical verify output
    monkeypatch.setenv("VERSORLAB_SEED", seed)
    assert main(["verify"]) == 0
    out = capsys.readouterr().out.encode()
    assert hashlib.sha256(out).hexdigest() == VERIFY_DIGESTS[seed]


SINGLE_OBJECT_DIGEST = "ffe3d10a95bdbb466a85a74e18c6fd8613ead5ba09684ec082d34985a4b32dfe"


def _single_object_floats() -> list:
    """float.hex of seeded one-object calls, one line each: ``sandwich`` in Cl(3,0), Cl(4,0) and
    Cl(3,1) by versors of 1 to 4 unit vectors, with the versor's parity, ``norm_sign`` and
    coefficients; ``embed`` and ``apply``, the points' coords and the bytes of their X; and the
    five parametrized conformal constructors' M and v.  The unit vectors are scaled in Python
    floats (``math.fsum``), so no BLAS call makes an input."""
    rng, lines = np.random.default_rng(4901), []
    hexes = lambda xs: ",".join(float.hex(float(x)) for x in xs)
    for sig in (Signature(3, 0), Signature(4, 0), Signature(3, 1)):
        signs = [1.0] * sig.p + [-1.0] * sig.q
        for i in range(120):
            vectors = []
            while len(vectors) < 1 + i % 4:
                c = rng.standard_normal(sig.dim).tolist()
                n2 = math.fsum(s * x * x for s, x in zip(signs, c))
                if abs(n2) > 0.25:
                    vectors.append(vector(sig, [x / math.sqrt(abs(n2)) for x in c]))
            V = Versor.from_vectors(vectors)
            image = sandwich(vector(sig, rng.standard_normal(sig.dim).tolist()), V)
            lines.append(f"{V.parity} {V.norm_sign} {hexes(V.mv.coeffs)} {hexes(image.coeffs)}")
    makers = {"translator": 2, "rotation": 1, "dilator": 1, "special_conformal": 2, "reflection": 2}
    for i in range(300):
        kind = sorted(makers)[i % 5]
        made = getattr(cga2d, kind)(*rng.uniform(-1.5, 1.5, makers[kind]).tolist())
        point = cga2d.embed(*rng.uniform(-2, 2, 2).tolist())
        image = made.apply(point)
        lines.append(" ".join([kind, hexes(x for row in made.M for x in row), hexes(made.v.mv.coeffs),
                               f"{made.v.parity} {made.v.norm_sign}", hexes(point.coords),
                               point.X.coeffs.tobytes().hex(), hexes(image.coords),
                               image.X.coeffs.tobytes().hex()]))
    return lines


def test_single_object_floats_match_digest():
    # one-object calls keep their floats, bit for bit: this digest was recorded before
    # the versor checks moved to one tolist and library points to their four floats, and
    # again for reflection's lines alone when its M came to be written from its parameters
    digest = hashlib.sha256("\n".join(_single_object_floats()).encode()).hexdigest()
    assert digest == SINGLE_OBJECT_DIGEST


def refusal(capsys, argv) -> str:
    """The message of ``main(argv)``'s one JSON line on stderr; it must exit 2, stdout empty."""
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and len(captured.err.splitlines()) == 1
    return json.loads(captured.err)["message"]


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("tolerance", ["0.4", "1e-3"])
@pytest.mark.parametrize("command", ["group H3 --kind spin", "classes H3 --kind pin"],
                         ids=["group", "classes"])
def test_listings_ignore_the_tolerance(command, tolerance, fmt, capsys):
    # no tolerance reaches a listing: every format keeps |c| > 1e-9, and the flag is refused
    assert "--tolerance" in refusal(capsys, [*command.split(), "--format", fmt, "--tolerance",
                                             tolerance])


@pytest.mark.parametrize("tolerance", ["0.1", "0.5", "0.99"])
@pytest.mark.parametrize("command", [f"roots {n}" for n in ("A3", "B3", "F4", "H4", "E8", "I2(7)")]
                         + [f"induce {n}" for n in ("A1^3", "A3", "B3", "H3")])
def test_roots_and_induce_ignore_the_tolerance(command, tolerance, capsys):
    # the diagram, cartan_integral and axioms_ok are read off the exact Coxeter matrix or
    # at DEFAULT_EPS, and the flag is refused before any closure
    assert "--tolerance" in refusal(capsys, [*command.split(), "--tolerance", tolerance])


def test_each_format_builds_only_what_it_prints(monkeypatch, capsys):
    # json never writes an element's text form, csv and markdown never its JSON form,
    # and no format goes through Multivector's own str or JSON form
    monkeypatch.setenv("VERSORLAB_SEED", "42")

    def refuse(*args, **kwargs):
        raise AssertionError("built for a format that does not print it")

    for writer, formats in (("_text_rows", [[]]), ("_json_rows", [["--format", "csv"],
                                                                   ["--format", "markdown"]])):
        with monkeypatch.context() as m:
            m.setattr(cli, writer, refuse)
            m.setattr(Multivector, "__str__", refuse)
            m.setattr(Multivector, "to_json_dict", refuse)
            for fmt in formats:
                for cmd in ("group", "classes"):
                    command = [cmd, "A3", "--kind", "pin", *fmt]
                    assert main(command) == 0
                    out = capsys.readouterr().out.encode()
                    assert hashlib.sha256(out).hexdigest() == DIGESTS[" ".join(command)]


def _demo_stdout(script: str) -> bytes:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        runpy.run_path(str(DEMOS / script), run_name="__main__")
    return out.getvalue().encode()


def test_demo_02_stdout_matches_golden():
    assert _demo_stdout("02_root_systems.py") == (GOLDEN / "demo_02.txt").read_bytes()


def test_demo_03_stdout_matches_golden():
    assert _demo_stdout("03_tetrahedral_groups.py") == (GOLDEN / "demo_03.txt").read_bytes()


def test_demo_05_stdout_matches_golden():
    assert _demo_stdout("05_ade_numerology.py") == (GOLDEN / "demo_05.txt").read_bytes()


def test_demo_06_stdout_matches_golden():
    assert _demo_stdout("06_conformal_modular.py") == (GOLDEN / "demo_06.txt").read_bytes()
