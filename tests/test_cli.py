"""End-to-end tests for the versorlab command-line interface."""

import contextlib
import io
import json
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from versorlab import verify
from versorlab.algebra import DEFAULT_EPS
from versorlab.cga2d import mobius_oracle, word_report
from versorlab.cli import _clean, main
from versorlab.errors import SymmetrySweepFailure, VersorlabError
from versorlab.verify import AtMost, Claim


def run_cli(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def run_json(capsys, *argv):
    rc, out, err = run_cli(capsys, *argv)
    assert rc == 0, err
    return json.loads(out)


def test_roots_json_payload(capsys):
    d = run_json(capsys, "roots", "A3", "--format", "json")
    assert d["name"] == "A3"
    assert d["rank"] == 3
    assert d["root_count"] == 12
    assert d["signature"] == [3, 0]
    assert d["axioms_ok"] is True
    assert d["cartan_integral"] is True
    assert len(d["roots"]) == 12
    assert d["diagram_edges"] == [{"i": 1, "j": 2, "m": 3}, {"i": 2, "j": 3, "m": 3}]


def test_roots_csv_lists_every_root(capsys):
    rc, out, err = run_cli(capsys, "roots", "B3", "--format", "csv")
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0].split(",")[0] == "index"
    assert len(lines) == 1 + 18


def test_roots_markdown_mentions_cartan(capsys):
    rc, out, _ = run_cli(capsys, "roots", "H3", "--format", "markdown")
    assert rc == 0
    assert "H3" in out and "Cartan" in out
    assert "| 30" in out or "30 roots" in out or "30" in out


def test_roots_from_file(tmp_path, capsys):
    f = tmp_path / "b2.json"
    f.write_text(json.dumps({
        "name": "custom-B2",
        "sig": [2, 0],
        "simple_roots": [[1.0, 0.0],
                         [-0.7071067811865476, 0.7071067811865476]],
    }))
    d = run_json(capsys, "roots", str(f))
    assert d["name"] == "custom-B2"
    assert d["root_count"] == 8


@pytest.mark.parametrize("angle, m", [(math.pi / 3, 3), (3 * math.pi / 5, 5)],
                         ids=["acute", "non-simple"])
def test_a_seed_file_off_its_coxeter_angle_names_the_pair(angle, m, tmp_path, capsys):
    # A2's mirrors at 60 degrees, I2(5)'s at 108: each closes, but diagram refuses the pair
    f = tmp_path / "seed.json"
    f.write_text(json.dumps({"simple_roots": [[1.0, 0.0], [math.cos(angle), math.sin(angle)]]}))
    rc, out, err = run_cli(capsys, "roots", str(f))
    assert rc == 2 and out == "" and len(err.splitlines()) == 1
    payload = json.loads(err)
    assert payload["error"] == "ValueError"
    assert payload["message"].startswith(f"simple roots 1,2 are not at the angle pi - pi/{m} ")


def test_group_kind_orders(capsys):
    for kind, order in [("spin", 24), ("pin", 48), ("chiral", 12), ("full", 24)]:
        d = run_json(capsys, "group", "A3", "--kind", kind)
        assert d["order"] == order, kind


def test_classes_table(capsys):
    d = run_json(capsys, "classes", "A3", "--kind", "spin")
    sizes = [c["size"] for c in d["classes"]]
    assert sizes == [1, 1, 4, 4, 4, 4, 6]
    assert d["order"] == 24


def test_classes_markdown_rows(capsys):
    rc, out, _ = run_cli(capsys, "classes", "A3", "--kind", "spin", "--format", "markdown")
    assert rc == 0
    # seven class rows below the header
    rows = [l for l in out.splitlines() if l.startswith("|") and "---" not in l]
    assert len(rows) == 1 + 7


def test_induce_payload(capsys):
    d = run_json(capsys, "induce", "A1^3")
    assert d["identification"] == "A1^4"
    assert d["root_count"] == 8
    assert d["spin_order"] == 8
    assert d["reflection_agreement"]["all_in_group"] is True
    assert d["automorphism_sweep"]["exhaustive"] is True
    assert d["automorphism_sweep"]["pairs_tested"] == 64
    assert d["automorphism_sweep"]["distinct_images"] == 32


def test_mckay_rows(capsys):
    d = run_json(capsys, "mckay")
    assert [r["lie"] for r in d["rows"]] == ["D4+", "E6+", "E7+", "E8+"]
    for r in d["rows"]:
        assert r["phi_count"] == r["sum_dims"] == r["coxeter_h"]


def test_modular_word_wire(capsys):
    d = run_json(capsys, "modular", "T", "0", "1")
    assert d["word"] == "T"
    assert d["versor_result"] == [1.0, 1.0]
    assert d["oracle_result"] == [1.0, 1.0]
    assert d["max_deviation"] <= 1e-9


def test_modular_empty_word(capsys):
    d = run_json(capsys, "modular", "", "0.25", "0.75")
    assert d["versor_result"] == [0.25, 0.75]


def test_error_unknown_catalog_name(capsys):
    rc, out, err = run_cli(capsys, "roots", "Z99")
    assert rc == 2
    assert out == ""
    payload = json.loads(err.strip())
    assert payload["error"] == "UnknownCatalogName"
    assert "Z99" in payload["message"]


def test_error_bad_modular_input(capsys):
    rc, _, err = run_cli(capsys, "modular", "S", "0.5", "-1.0")
    assert rc == 2
    assert json.loads(err.strip())["error"]
    rc, _, err = run_cli(capsys, "modular", "SQ", "0.5", "1.0")
    assert rc == 2


@pytest.mark.parametrize("argv", [("S", "1e200", "1"), ("", "1e100", "1")])
def test_modular_overflow_is_a_json_error(argv, capsys):
    # embed's error, naming tau, which apply_word shares
    rc, out, err = run_cli(capsys, "modular", *argv)
    assert (rc, out) == (2, "")
    assert err.count("\n") == 1
    tau = (float(argv[1]), float(argv[2]))
    assert json.loads(err) == {"error": "VersorlabError", "message":
                               f"point {tau!r} is too far out to embed: its squares overflow"}


def test_modular_names_an_image_too_far_out_to_embed(capsys):
    # S sends 1e-160 i to 1e160 i, whose |x|^2 / 2 overflows: named as embed names tau, to the
    # ulp, though |tau|^2 / 2 is subnormal at the start
    assert run_cli(capsys, "modular", "S", "0", "1e-160") == (
        2, "", '{"error": "VersorlabError", "message": "point (0.0, 1e+160) '
               'is too far out to embed: its squares overflow"}\n')


@pytest.mark.parametrize("argv", [("S", "-1e-05", "1"), ("S", "-2.5e-07", "0.3"),
                                  ("T", "-1E+2", "1"), ("", "0.5", "-1e-05")])
def test_modular_reads_a_negative_tau_in_exponent_notation(argv, capsys):
    # argparse's own test reads only the -1 and -.5 forms as numbers, and repr writes x1 below
    # 1e-4 in exponent form, as the benchmark passes it
    rc, out, err = run_cli(capsys, "modular", *argv)
    tau = (float(argv[1]), float(argv[2]))
    if tau[1] > 0:
        assert (rc, err) == (0, "") and json.loads(out)["input"] == list(tau)
    else:
        assert (rc, out) == (2, "") and json.loads(err) == {
            "error": "VersorlabError",
            "message": "modular words act on the upper half-plane (x2 > 0)"}


@settings(derandomize=True, database=None, deadline=None, max_examples=600)
@given(word=st.text("STt", max_size=40),
       x1=st.floats() | st.floats(-1e-4, 0.0),
       x2=st.floats() | st.floats(0.0, 10.0) | st.floats(1e-170, 1e-150)
       | st.floats(-320.0, -150.0).map(lambda e: 10.0 ** e))
def test_modular_prints_its_report_or_one_json_line(word, x1, x2):
    # any word and floats, passed as repr writes them (subnormals, -0.0, inf and nan included):
    # exit 0 prints word_report's payload, exit 2 one JSON line naming what it raises; never a
    # traceback, and never a warning; and where the oracle's image is finite, no point at
    # infinity (before, S at 1e-300 i exited with PointAtInfinity)
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        warnings.simplefilter("error")
        rc = main(["modular", word, repr(x1), repr(x2)])
    if not (math.isfinite(x1) and math.isfinite(x2)):
        want = (2, "", '{"error": "VersorlabError", "message": "tau must be finite"}\n')
    else:
        try:
            want = (0, json.dumps(_clean(word_report(word, (x1, x2))), indent=2) + "\n", "")
        except Exception as exc:
            want = (2, "", json.dumps({"error": type(exc).__name__, "message": str(exc)}) + "\n")
    assert (rc, out.getvalue(), err.getvalue()) == want
    try:
        finite = all(map(math.isfinite, mobius_oracle(word, (x1, x2))))
    except VersorlabError:
        finite = False
    assert not (finite and '"error": "PointAtInfinity"' in err.getvalue()), (word, x1, x2)


@pytest.mark.parametrize("argv", [("", "inf", "1"), ("S", "0.5", "inf"), ("S", "nan", "1"),
                                  ("S", "-inf", "1"), ("S", "0.5", "-Infinity"),
                                  ("S", "-nan", "1"), ("t", "0.5", "-NaN")])
def test_modular_non_finite_tau_is_one_json_line(argv, capsys):
    # rejected before evaluating, so numpy prints no warning first
    assert run_cli(capsys, "modular", *argv) == (
        2, "", '{"error": "VersorlabError", "message": "tau must be finite"}\n')


def test_max_closure_caps_group_closure(capsys):
    rc, out, err = run_cli(capsys, "group", "H3", "--kind", "pin", "--max-closure", "100")
    assert rc == 2
    assert out == ""
    assert json.loads(err.strip())["error"] == "ClosureCapExceeded"


def test_spin_closure_fails_fast_under_memory_limit():
    # W+(E6) closes as root permutations and hits half the 20 000-element
    # cap before any float product, well inside 1 GiB of address space; one
    # BLAS thread keeps that space for the closure on machines with many cores
    resource = pytest.importorskip("resource")

    def limit_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    out = subprocess.run([sys.executable, "-m", "versorlab", "group", "E6", "--kind", "spin"],
                         capture_output=True, text=True, preexec_fn=limit_address_space,
                         env={**os.environ, "OPENBLAS_NUM_THREADS": "1"})
    assert out.returncode == 2, out.stderr
    assert json.loads(out.stderr)["error"] == "ClosureCapExceeded"


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("data,field", [([1, 2], "JSON object"), ({}, '"simple_roots"'),
                                        ({"sig": 3, "simple_roots": [[1, 0]]}, '"sig"'),
                                        ({"simple_roots": [{}]}, '"simple_roots"')] + [
    # seeds not 2-D, empty, non-finite, or with a squared length past the float range
    ({"simple_roots": seeds}, "simple_roots")
    for seeds in ([], [1, 2], [[]], [[[1, 0]]], [[float("nan"), 0], [0, 1]],
                  [[float("inf"), 0], [0, 1]], [[1e300, 0], [0, 1]], [[1e200, 0], [0, 1]])]
    + [({"sig": [2.5, 0], "simple_roots": [[1, 0]]}, '"sig"')])  # a float p keeps this message
def test_malformed_rootsystem_file_is_a_one_line_error(data, field, tmp_path, capsys):
    f = tmp_path / "bad.json"
    f.write_text(json.dumps(data))
    for cmd in ("roots", "group", "induce"):
        rc, out, err = run_cli(capsys, cmd, str(f))
        assert rc == 2 and out == ""
        assert len(err.splitlines()) == 1
        payload = json.loads(err)
        assert payload["error"] == "VersorlabError" and field in payload["message"]


@pytest.mark.parametrize("argv,flag", [
    (["modular", "S", "0.5", "1", "--tolerance", "nan"], "--tolerance"),
    (["modular", "T", "0.5", "1", "--tolerance", "-1"], "--tolerance"),
    (["modular", "", "0.5", "1", "--tolerance=0", "--format", "csv"], "--tolerance"),
    (["modular", "S", "0.5", "1", "--tolerance", "inf"], "--tolerance"),
    (["modular", "S", "0.5", "1", "--tolerance=-inf"], "--tolerance"),
    (["roots", "A3", "--max-closure", "-5"], "--max-closure"),
    (["group", "A3", "--max-closure", "0", "--format", "markdown"], "--max-closure"),
    (["modular", "S", "0.5", "1", "--tolerance", "1e-16"], "--tolerance"),
    (["modular", "S", "0.5", "1", "--tolerance", "1e-17"], "--tolerance"),
    (["modular", "STt", "0.25", "1.5", "--tolerance", "1"], "--tolerance"),
    (["modular", "S", "0.5", "1", "--tolerance", "1e300"], "--tolerance"),
    (["modular", "S", "nan", "1", "--tolerance", "1e-300", "--format", "csv"], "--tolerance"),
])  # no subcommand takes --tolerance, modular included; the last: refused before tau
def test_bad_tolerance_or_cap_is_a_one_line_error(argv, flag, capsys):
    rc, out, err = run_cli(capsys, *argv)
    assert rc == 2 and out == "" and len(err.splitlines()) == 1
    payload = json.loads(err)
    refusal = "versorlab: unrecognized arguments: " if flag == "--tolerance" else ""
    assert payload["error"] == "VersorlabError" and payload["message"].startswith(refusal + flag)


@pytest.mark.parametrize("argv", [
    ["modular", "S", "0.5", "1", "--tolerance", "abc"],
    ["modular", "S", "0.5", "1", "--tolerance", "-inf"],  # -inf a stray value
    ["roots"],
    ["nosuch"],
    [],
    ["group", "A3", "--kind", "nope"],
    ["roots", "A3", "--bogus"],
    ["modular", "S", "x", "1"],
], ids=["float", "negative float", "missing system", "unknown subcommand", "no subcommand",
        "choice", "unknown flag", "positional float"])
def test_usage_errors_are_one_json_line(argv, capsys):
    rc, out, err = run_cli(capsys, *argv)
    assert rc == 2 and out == "" and len(err.splitlines()) == 1
    payload = json.loads(err)
    assert payload["error"] == "VersorlabError" and payload["message"].startswith("versorlab")


def test_help_still_prints_usage_and_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["roots", "--help"])
    captured = capsys.readouterr()
    assert exc.value.code == 0 and captured.out.startswith("usage: versorlab roots")
    assert captured.err == ""


@pytest.mark.parametrize("argv", [["classes"], ["roots"]])
def test_a_tolerance_past_a_roots_length_names_the_root(argv, tmp_path, capsys):
    # the seeds' zero-length check compares at DEFAULT_EPS, which a seed
    # of length 5e-10 is below
    f = tmp_path / "short.json"
    f.write_text(json.dumps({"simple_roots": [[1.0, 0.0], [0.0, 5e-10]]}))
    rc, out, err = run_cli(capsys, *argv, str(f))
    assert rc == 2 and out == ""
    assert json.loads(err) == {"error": "ValueError", "message": (
        "simple root 2 has length 5e-10, below the tolerance 1e-09")}


@pytest.mark.parametrize("command", [["roots", "A3"], ["group", "A3"], ["classes", "A3"],
                                     ["induce", "A3"], ["mckay"], ["verify"]],
                         ids=lambda command: command[0])
@pytest.mark.parametrize("form", [["--tolerance", "0.5"], ["--tolerance=1e-6"]],
                         ids=["spaced", "joined"])
def test_only_modular_takes_the_tolerance(command, form, capsys):
    rc, out, err = run_cli(capsys, *command, *form)
    assert rc == 2 and out == "" and len(err.splitlines()) == 1
    assert json.loads(err) == {"error": "VersorlabError", "message": (
        f"versorlab: unrecognized arguments: {' '.join(form)}")}


def test_a_positive_cap_passes_and_modular_reaches_the_oracle_near_zero(capsys):
    assert run_json(capsys, "roots", "A1", "--max-closure", "2")["root_count"] == 2
    assert run_json(capsys, "modular", "S", "0.5", "1")["versor_result"] == [-0.4, 0.8]
    # S at 2e-5 i lands at 5e4 i, with the oracle's floats
    d = run_json(capsys, "modular", "S", "0", "2e-5")
    assert d["versor_result"] == d["oracle_result"] == [0.0, 49999.99999999999]
    assert d["max_deviation"] == 0.0
    # and at 1e-10 i, which the oracle no longer refuses as |z| < DEFAULT_EPS
    d = run_json(capsys, "modular", "S", "0", "1e-10")
    assert (d["versor_result"], d["oracle_result"]) == ([0.0, 9999999999.999998], [0.0, 1e10])


@pytest.mark.parametrize("value", ["abc", "-1", "1e3"])
@pytest.mark.parametrize("command", [["verify"], ["induce", "H3"]], ids=["verify", "induce"])
def test_a_seed_that_is_not_a_non_negative_integer_is_refused(command, value, monkeypatch,
                                                              capsys):
    monkeypatch.setenv("VERSORLAB_SEED", value)
    rc, out, err = run_cli(capsys, *command)
    assert rc == 2 and out == "" and len(err.splitlines()) == 1
    assert json.loads(err) == {"error": "VersorlabError", "message": (
        f"VERSORLAB_SEED must be a non-negative integer, got {value!r}")}


def test_error_payload_is_single_line(capsys):
    rc, _, err = run_cli(capsys, "roots", "nope")
    assert rc == 2
    assert len(err.strip().splitlines()) == 1


def _rows(*worst):
    """A battery table of rows that each report one fixed residual against ``AtMost()``."""
    return tuple(Claim(f"wiring.row{i}", ("10",), lambda ctx, w=w: {"worst": w},
                       {"worst": AtMost()}, "worst {worst:.1e}") for i, w in enumerate(worst))


def test_verify_passes_when_every_row_passes(monkeypatch, capsys):
    monkeypatch.setattr(verify, "CLAIMS", _rows(0.0, 1e-12))
    d = run_json(capsys, "verify")
    assert d["ok"] is True and d["failed"] == 0
    assert d["passed"] == len(d["checks"]) == 2
    assert [c["detail"] for c in d["checks"]] == ["worst 0.0e+00", "worst 1.0e-12"]


def test_verify_fails_when_one_row_fails(monkeypatch, capsys):
    monkeypatch.setattr(verify, "CLAIMS", _rows(0.0, 1.0))
    rc, out, _ = run_cli(capsys, "verify", "--format", "markdown")
    assert rc == 1
    assert "| wiring.row1 | FAIL |" in out and "| wiring.row0 | PASS |" in out


def test_verify_tolerance_reaches_the_rows(monkeypatch, capsys):
    # the tolerance verify reports is the bound of every AtMost() row: DEFAULT_EPS
    monkeypatch.setattr(verify, "CLAIMS", _rows(1e-8, 1e-10))
    rc, out, _ = run_cli(capsys, "verify")
    d = json.loads(out)
    assert rc == 1 and d["tolerance"] == DEFAULT_EPS
    assert [c["passed"] for c in d["checks"]] == [False, True]
    assert d["checks"][0]["detail"] == "worst 1.00e-08 exceeds 1.00e-09"


def test_crashed_row_reports_under_its_own_name(monkeypatch, capsys):
    def crash(ctx):
        raise SymmetrySweepFailure("pair (L=1, R=2) is not a symmetry")

    row = next(c for c in verify.CLAIMS if c.name == "induction.automorphism_sweeps")
    monkeypatch.setattr(verify, "CLAIMS", (row._replace(compute=crash),))
    rc, out, _ = run_cli(capsys, "verify")
    assert rc == 1
    assert json.loads(out)["checks"] == [{
        "name": "induction.automorphism_sweeps", "passed": False,
        "detail": "SymmetrySweepFailure: pair (L=1, R=2) is not a symmetry"}]


def test_seed_env_round_trip(monkeypatch, capsys):
    monkeypatch.setenv("VERSORLAB_SEED", "7")
    d = run_json(capsys, "induce", "A3")
    assert d["automorphism_sweep"]["pairs_tested"] == 576  # 24^2, still exhaustive
    assert d["identification"] == "D4"


def test_output_is_byte_deterministic():
    cmd = [sys.executable, "-m", "versorlab", "mckay", "--format", "json"]
    a = subprocess.run(cmd, capture_output=True, check=True).stdout
    b = subprocess.run(cmd, capture_output=True, check=True).stdout
    assert a == b and len(a) > 100


def test_console_entry_point_runs():
    out = subprocess.run([sys.executable, "-m", "versorlab", "roots", "A1",
                          "--format", "csv"], capture_output=True, check=True)
    assert out.stdout.decode().splitlines()[0].startswith("index")


class _ClosedPipe:
    """A stdout whose reader has left: every write raises, over a real descriptor."""

    def __init__(self, fd):
        self.fd = fd

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")

    def flush(self):
        pass

    def fileno(self):
        return self.fd


def test_a_closed_pipe_exits_141_with_nothing_on_stderr(monkeypatch, capsys, tmp_path):
    with open(tmp_path / "stdout", "wb") as f:
        monkeypatch.setattr(sys, "stdout", _ClosedPipe(f.fileno()))
        assert main(["roots", "A3"]) == 141
        os.write(f.fileno(), b"after")  # the descriptor now writes to devnull
    assert (tmp_path / "stdout").read_bytes() == b""
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("argv", [["roots", "A3"], ["group", "H3"]])
def test_a_closed_pipe_in_a_child_process_leaves_stderr_empty(argv):
    read, write = os.pipe()
    os.close(read)  # the reader leaves before the first write
    try:
        proc = subprocess.run([sys.executable, "-m", "versorlab", *argv], stdout=write,
                              stderr=subprocess.PIPE)
    finally:
        os.close(write)
    assert (proc.returncode, proc.stderr) == (141, b"")


@pytest.mark.parametrize("argv", [["nosuch"], ["modular", "S", "0.5", "1", "--tolerance", "abc"],
                                  ["modular", "S", "0.5", "1", "--tolerance", "0"]])
def test_an_error_whose_stderr_reader_left_exits_2(monkeypatch, capsys, tmp_path, argv):
    with open(tmp_path / "stderr", "wb") as f:
        monkeypatch.setattr(sys, "stderr", _ClosedPipe(f.fileno()))
        assert main(argv) == 2
        os.write(f.fileno(), b"after")  # the descriptor now writes to devnull
    assert (tmp_path / "stderr").read_bytes() == b""
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("argv", [["nosuch"], ["modular", "S", "0.5", "1", "--tolerance", "abc"]])
def test_an_error_whose_stderr_reader_left_exits_2_in_a_child_process(argv):
    read, write = os.pipe()
    os.close(read)  # the reader leaves before the error is written
    try:
        proc = subprocess.run([sys.executable, "-m", "versorlab", *argv],
                              stdout=subprocess.PIPE, stderr=write)
    finally:
        os.close(write)
    assert (proc.returncode, proc.stdout) == (2, b"")


@pytest.mark.parametrize("seed", [0, 7, 42, 801])
def test_word_draws_are_the_stream_of_a_choice_over_the_alphabet(seed):
    """The words row's block is its three documented calls: the lengths, a choice over the
    alphabet for all the letters, and tau as ``uniform`` over [-2, 2) x [0.05, 2.0)."""
    ctx, ref = verify._Ctx(seed), np.random.default_rng(seed)
    draws = verify._word_draws(ctx, 500)
    ends = np.cumsum(ref.integers(0, 13, size=500)).tolist()
    text = "".join(ref.choice(np.array(["S", "T", "t"]), size=ends[-1]))
    tau = ref.uniform([-2.0, 0.05], [2.0, 2.0], size=(500, 2))
    assert [word for word, _ in draws] == [text[a:b] for a, b in zip([0, *ends], ends)]
    assert _same_bits([t for _, t in draws], tau)
    assert ctx.rng.bit_generator.state == ref.bit_generator.state


def _same_bits(got, want) -> bool:
    """Equal float64 bits, so the sign of a zero counts."""
    return np.array_equal(np.asarray(got).view(np.int64), np.asarray(want).view(np.int64))


@pytest.mark.parametrize("seed", [0, 7, 42, 801])
def test_sampled_blocks_are_the_stream_of_one_draw_at_a_time(seed):
    """Each sampled block is its documented calls, and each call's array is its draws taken
    one at a time, in order: the mirrors; the isometry twin's ``integers(1, 5)``, then six
    3-vectors per draw, four units and u, v; the exp twin's unit vectors, then its
    ``uniform(-2, 2, size=2)`` per draw; and the same generator state."""
    sig = verify._CL3
    unit = lambda v: v / math.sqrt(math.fsum([x * x for x in v.tolist()]))
    vec = lambda v: verify.vector_rows(sig, v)
    ctx, ref = verify._Ctx(seed), np.random.default_rng(seed)
    s, A, V = verify._mirror_draws(ctx, 100, sig)
    for i in range(100):
        assert _same_bits(A[i], unit(ref.normal(size=3)))
        assert _same_bits(V[i], ref.normal(size=8) * verify.kernel_for(sig).grade_masks[1])
    W, count, U, V = verify._isometry_draws(ctx, 300)
    assert count.tolist() == ref.integers(1, 5, size=300).tolist()
    for i in range(300):
        assert _same_bits(W[i], [unit(ref.normal(size=3)) for _ in range(4)])
        assert _same_bits(U[i], vec(ref.normal(size=3)))
        assert _same_bits(V[i], vec(ref.normal(size=3)))
    b, t1, t2 = verify._exp_draws(ctx, 300)
    for i in range(300):
        assert _same_bits(b[i], unit(ref.normal(size=3)))
    for i in range(300):
        assert _same_bits([t1[i], t2[i]], ref.uniform(-2, 2, size=2))
    assert s == sig and ctx.rng.bit_generator.state == ref.bit_generator.state
