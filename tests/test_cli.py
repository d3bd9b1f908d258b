"""CLI contract: exit codes, output formats, determinism, and tolerance
plumbing."""

import json
from pathlib import Path

import pytest

from convexstate import cli
from convexstate.errors import InternalCheckError
from convexstate.polytope import AmbiguousMixtureCertificate

PINNED_REPORTS = Path(__file__).parent / "data" / "pinned_reports"


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# Exit codes
# ---------------------------------------------------------------------------

def test_analyze_simplex_ok(capsys):
    code, out, _ = run(capsys, "analyze", "simplex:2")
    assert code == 0
    report = json.loads(out)
    assert report["verdict"]["verdict"] == "not_refuted"


def test_unknown_theory_is_usage_error(capsys):
    code, _, err = run(capsys, "analyze", "nosuch")
    assert code == 2
    assert "unknown theory" in err


def test_unknown_subcommand_is_usage_error(capsys):
    assert cli.main(["frobnicate"]) == 2
    capsys.readouterr()


def test_bad_state_is_domain_error(capsys):
    code, _, err = run(capsys, "ratio", "spekkens", "e1", "e9")
    assert code == 3
    assert "e9" in err


def test_bad_simplex_size(capsys):
    assert run(capsys, "analyze", "simplex:zero")[0] == 2
    assert run(capsys, "analyze", "simplex:0")[0] == 2


def test_simplex_size_is_capped(capsys, monkeypatch):
    # Refused before any simplex is built.
    def build(n):
        raise AssertionError(f"simplex:{n} was built")

    monkeypatch.setattr(cli.models, "make_classical_simplex", build)
    code, out, err = run(capsys, "analyze", f"simplex:{cli.SIMPLEX_MAX + 1}")
    assert (code, out) == (2, "")
    assert f"of at most {cli.SIMPLEX_MAX}, got '{cli.SIMPLEX_MAX + 1}'" in err


@pytest.mark.parametrize("flag, token", [
    ("--starts", "1_0"), ("--support", "\u0663"), ("--sweeps", " 8 "), ("--seed", "+7"),
    ("--starts", "1" * 10), ("--seed", "1" * 10), ("--sweeps", ""),
], ids=["underscore", "arabic-indic", "spaces", "plus-sign", "ten-digits", "ten-digit-seed",
        "empty"])
def test_budgets_and_seed_follow_the_ascii_grammar(capsys, monkeypatch, flag, token):
    # int() would read each of these; the budgets and the seed are at most
    # nine ASCII digits, like every other count, and are refused while
    # the arguments are parsed, before any search starts.
    def search(**kwargs):
        raise AssertionError("the binding search started")

    monkeypatch.setattr(cli.protocols, "run_bit_commitment_analysis", search)
    code, out, err = run(capsys, "protocol", "bc", flag, token)
    assert (code, out) == (2, "")
    assert f"{flag}: must be at most nine ASCII digits, got {token!r}" in err


def test_nonpositive_budgets_are_usage_errors(capsys):
    assert run(capsys, "protocol", "bc", "--starts", "0")[0] == 2
    code, out, err = run(capsys, "protocol", "bc", "--sweeps", "-3")
    assert (code, out) == (2, "")
    assert "--sweeps: must be positive, got -3" in err
    assert run(capsys, "protocol", "bc", "--support", "0")[0] == 2


@pytest.mark.parametrize("argv", [["analyze", "spekkens"], ["face", "spekkens", "e1"],
                                  ["trace"]])
def test_tol_is_usage_error_where_unread(capsys, argv):
    # Only ratio, superposable and protocol clone read a tolerance.
    code, out, err = run(capsys, *argv, "--tol", "1e-3")
    assert (code, out) == (2, "")
    assert "unrecognized arguments: --tol 1e-3" in err


def test_protocol_bc_rejects_tol(capsys, monkeypatch):
    # The binding search reads no tolerance; protocol clone does.
    budget = ["--support", "1", "--starts", "1", "--sweeps", "1"]
    code, out, err = run(capsys, "protocol", "bc", *budget, "--tol", "0.5")
    assert (code, out) == (2, "")
    assert "unrecognized arguments: --tol 0.5" in err
    assert run(capsys, "protocol", "clone", "--tol", "1e-9")[0] == 0
    monkeypatch.setenv("CONVEXSTATE_TOL", "0.5")
    assert run(capsys, "protocol", "bc", *budget)[0] == 0


@pytest.mark.parametrize("argv", [["protocol", "clone", "--starts", "5"],
                                  ["protocol", "bc", "--bloch-angle", "60"]])
def test_protocol_tasks_reject_each_others_options(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert f"unrecognized arguments: {' '.join(argv[2:])}" in err


@pytest.mark.parametrize("argv", [["protocol", "bc"],
                                  ["ratio", "separable2x2", "01", "10"]])
def test_negative_seed_is_usage_error(capsys, argv):
    # Only protocol bc reads a seed; any other subcommand rejects the flag.
    code, out, err = run(capsys, *argv, "--seed", "-1")
    assert code == 2
    assert out == ""
    assert ("--seed: must be non-negative, got -1" if argv[0] == "protocol"
            else "unrecognized arguments: --seed -1") in err


@pytest.mark.parametrize("argv", [["ratio", "spekkens", "--", "--", "--"],
                                  ["ratio", "spekkens", "--", "e1", "--"],
                                  ["face", "spekkens", "--", "--"]])
def test_bare_double_dash_state_is_usage_error(capsys, argv):
    # argparse reads a second "--" as a positional with no value at all.
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert "convexstate: error: '--' stands for no value" in err
    # One "--" before the states still lets a label start with "-".
    assert run(capsys, "superposable", "spekkens", "--", "e1", "-e1")[0] == 0


@pytest.mark.parametrize("argv, code, says", [
    (["ratio", "spekkens", "\u0663", "0"], 3, "cannot resolve state"),
    (["ratio", "bloch", "(\u0660,0,1)", "0"], 3, "not a number"),
    (["analyze", "simplex:1_0"], 2, "simplex size must be a positive integer"),
    (["analyze", "simplex:3\n"], 2, "simplex size must be a positive integer"),
    (["face", "spekkens", "(1,0,0)\n"], 3, "cannot resolve state"),
    (["ratio", "spekkens", "9" * 5000, "0"], 3, "cannot resolve state"),
    (["analyze", "simplex:" + "9" * 5000], 2, "simplex size must be a positive integer"),
    (["protocol", "clone", "--x="], 3, "cannot resolve state ''"),
], ids=["arabic-indic-index", "arabic-indic-coordinate", "underscore-simplex",
        "newline-simplex", "newline-tuple", "long-index", "long-simplex", "empty-clone-state"])
def test_tokens_follow_the_ascii_grammar(capsys, argv, code, says):
    # Only ASCII digits count, with no underscores, and a trailing newline
    # is part of the token: int() and Fraction() alone would read the
    # Arabic-Indic digits as 3 and 0, "1_0" as 10 and "3\n" as 3.  An
    # index or size is at most nine digits; int() raises on 5,000.  An
    # empty --x is an empty token, not a request for the default.
    got, out, err = run(capsys, *argv)
    assert (got, out) == (code, "")
    assert says in err


def test_face_outside_point_is_domain_error(capsys):
    code, _, err = run(capsys, "face", "spekkens", "(2,0,0)")
    assert code == 3
    assert "point (2,0,0) is not in the polytope" in err


def test_broken_theory_file_reports_position(capsys, tmp_path):
    # A file that is not JSON, not UTF-8 or nested past the recursion limit
    # is a theory error with one line on stderr.
    path = tmp_path / "broken.json"
    for content, says in [(b'{"name": "x",\n "ambient_dim": }', "line 2"),
                          (b'\xff\xfe{"name": "x"}', "can't decode byte 0xff"),
                          (b"[" * 100_000, "recursion")]:
        path.write_bytes(content)
        code, out, err = run(capsys, "analyze", str(path))
        assert (code, out) == (2, "")
        assert err.startswith("convexstate: theory error: ") and err.count("\n") == 1
        assert says in err


@pytest.mark.parametrize("literal", ["Infinity", "-Infinity", "NaN"])
def test_nonfinite_theory_coordinate_is_usage_error(capsys, tmp_path, literal):
    # Python's json accepts these literals and reads them as float inf/nan.
    path = tmp_path / "inf.json"
    path.write_text('{"name": "x", "ambient_dim": 1, "vertices": [[%s], [0]]}' % literal)
    code, _, err = run(capsys, "analyze", str(path))
    assert code == 2
    assert "vertex 0 coordinate 0" in err


def test_boolean_ambient_dim_is_usage_error(capsys, tmp_path):
    path = tmp_path / "bool.json"
    path.write_text('{"name": "x", "ambient_dim": true, "vertices": [[1], [0]]}')
    code, _, err = run(capsys, "analyze", str(path))
    assert code == 2
    assert "'ambient_dim' must be a positive integer" in err


def test_internal_error_maps_to_exit_4(capsys, monkeypatch):
    def boom(args):
        raise InternalCheckError("synthetic")
    monkeypatch.setitem(cli._DISPATCH, "trace", boom)
    code, _, err = run(capsys, "trace")
    assert code == 4
    assert "synthetic" in err


def test_failed_mixture_certificate_maps_to_exit_4(capsys, monkeypatch):
    # The octahedron's first circuit is two vertex pairs, so analyze builds
    # and validates an ambiguous-mixture certificate.
    monkeypatch.setattr(AmbiguousMixtureCertificate, "validate", lambda self: False)
    code, out, err = run(capsys, "analyze", "spekkens")
    assert code == 4
    assert out == "" and "ambiguous-mixture certificate failed validation" in err


@pytest.mark.parametrize("argv,target", [
    (["trace"], "."),
    (["analyze", "spekkens"], "missing/x.json"),
])
def test_unwritable_out_is_usage_error(capsys, tmp_path, argv, target):
    # A directory, and a file in a directory that does not exist.
    path = tmp_path / target
    code, out, err = run(capsys, *argv, "--out", str(path))
    assert code == 2
    assert out == ""
    assert f"convexstate: cannot write {path}: " in err
    assert not (tmp_path / "missing").exists()


def test_help_exits_zero(capsys):
    assert cli.main(["--help"]) == 0
    capsys.readouterr()


# ---------------------------------------------------------------------------
# Reports and formats
# ---------------------------------------------------------------------------

def test_ratio_spekkens_zero_with_witness(capsys):
    code, out, _ = run(capsys, "ratio", "spekkens", "e1", "e2")
    assert code == 0
    report = json.loads(out)
    assert report["value"] == "0"
    assert report["witness"]["offset"] == "1/2"


def test_ratio_bloch_half(capsys):
    code, out, _ = run(capsys, "ratio", "bloch", "(1,0,0)", "(0,1,0)")
    assert code == 0
    assert json.loads(out)["value"] == 0.5


def test_ratio_state_file(capsys, tmp_path):
    path = tmp_path / "state.json"
    path.write_text(json.dumps({"bloch": [0, 0, 1]}))
    code, out, _ = run(capsys, "ratio", "bloch", str(path), "(0,0,1)")
    assert code == 0
    assert json.loads(out)["value"] == 1.0


def state_file(tmp_path, key: str, payload) -> Path:
    """The file {key: payload}, with ``payload`` as JSON text, or as bytes
    that make the file not UTF-8."""
    path = tmp_path / "state.json"
    if isinstance(payload, str):
        payload = payload.encode()
    path.write_bytes(b'{"%s": %s}' % (key.encode(), payload))
    return path


@pytest.mark.parametrize("bloch", ['["x", 0, 0]', '"abc"', "[true, 0, 0]", "[[0], 0, 1]",
                                   "[Infinity, 0, 0]", '["1e400", 0, 0]', '{"z": 1}', "null",
                                   b"\xff\xfe"])
def test_bad_state_file_bloch_is_domain_error(capsys, tmp_path, bloch):
    # The file's Bloch vector takes the same checks as an (x,y,z) token: a
    # list of finite, non-boolean numbers.
    path = state_file(tmp_path, "bloch", bloch)
    code, _, err = run(capsys, "ratio", "bloch", str(path), "(0,0,1)")
    assert code == 3
    assert str(path) in err


@pytest.mark.parametrize("entry", ["true", "[1, 0, 5]", "NaN", b"\xff\xfe"])
@pytest.mark.parametrize("theory", ["full2x2", "separable2x2"])
def test_bad_state_file_matrix_is_domain_error(capsys, tmp_path, entry, theory):
    # Each matrix entry, or each [re, im] pair of exactly two, takes the
    # checks of a coordinate: a finite, non-boolean number.
    if isinstance(entry, str):
        entry = entry.encode()
    path = state_file(tmp_path, "matrix",
                      b"[[%s, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]]" % entry)
    code, _, err = run(capsys, "ratio", theory, str(path), "00")
    assert code == 3
    assert str(path) in err


def test_face_subcommand(capsys):
    code, out, _ = run(capsys, "face", "spekkens", "e1", "e2")
    assert code == 0
    report = json.loads(out)
    assert report["face_vertex_labels"] == ["e1", "e2"]
    assert report["ball"]["is_ball"]


def test_face_of_a_repeated_point_is_its_minimal_face(capsys):
    # Every point list goes to the minimal face of its mean.
    twice = json.loads(run(capsys, "face", "spekkens", "e1", "e1")[1])
    once = json.loads(run(capsys, "face", "spekkens", "e1")[1])
    assert twice.pop("points") == ["e1", "e1"] and once.pop("points") == ["e1"]
    assert twice == once and twice["face_vertex_labels"] == ["e1"]


def test_face_state_file(capsys, tmp_path):
    path = tmp_path / "state.json"
    path.write_text(json.dumps({"point": ["1", 0, 0.0]}))
    code, out, _ = run(capsys, "face", "spekkens", str(path))
    assert code == 0
    assert json.loads(out)["face_vertex_labels"] == ["e1"]


@pytest.mark.parametrize("point", ['["nope", 0, 0]', "[Infinity, 0, 0]", "[true, 0, 0]",
                                   "[[1], 0, 0]", "[0, 0]", "5", '"100"', b"\xff\xfe"])
def test_bad_state_file_point_is_domain_error(capsys, tmp_path, point):
    # The file's point takes the same checks as an (a,b,...) token: a list
    # of finite rationals with one coordinate per ambient dimension.
    path = state_file(tmp_path, "point", point)
    code, _, err = run(capsys, "face", "spekkens", str(path))
    assert code == 3
    assert str(path) in err


def test_face_rejects_quantum_theory(capsys):
    assert run(capsys, "face", "bloch", "(0,0,1)")[0] == 3


def test_clone_protocol_sixty_degrees(capsys):
    code, out, _ = run(capsys, "protocol", "clone", "--bloch-angle", "60")
    assert code == 0
    report = json.loads(out)
    assert abs(report["r"] - 0.75) <= 1e-12
    assert report["contradiction"] is True


def test_trace_lists_all_claims(capsys):
    from convexstate.claims import CLAIMS
    code, out, _ = run(capsys, "trace")
    assert code == 0
    report = json.loads(out)
    assert len(report["claims"]) == len(CLAIMS)


def test_trace_single_claim_filter(capsys):
    code, out, _ = run(capsys, "trace", "--claim", "octahedron-refuted")
    assert code == 0
    assert len(json.loads(out)["claims"]) == 1
    assert run(capsys, "trace", "--claim", "nope")[0] == 3


def test_csv_format(capsys):
    code, out, _ = run(capsys, "analyze", "spekkens", "--format", "csv")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == ",e1,-e1,e2,-e2,e3,-e3"
    assert lines[1] == "e1,1,0,0,0,0,0"

    code, out, _ = run(capsys, "trace", "--format", "csv")
    assert out.startswith("id,statement,operations,tests")


def test_text_format(capsys):
    code, out, _ = run(capsys, "ratio", "bloch", "(1,0,0)", "(0,1,0)",
                       "--format", "text")
    assert code == 0
    assert "value: 0.5" in out


@pytest.mark.parametrize("pinned, argv", [
    ("superposable_separable_01_10.txt",
     ["superposable", "separable2x2", "01", "10", "--format", "text"]),
    ("superposable_separable_01_10.csv",
     ["superposable", "separable2x2", "01", "10", "--format", "csv"]),
    ("face_octahedron_edge.txt", ["face", "spekkens", "e1", "e2", "--format", "text"]),
])
def test_rendering_pinned(capsys, pinned, argv):
    # Text and CSV list keys in the report's own order, not sorted.
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert out == (PINNED_REPORTS / pinned).read_text()


# ---------------------------------------------------------------------------
# Determinism
# ---------------------------------------------------------------------------

def test_json_byte_determinism(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for target in (a, b):
        assert cli.main(["analyze", "spekkens", "--out", str(target)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_protocol_determinism_with_seed(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    argv = ["protocol", "bc", "--support", "2", "--starts", "2",
            "--sweeps", "4", "--seed", "7"]
    for target in (a, b):
        assert cli.main(argv + ["--out", str(target)]) == 0
    assert a.read_bytes() == b.read_bytes()


# ---------------------------------------------------------------------------
# Tolerance plumbing
# ---------------------------------------------------------------------------

# Unit vector whose overlap with +z is 5e-6: above the default equality
# tolerance, below 1e-3.
_CZ = 1.0 - 1e-5
_SZ = (1.0 - _CZ * _CZ) ** 0.5
NEAR_POLE = f"({_SZ!r},0,{-_CZ!r})"


def test_tol_flag_loosens_orthogonality(capsys):
    code, _, _ = run(capsys, "superposable", "bloch", "(0,0,1)", NEAR_POLE)
    assert code == 3  # ratio is tiny but above the default tolerance
    code, _, _ = run(capsys, "superposable", "bloch", "(0,0,1)", NEAR_POLE,
                     "--tol", "1e-3")
    assert code == 0


def test_env_tolerance_and_flag_precedence(capsys, monkeypatch):
    monkeypatch.setenv("CONVEXSTATE_TOL", "1e-3")
    code, _, _ = run(capsys, "superposable", "bloch", "(0,0,1)", NEAR_POLE)
    assert code == 0
    code, _, _ = run(capsys, "superposable", "bloch", "(0,0,1)", NEAR_POLE,
                     "--tol", "1e-13")
    assert code == 3


@pytest.mark.parametrize("value", ["nan", "inf", "-1", "abc"])
def test_bad_tol_flag_is_usage_error(capsys, value):
    # A NaN or infinite tolerance would make every "> tol" check false.
    code, out, err = run(capsys, "ratio", "full2x2", "01", "10", "--tol", value)
    assert (code, out) == (2, "")
    assert "argument --tol:" in err
    assert repr(value) in err


@pytest.mark.parametrize("value", ["nan", "inf", "-1", "abc"])
def test_bad_env_tolerance_is_usage_error(capsys, monkeypatch, value):
    monkeypatch.setenv("CONVEXSTATE_TOL", value)
    code, out, err = run(capsys, "ratio", "full2x2", "01", "10")
    assert (code, out) == (2, "")
    assert "CONVEXSTATE_TOL: " in err and repr(value) in err
    # The flag wins, and a subcommand that reads no tolerance ignores it.
    assert run(capsys, "ratio", "full2x2", "01", "10", "--tol", "1e-9")[0] == 0
    assert run(capsys, "analyze", "spekkens")[0] == 0


@pytest.mark.parametrize("argv", [["ratio", "separable2x2"], ["ratio", "full2x2"],
                                  ["superposable", "separable2x2"],
                                  ["superposable", "full2x2"]])
def test_tol_flag_reaches_matrix_engines(capsys, tmp_path, argv):
    # |01><01| with trace 1 + 1e-8: outside the default tolerance, inside 1e-6.
    matrix = [[0] * 4 for _ in range(4)]
    matrix[1][1] = 1 + 1e-8
    path = tmp_path / "x.json"
    path.write_text(json.dumps({"matrix": matrix}))
    assert run(capsys, *argv, str(path), "10")[0] == 3
    assert run(capsys, *argv, str(path), "10", "--tol", "1e-6")[0] == 0
