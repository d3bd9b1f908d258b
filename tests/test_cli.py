"""CLI contract: exit codes, output formats, determinism, and tolerance
plumbing."""

import json

import pytest

from convexstate import cli
from convexstate.errors import InternalCheckError


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


def test_nonpositive_budgets_are_usage_errors(capsys):
    assert run(capsys, "protocol", "bc", "--starts", "0")[0] == 2


def test_face_outside_point_is_domain_error(capsys):
    code, _, err = run(capsys, "face", "spekkens", "(2,0,0)")
    assert code == 3
    assert "point (2,0,0) is not in the polytope" in err


def test_broken_theory_file_reports_position(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"name": "x",\n "ambient_dim": }')
    code, _, err = run(capsys, "analyze", str(path))
    assert code == 2
    assert "line 2" in err


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
    def boom(args, tol):
        raise InternalCheckError("synthetic")
    monkeypatch.setitem(cli._DISPATCH, "trace", boom)
    code, _, err = run(capsys, "trace")
    assert code == 4
    assert "synthetic" in err


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


@pytest.mark.parametrize("bloch", ['["x", 0, 0]', '"abc"', "[true, 0, 0]", "[[0], 0, 1]",
                                   "[Infinity, 0, 0]", '["1e400", 0, 0]', '{"z": 1}', "null"])
def test_bad_state_file_bloch_is_domain_error(capsys, tmp_path, bloch):
    # The file's Bloch vector takes the same checks as an (x,y,z) token: a
    # list of finite, non-boolean numbers.
    path = tmp_path / "state.json"
    path.write_text('{"bloch": %s}' % bloch)
    code, _, err = run(capsys, "ratio", "bloch", str(path), "(0,0,1)")
    assert code == 3
    assert str(path) in err


@pytest.mark.parametrize("entry", ["true", "[1, 0, 5]", "NaN"])
@pytest.mark.parametrize("theory", ["full2x2", "separable2x2"])
def test_bad_state_file_matrix_is_domain_error(capsys, tmp_path, entry, theory):
    # Each matrix entry, or each [re, im] pair of exactly two, takes the
    # checks of a coordinate: a finite, non-boolean number.
    path = tmp_path / "state.json"
    path.write_text('{"matrix": [[%s, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]]}'
                    % entry)
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
                                   "[[1], 0, 0]", "[0, 0]", "5", '"100"'])
def test_bad_state_file_point_is_domain_error(capsys, tmp_path, point):
    # The file's point takes the same checks as an (a,b,...) token: a list
    # of finite rationals with one coordinate per ambient dimension.
    path = tmp_path / "state.json"
    path.write_text('{"point": %s}' % point)
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
