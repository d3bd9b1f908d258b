"""Fuzz contract for the input boundary: theory files, state files, state
tokens, the ``protocol bc`` budgets and seed, ``trace --claim`` text, the
number flags ``--tol`` and ``--bloch-angle``, and ``--out`` targets, each
read through ``cli.main``.  The binding search itself never runs.

Whatever the input, the CLI exits 0, 2 or 3 and raises nothing.  On exit 2
or 3 stderr holds exactly one ``convexstate`` error line and stdout is
empty; on exit 0 stdout is one JSON report.  Every theory file that loads
round-trips through ``theory_to_dict`` and ``theory_from_dict``.

The draws are derandomized, so every run tries the same inputs.  Theories
stay small (simplex:n with n <= 3, at most 5 vertices in at most 3
dimensions), so no draw builds a large polytope.
"""

import contextlib
import io
import json
import re
from fractions import Fraction
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from convexstate import cli
from convexstate.claims import CLAIMS
from convexstate.errors import PreconditionError, TheoryFormatError
from convexstate.polytope import load_theory, theory_from_dict, theory_to_dict

FUZZ = settings(derandomize=True, database=None, deadline=None, max_examples=80)

# A line that starts with the program name and a colon, as in
# "convexstate: domain error: ..." or argparse's "convexstate ratio: error: ...".
ERROR_LINE = re.compile(r"convexstate( [a-z]+)*: ")

# Stands in for an integer literal longer than the 4,300 digits that
# Python's int() reads from text; json.dumps cannot write one itself.
HUGE = "<huge integer>"

NUMBER = st.one_of(
    st.integers(-2, 2),
    st.floats(width=16),
    st.sampled_from([1e300, -1e-300]),
    st.sampled_from(["1/2", "-1/3", "1/0", "NaN", "Infinity", "1e400", "1e300", "0.5", "1e3",
                     "1_0", "٣", " 1", "1\n", "", "x", HUGE]),
    st.booleans(),
    st.none(),
)
JSON_VALUE = st.recursive(NUMBER, lambda inner: st.lists(inner, max_size=4), max_leaves=10)

STATE_TOKEN = st.one_of(
    st.just("--"),
    st.sampled_from([
        "e1", "-e1", "e9", "v0", "v2", "0", "2", "6", "02", "٣", "3\n", "1_0",
        "00", "01", "+-", "0+", "-", "", "(1,0,0)", "(0,0,1)", "(1/2,1/2,0)",
        "(1/2,0,1/2)", "(1,0,0)\n", "(1_0,0,0)", "(٣,0,0)", "(0,0,1);(0,0,-1)",
        "(1,0,0);(0,1,0)", "(0,0,1);", ";", "()", "(,)", "(1,0)", "(1,0,0,0)",
        "(1e400,0,0)", "(1e300,0,0)", "(1e300,0,0);(0,0,1)", "(NaN,0,0)", "9" * 5000,
    ]),
    st.text(alphabet="()01+-,;/.e_9 \n٣", max_size=10),
)
# Values of the protocol bc budgets and --seed: around 0 and the caps, and
# text that int() would read but the nine-ASCII-digit grammar refuses.
COUNT_TOKEN = st.one_of(
    st.integers(-2, 1002).map(str),
    st.sampled_from(["0", "-0", "101", "801", "601", "999999999", "1" * 10, "1_0", "٣",
                     " 8 ", "+7", "8\n", "", "--", "1e2", "0x10"]),
    st.text(alphabet="0123456789+-_ ٣", max_size=10),
)
CLAIM_TOKEN = st.one_of(
    st.sampled_from([c.id for c in CLAIMS]),
    st.sampled_from(["nope", "", "\U0001f4a5", "--", "-h"]),
    st.text(max_size=8),
)
THEORY = st.sampled_from(["spekkens", "simplex:2", "bloch", "full2x2", "separable2x2"])
THEORY_TOKEN = st.one_of(
    THEORY,
    st.sampled_from(["simplex:0", "simplex:3", "simplex:03", "simplex:1_0",
                     "simplex:٣", "simplex:3\n", "simplex: 2", "simplex:+2",
                     "simplex:-1", "simplex:", "simplex:x", "simplex:" + "9" * 5000,
                     "nosuch", "--", ""]),
)


def dump(value) -> str:
    return json.dumps(value).replace(json.dumps(HUGE), "9" * 4400)


def encode(text: str, how: str) -> bytes:
    if how == "utf-16":
        return text.encode("utf-16")
    data = text.encode("utf-8")
    return {"utf-8": data, "bom-bytes": b"\xff\xfe" + data, "truncated": data[:-1]}[how]


ENCODING = st.sampled_from(["utf-8"] * 5 + ["bom-bytes", "utf-16", "truncated"])


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def check_contract(argv):
    code, out, err = run(argv)
    assert code in (0, 2, 3), (argv, code, err)
    if code == 0:
        json.loads(out)
        assert err == "", (argv, err)
    else:
        assert out == "", argv
        lines = [line for line in err.splitlines() if ERROR_LINE.match(line)]
        assert len(lines) == 1, (argv, err)
    return code


@pytest.fixture(scope="module")
def folder(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


COORDINATE = st.one_of(st.integers(-2, 2), st.sampled_from(["1/2", "-1/3"]))
THEORY_DICT = st.one_of(
    st.integers(1, 3).flatmap(lambda dim: st.fixed_dictionaries({
        "name": st.text(max_size=4),
        "ambient_dim": st.just(dim),
        "vertices": st.lists(st.lists(COORDINATE, min_size=dim, max_size=dim),
                             min_size=1, max_size=5),
    })),
    st.fixed_dictionaries({
        "name": st.one_of(st.text(max_size=4), st.integers(0, 1)),
        "ambient_dim": st.one_of(st.integers(0, 3), st.booleans(), st.sampled_from(["2", 2.0])),
        "vertices": st.one_of(st.lists(st.lists(COORDINATE, max_size=3), max_size=5),
                              JSON_VALUE),
    }),
    st.dictionaries(st.sampled_from(["name", "ambient_dim", "vertices"]), JSON_VALUE),
    JSON_VALUE,
)


@FUZZ
@given(data=THEORY_DICT, how=ENCODING)
def test_theory_files_exit_cleanly_and_round_trip(folder, data, how):
    path = folder / "theory.json"
    path.write_bytes(encode(dump(data), how))
    code = check_contract(["analyze", str(path)])
    try:
        k = load_theory(str(path))
    except TheoryFormatError:
        assert code == 2
        return
    d = theory_to_dict(k)
    back = theory_from_dict(d)
    assert back.vertices == k.vertices and theory_to_dict(back) == d


@pytest.mark.parametrize("text", ["9" * 4400, "-1/" + "9" * 4400, "9" * 4400 + "/7"],
                         ids=["integer", "denominator", "numerator"])
def test_overlong_integer_text_is_a_theory_error(folder, text):
    # int(), like Fraction(), refuses text of more than 4,300 digits with a
    # ValueError, so such a coordinate exits 2 with one line, not 1.
    path = folder / "long.json"
    path.write_text(json.dumps({"name": "long", "ambient_dim": 1, "vertices": [[text], [0]]}))
    code, out, err = run(["analyze", str(path)])
    assert (code, out) == (2, "")
    assert err.startswith("convexstate: theory error: ") and err.count("\n") == 1
    assert "vertex 0 coordinate 0: Exceeds the limit (4300 digits)" in err


@pytest.mark.parametrize("text", ["1e4400", "1e-4400", "9" * 4000 + "e999"],
                         ids=["exponent", "negative-exponent", "long-mantissa"])
def test_overlong_decimal_value_is_refused(folder, text):
    # The exact value's numerator or denominator has more digits than str()
    # may write, so no report could hold it: it is refused like over-long
    # integer text, exit 2 in a theory file and 3 in a state.
    path = folder / "long.json"
    path.write_text(json.dumps({"name": "long", "ambient_dim": 1, "vertices": [[text], [0]]}))
    code, out, err = run(["ratio", str(path), "0", "1"])
    assert (code, out) == (2, "")
    assert err.startswith("convexstate: theory error: ") and err.count("\n") == 1
    assert "vertex 0 coordinate 0: Exceeds the limit (4300 digits)" in err
    code, out, err = run(["face", "spekkens", f"({text},0,0)"])
    assert (code, out) == (3, "")
    assert err.startswith("convexstate: domain error: ") and err.count("\n") == 1
    assert "coordinate 0: Exceeds the limit (4300 digits)" in err


def test_decimal_value_at_the_digit_limit_is_read(folder):
    # 10**4299 has 4,300 digits, the most that str() may write.
    path = folder / "long.json"
    path.write_text(json.dumps({"name": "long", "ambient_dim": 1,
                                "vertices": [["1e4299"], ["0"]]}))
    code, out, _ = run(["ratio", str(path), "0", "1"])
    assert code == 0 and json.loads(out)["value"] == "0"


# Each loads, but the exact witness of ratio 0 1 has a numerator and
# denominator of about 8,600 digits, twice what str() may write.
LONG_REPORT_THEORIES = {"decimal": ["1e4299", "1e-4299"],
                        "fraction": ["1" + "0" * 4299, "1/1" + "0" * 4299]}


@pytest.mark.parametrize("fmt", ["json", "text", "csv"])
@pytest.mark.parametrize("theory", sorted(LONG_REPORT_THEORIES))
def test_report_number_too_long_to_write_is_domain_error(folder, theory, fmt):
    path = folder / f"{theory}.json"
    path.write_text(json.dumps({"name": "long", "ambient_dim": 1,
                                "vertices": [[c] for c in LONG_REPORT_THEORIES[theory]]}))
    target = folder / f"{theory}-{fmt}.out"
    for out_args in ([], ["--out", str(target)]):
        code, out, err = run(["ratio", str(path), "0", "1", "--format", fmt, *out_args])
        assert (code, out) == (3, "")
        assert err.startswith("convexstate: domain error: ") and err.count("\n") == 1
        assert "exceeds the limit (4300 digits)" in err
    assert not target.exists()


@pytest.mark.parametrize("fmt", ["json", "text", "csv"])
def test_rendered_number_too_long_to_write_is_domain_error(fmt, monkeypatch):
    # lo, hi and value reach the report as Fractions and are first written
    # when the report is rendered.
    huge = Fraction(1, 10 ** 4300)
    monkeypatch.setattr(cli.transition, "affine_ratio", lambda *args: SimpleNamespace(
        lo=huge, hi=huge, exact=True, value=huge, witness=None, detail={}))
    code, out, err = run(["ratio", "spekkens", "e1", "e2", "--format", fmt])
    assert (code, out) == (3, "")
    assert err.startswith("convexstate: domain error: ") and err.count("\n") == 1


MATRIX = st.one_of(
    st.sampled_from([
        [[1, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]],
        [[0, 0, 0, 0], [0, "1/2", "1/2", 0], [0, "1/2", "1/2", 0], [0, 0, 0, 0]],
        [[1, 0], [0, 0]],
        [["1/2", [0, "-1/2"]], [[0, "1/2"], "1/2"]],
        [[1, [0, 0, 5]], [0, 0]],
    ]),
    st.lists(st.lists(st.one_of(NUMBER, st.lists(NUMBER, max_size=3)), max_size=4),
             max_size=4),
)
PAYLOADS = {
    "point": st.one_of(
        st.sampled_from([[1, 0, 0], ["1/2", "1/2", 0], [0, 1], ["1/3", "2/3"], [0.5, 0.5]]),
        st.lists(NUMBER, max_size=4), JSON_VALUE),
    "bloch": st.one_of(
        st.sampled_from([[0, 0, 1], [1, 0, 0], [0.6, 0.8, 0], [0, 0, 2], ["-1", 0, 0]]),
        st.lists(NUMBER, max_size=4), JSON_VALUE),
    "matrix": st.one_of(MATRIX, JSON_VALUE),
}
STATE_FILE = st.one_of(
    *(st.fixed_dictionaries({key: payload}) for key, payload in PAYLOADS.items()),
    st.dictionaries(st.sampled_from(["point", "bloch", "matrix", "other"]), JSON_VALUE,
                    max_size=2),
    JSON_VALUE,
)
# The state file key each theory reads first.
FILE_KEY = {"spekkens": "point", "simplex:2": "point", "bloch": "bloch",
            "full2x2": "matrix", "separable2x2": "matrix"}
# Tokens that each theory reads; the partner state of a state file is the first.
VALID_TOKENS = {
    "spekkens": ["e1", "e2", "-e3", "5", "(1,0,0)", "(1/2, 1/2, 0)"],
    "simplex:2": ["v0", "v1", "2", "(1/2,1/2)", "(0,1)"],
    "bloch": ["0", "1", "+", "-", "(0,0,1)", "(1,0,0)", "(0.6,0.8,0)"],
    "full2x2": ["00", "01", "+-", "(0,0,1);(0,0,-1)", "(1,0,0);(0,1,0)"],
    "separable2x2": ["00", "11", "+-", "(0,0,1);(0,0,-1)", "(1,0,0);(0,1,0)"],
}


@FUZZ
@given(theory=THEORY, how=ENCODING, command=st.sampled_from(["ratio", "superposable", "face"]),
       data=st.data())
def test_state_files_exit_cleanly(folder, theory, how, command, data):
    key = FILE_KEY[theory]
    read = st.fixed_dictionaries({key: PAYLOADS[key]})
    content = data.draw(st.one_of(read, read, STATE_FILE))
    path = folder / "state.json"
    path.write_bytes(encode(dump(content), how))
    states = [str(path)] if command == "face" else [str(path), VALID_TOKENS[theory][0]]
    check_contract([command, theory, *states])


def refuse_search(**budget):
    # Stands in for the binding search: a budget that parses is in range,
    # and no search runs.
    for flag, value in budget.items():
        assert 0 <= value <= cli.BC_MAX.get(flag, 999_999_999), (flag, value)
    raise PreconditionError("the binding search is not run here")


# Text for the number flags --tol and --bloch-angle: what lp.rat reads,
# values beyond the float range or the digit limit, and text that float()
# would read but the ASCII grammar refuses.
NUMBER_FLAG_TOKEN = st.one_of(
    st.sampled_from(["60", "-90", "1e-6", "1/3", "0.5", "1e300", "1e-400"]),
    st.sampled_from(["0", "1e400", "1e4400", "1/0", "inf", "nan", "NaN", "٦٠", "6_0", " 60 ",
                     "", "--", "9" * 5000]),
    st.text(alphabet="0123456789.e+-/_ ٣", max_size=8),
)
# --out targets: a writable file, a directory, a file in a missing directory
# and the empty path; None runs without --out.
OUT_TARGET = st.sampled_from([None, None, "file", "directory", "missing", ""])


def check_out_contract(argv, words, target, folder):
    """``check_contract`` on ``argv``, and again with ``--out`` to ``target``
    after its first ``words`` words.  A report goes to a writable file in
    full and nothing to stdout; an unwritable target exits 2 where the
    command would succeed, and with the command's own error otherwise."""
    code = check_contract(argv)
    if target is None:
        return
    path = {"file": folder / "report.json", "directory": folder,
            "missing": folder / "missing" / "report.json", "": ""}[target]
    if target == "file" and path.exists():
        path.unlink()
    expected = run(argv)
    out_code, out, err = run([*argv[:words], f"--out={path}", *argv[words:]])
    if target == "file":
        assert (out_code, out) == (code, ""), argv
        if code == 0:
            assert err == "" and path.read_text(encoding="utf-8") == expected[1], argv
        else:
            assert err == expected[2] and not path.exists(), argv
    elif code == 0:
        assert (out_code, out) == (2, ""), (argv, target)
        assert err.startswith(f"convexstate: cannot write {path}: ") and err.count("\n") == 1
    else:
        assert (out_code, out, err) == expected, (argv, target)


@settings(FUZZ, max_examples=200)
@given(command=st.sampled_from(["analyze", "ratio", "superposable", "face", "clone", "bc",
                                "trace"]),
       dashes=st.booleans(), target=OUT_TARGET, data=st.data())
def test_tokens_exit_cleanly(folder, command, dashes, target, data):
    if command == "bc":
        flags = data.draw(st.lists(st.sampled_from(["--support", "--starts", "--sweeps", "--seed"]),
                                   max_size=3, unique=True))
        argv = ["protocol", "bc", *(f"{flag}={data.draw(COUNT_TOKEN)}" for flag in flags)]
        with mock.patch.object(cli.protocols, "run_bit_commitment_analysis", refuse_search):
            check_out_contract(argv, 2, target, folder)
        return
    if command == "trace":
        check_out_contract(["trace", f"--claim={data.draw(CLAIM_TOKEN)}"], 1, target, folder)
        return
    theory = data.draw(THEORY_TOKEN if command == "analyze" else THEORY)
    valid = st.sampled_from(VALID_TOKENS.get(theory, VALID_TOKENS["bloch"]))
    tokens = data.draw(st.lists(st.one_of(valid, valid, STATE_TOKEN), min_size=1, max_size=3))
    numbers = {"--tol": command in ("ratio", "superposable", "clone"),
               "--bloch-angle": command == "clone"}
    options = [f"{flag}={data.draw(NUMBER_FLAG_TOKEN)}" for flag, read in numbers.items()
               if read and data.draw(st.booleans())]
    if command == "analyze":
        argv = ["analyze", theory]
    elif command == "clone":
        argv = ["protocol", "clone", *options,
                *[f"{flag}={token}" for flag, token in zip(("--x", "--y"), tokens)]]
    else:
        if command != "face":
            tokens = (tokens * 2)[:2]
        argv = [command, theory, *options, *(["--"] if dashes else []), *tokens]
    check_out_contract(argv, 2 if command == "clone" else 1, target, folder)
