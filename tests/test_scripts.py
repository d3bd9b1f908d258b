"""The scripts under ``scripts/``: how they end when stdout closes early, and
how ``run_all_analyses.py`` reads its seed."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

import convexstate

SCRIPTS = Path(__file__).parent.parent / "scripts"
SRC = str(Path(convexstate.__file__).parent.parent)


def load(name: str):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script


@pytest.mark.parametrize("argv", [
    ["binding_search.py", "--support", "2", "--starts", "2", "--sweeps", "2"],
    ["run_all_analyses.py", "--out-dir", "reports"],
], ids=["binding_search", "run_all_analyses"])
def test_closed_stdout_ends_quietly(argv, tmp_path):
    # The pipe is closed before the script writes to it, as `| head` may.
    err = tmp_path / "stderr.txt"
    env = {**os.environ, "PYTHONPATH": SRC}
    with open(err, "wb") as fh:
        proc = subprocess.Popen([sys.executable, str(SCRIPTS / argv[0]), *argv[1:]],
                                stdout=subprocess.PIPE, stderr=fh, cwd=tmp_path, env=env)
        proc.stdout.close()
        code = proc.wait(timeout=60)
    assert (code, err.read_text()) == (1, "")


@pytest.mark.parametrize("token", ["-1", "1_0", "+7"])
def test_run_all_analyses_reads_seed_as_the_cli_does(token, tmp_path, capsys):
    out_dir = tmp_path / "reports"
    with pytest.raises(SystemExit) as exc:
        load("run_all_analyses").main(["--seed", token, "--out-dir", str(out_dir)])
    assert exc.value.code == 2
    assert "argument --seed: must be" in capsys.readouterr().err
    assert not out_dir.exists()
