"""``scripts/bench_pairs.py`` summaries: medians, quartiles and the pairs
won, in each metric's own direction, and the facts recorded per checkout."""

import importlib.util
import json
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


def _run(**values):
    return {"correct": True, "failed": 0,
            "metrics": {k: {"value": v, "unit": "s"} for k, v in values.items()}}


def test_summary_counts_wins_in_each_metrics_direction():
    metrics = [{"name": "t", "unit": "s", "better": "lower", "bound": 0.25},
               {"name": "r", "unit": "ops", "better": "higher", "bound": 0.25}]
    runs = {"parent": [_run(t=3, r=1), _run(t=4, r=5), _run(t=5, r=2)],
            "change": [_run(t=2, r=2), _run(t=4, r=4), _run(t=6, r=3)]}
    out = bench_pairs.summarize(runs, metrics)
    # t: 2 < 3 wins, 4 == 4 is a tie, 6 > 5 loses.
    assert out["t"]["pairs_favouring_change"] == 1
    assert out["t"]["parent"]["median"] == 4 and out["t"]["change"]["median"] == 4
    assert out["t"]["relative_change"] == 0
    # r: higher is better, so 2 > 1 and 3 > 2 win and 4 < 5 loses.
    assert out["r"]["pairs_favouring_change"] == 2
    assert out["r"]["parent"]["runs"] == [1, 5, 2]
    assert out["r"]["relative_change"] == (3 - 2) / 2
    assert out["r"]["parent"]["q1"] <= 2 <= out["r"]["parent"]["q3"]


def _checkout(root, src_files):
    (root / "bench").mkdir(parents=True)
    (root / "bench" / "run.py").write_text("")
    (root / "BENCHMARK.json").write_text(json.dumps(
        {"end_to_end": [{"name": "t", "unit": "s", "better": "lower", "bound": 0.25}]}))
    for name, lines in src_files.items():
        path = root / "src" / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text("x = 1\n" * lines)
    return root


def test_checkout_facts_count_src_lines_and_read_the_bytecode_variable(tmp_path):
    root = _checkout(tmp_path, {"a.py": 3, "pkg/b.py": 2, "pkg/notes.txt": 7})
    facts = bench_pairs.checkout_facts(root, {})
    assert facts["src_lines"] == 5 and facts["pythondontwritebytecode"] is False
    assert bench_pairs.checkout_facts(root, {"PYTHONDONTWRITEBYTECODE": "1"})[
        "pythondontwritebytecode"] is True
    assert bench_pairs.checkout_facts(root, {"PYTHONDONTWRITEBYTECODE": ""})[
        "pythondontwritebytecode"] is False


def test_main_prints_and_records_the_facts_of_each_side(tmp_path, monkeypatch, capsys):
    parent = _checkout(tmp_path / "parent", {"m.py": 4})
    change = _checkout(tmp_path / "change", {"m.py": 3})
    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")
    monkeypatch.setattr(bench_pairs, "run_once", lambda *args: _run(t=1))
    out = tmp_path / "pairs.json"
    assert bench_pairs.main([str(parent), str(change), "--workload", "w",
                             "--pairs", "2", "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert f"parent: {parent}, src/ 4 lines, PYTHONDONTWRITEBYTECODE set" in printed
    assert f"change: {change}, src/ 3 lines, PYTHONDONTWRITEBYTECODE set" in printed
    report = json.loads(out.read_text())
    assert report["checkouts"]["parent"]["src_lines"] == 4
    assert report["checkouts"]["change"]["src_lines"] == 3
    assert all(c["pythondontwritebytecode"] for c in report["checkouts"].values())
    assert report["workloads"]["w"]["metrics"]["t"]["pairs_favouring_change"] == 0
