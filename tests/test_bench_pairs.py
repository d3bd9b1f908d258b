"""``scripts/bench_pairs.py`` summaries: medians, quartiles and the pairs
won, in each metric's own direction."""

import importlib.util
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
