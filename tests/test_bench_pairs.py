"""scripts/bench_pairs.py: the paired-run summary, on canned perfbench results."""

import importlib.util
import json
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

END_TO_END = [{"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.2},
              {"name": "accept", "unit": "ratio", "better": "higher", "bound": 0.1}]


def _line(wall, accept=0.5, failed=0, attempted=12):
    # the last line perfbench/run.py prints for one run
    return json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                       "metrics": {"wall_s": {"value": wall, "unit": "s"},
                                   "accept": {"value": accept, "unit": "ratio"}}})


def test_summary_reports_medians_quartiles_and_wins():
    parent = [json.loads(_line(w)) for w in (0.20, 0.22, 0.24, 0.26, 0.28)]
    change = [json.loads(_line(w, accept=a))
              for w, a in ((0.18, 0.6), (0.23, 0.4), (0.19, 0.6), (0.20, 0.6), (0.21, 0.6))]
    lines, correct = bench_pairs.summarize(parent, change, END_TO_END)
    assert correct
    assert lines[0] == ("wall_s (s, lower is better): parent 0.2400 [0.2200, 0.2600]  "
                        "change 0.2000 [0.1900, 0.2100]  change better in 4/5 pairs, "
                        "median -16.7%, parent IQR 0.0400")
    assert "change better in 4/5 pairs" in lines[1]  # higher is better here
    assert lines[2:] == [
        "parent: 0 of 60 operations failed, 0 runs not correct, 0 runs without a result",
        "change: 0 of 60 operations failed, 0 runs not correct, 0 runs without a result"]


def test_summary_is_not_correct_if_a_run_failed_or_gave_no_result():
    parent = [json.loads(_line(0.2)), json.loads(_line(0.3, failed=2))]
    change = [json.loads(_line(0.1)), None]
    lines, correct = bench_pairs.summarize(parent, change, END_TO_END)
    assert not correct
    assert "change better in 1/1 pairs" in lines[0]  # pair 2 has no change result
    assert lines[2] == ("parent: 2 of 24 operations failed, 1 runs not correct, "
                        "0 runs without a result")
    assert lines[3] == ("change: 0 of 12 operations failed, 0 runs not correct, "
                        "1 runs without a result")
    _, correct = bench_pairs.summarize([json.loads(_line(0.2))], [json.loads(_line(0.2))],
                                       END_TO_END)
    assert correct
