"""scripts/bench_pairs.py: the paired-run summary, on canned perfbench results."""

import importlib.util
import json
import os
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "bench_pairs.py"
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


def _verdicts(parent_walls, change_walls):
    parent = [json.loads(_line(w)) for w in parent_walls]
    change = [json.loads(_line(w)) for w in change_walls]
    return bench_pairs.verdicts(parent, change, END_TO_END)[0]


PARENT = [0.200, 0.204, 0.198, 0.202, 0.206, 0.196, 0.201, 0.203, 0.199, 0.197]


def test_verdict_gain_needs_nine_of_ten_pairs_and_a_median_past_the_iqr():
    faster = [w - 0.02 for w in PARENT]
    assert _verdicts(PARENT, faster) == "wall_s verdict: gain"
    # 8 of 10 pairs won: not a gain, and no worse than the bound
    assert _verdicts(PARENT, faster[:8] + PARENT[8:]) == "wall_s verdict: no regression"
    # 10 of 10 won by less than the parent's IQR (0.0045)
    assert _verdicts(PARENT, [w - 0.001 for w in PARENT]) == \
        "wall_s verdict: no regression"


def test_verdict_no_regression_within_the_bound():
    # 15% slower in every pair, against a bound of 20%
    assert _verdicts(PARENT, [1.15 * w for w in PARENT]) == "wall_s verdict: no regression"


def test_verdict_regression_past_the_bound():
    assert _verdicts(PARENT, [1.25 * w for w in PARENT]) == "wall_s verdict: regression"


def test_verdict_unresolved_when_the_parent_spreads_wider_than_the_bound():
    wide = [0.10, 0.30, 0.12, 0.28, 0.20, 0.15, 0.25, 0.11, 0.29, 0.20]
    assert _verdicts(wide, [1.3 * w for w in wide]) == "wall_s verdict: unresolved"
    assert _verdicts(wide, wide) == "wall_s verdict: unresolved"
    # unless every change run beats every parent run
    assert _verdicts(wide, [0.05] * 10) == "wall_s verdict: gain"
    # every run better, but by less than the parent's IQR (0.145)
    assert _verdicts(wide, [0.095] * 10) == "wall_s verdict: no regression"
    assert _verdicts(wide, [0.095] * 9 + [0.31]) == "wall_s verdict: unresolved"


def test_verdict_follows_the_metric_direction_and_is_printed_per_metric():
    parent = [json.loads(_line(0.2, accept=a)) for a in (0.50, 0.51, 0.49, 0.50, 0.52)]
    change = [json.loads(_line(0.2, accept=a)) for a in (0.40, 0.41, 0.39, 0.40, 0.42)]
    assert bench_pairs.verdicts(parent, change, END_TO_END) == [
        "wall_s verdict: no regression",  # every pair ties
        "accept verdict: regression"]     # higher is better; 20% lower, bound 10%
    assert bench_pairs.verdicts(change, parent, END_TO_END)[1] == "accept verdict: gain"
    assert bench_pairs.verdicts([None], [None], END_TO_END)[0] == \
        "wall_s verdict: no pair reports it"


VERDICTS = {"gain", "unresolved", "no regression", "regression"}


def _check_record(rec, metric_names):
    # The JSON record's schema, as the README's scripts paragraph states it.
    # Records written before --size existed have no "size"; they are bench.
    # "tier1" is there only for a run with --tier1; records written before
    # "bytecode" existed have none.
    assert set(rec) - {"size", "tier1", "bytecode"} == {"workload", "pairs", "host", "parent",
                                                        "change", "metrics"}
    assert rec.get("size", "bench") in bench_pairs.SIZES
    if "tier1" in rec:
        assert set(rec["tier1"]) == {"parent", "change"}
        for run in rec["tier1"].values():
            assert set(run) == {"seconds", "passed", "failed", "xfailed"}
            assert run["seconds"] > 0.0
            assert all(type(run[k]) is int and run[k] >= 0
                       for k in ("passed", "failed", "xfailed"))
    if "bytecode" in rec:
        assert set(rec["bytecode"]) == {"parent", "change"}
        for state in rec["bytecode"].values():
            assert set(state) == {"pycache", "PYTHONDONTWRITEBYTECODE"}
            assert type(state["pycache"]) is bool
            assert state["PYTHONDONTWRITEBYTECODE"] is None or \
                type(state["PYTHONDONTWRITEBYTECODE"]) is str
    assert set(rec["host"]) == {"cpu", "nproc", "python", "numpy", "glibc"}
    for side in ("parent", "change"):
        assert set(rec[side]) == {"commit", "dirty", "failed", "attempted",
                                  "not_correct", "without_result"}
    assert set(rec["metrics"]) == set(metric_names)
    for m in rec["metrics"].values():
        assert set(m) == {"parent", "change", "pairs", "wins", "verdict"}
        assert set(m["parent"]) == set(m["change"]) == {"q1", "median", "q3"}
        assert 0 <= m["wins"] <= m["pairs"] <= rec["pairs"]
        assert m["verdict"] in VERDICTS


def test_record_holds_the_host_commits_failures_and_each_metric(tmp_path):
    parent = [json.loads(_line(w)) for w in PARENT]
    change = [json.loads(_line(w - 0.02, failed=1)) for w in PARENT]
    rec = bench_pairs.record("demo", {"parent": tmp_path, "change": tmp_path},
                             parent, change, END_TO_END)
    _check_record(json.loads(json.dumps(rec)), ["wall_s", "accept"])
    assert rec["size"] == "bench"
    headline = bench_pairs.record("demo", {"parent": tmp_path, "change": tmp_path},
                                  parent, change, END_TO_END, "headline")
    _check_record(headline, ["wall_s", "accept"])
    assert headline["size"] == "headline"
    del headline["size"]  # as in the records written before --size
    _check_record(headline, ["wall_s", "accept"])
    assert rec["parent"]["commit"] is None  # not a git checkout
    assert (rec["change"]["failed"], rec["change"]["attempted"]) == (10, 120)
    assert rec["host"]["nproc"] >= 1
    wall = rec["metrics"]["wall_s"]
    assert (wall["wins"], wall["pairs"], wall["verdict"]) == (10, 10, "gain")
    assert wall["parent"]["median"] == pytest.approx(0.2005)


def test_every_committed_bench_file_has_the_record_schema():
    names = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]]
    files = sorted(ROOT.glob("BENCH_*.json"))
    assert files
    for path in files:
        records = json.loads(path.read_text())
        assert isinstance(records, list) and records, path.name
        for rec in records:
            _check_record(rec, names)
            assert all(rec["metrics"].values()), path.name


def test_size_is_passed_to_perfbench_and_checked(monkeypatch):
    calls = []

    def fake_run(cmd, **kwargs):
        calls.append(cmd)
        return type("Done", (), {"returncode": 0, "stdout": _line(0.2) + "\n",
                                 "stderr": ""})()

    monkeypatch.setattr(bench_pairs.subprocess, "run", fake_run)
    assert bench_pairs._run(ROOT, "evidence", 3, "headline")["correct"]
    assert calls[-1][1:] == ["perfbench/run.py", "--workload", "evidence", "--seed", "3",
                             "--trace", "0", "--size", "headline"]
    with pytest.raises(SystemExit):
        bench_pairs.main(["--parent", ".", "--change", ".", "--workload", "evidence",
                          "--size", "tiny"])


def test_tier1_runs_once_per_side_parent_first_and_is_recorded(monkeypatch, tmp_path):
    summaries = {"parent": "1 failed, 515 passed, 1 xfailed, 2 warnings in 120.50s (0:02:00)",
                 "change": "516 passed, 1 xfailed in 110.00s (0:01:50)"}
    trees = {"parent": tmp_path / "parent", "change": tmp_path / "change"}
    calls = []

    def fake_run(cmd, cwd, **kwargs):
        calls.append((cmd, Path(cwd), kwargs.get("env", {}).get("PYTHONPATH", "")))
        if cmd[1] == "perfbench/run.py":
            return type("Done", (), {"returncode": 0, "stdout": _line(0.2) + "\n",
                                     "stderr": ""})()
        side = "parent" if Path(cwd) == trees["parent"] else "change"
        return type("Done", (), {"returncode": 1 if side == "parent" else 0,
                                 "stdout": "..F..\n" + summaries[side] + "\n", "stderr": ""})()

    monkeypatch.setattr(bench_pairs.subprocess, "run", fake_run)
    monkeypatch.setattr(bench_pairs, "_commit", lambda tree: {"commit": None, "dirty": None})
    lines = []
    monkeypatch.setattr("builtins.print", lambda *a, **k: lines.append(" ".join(map(str, a))))
    assert bench_pairs.main(["--parent", str(trees["parent"]), "--change",
                             str(trees["change"]), "--workload", "evidence", "--pairs", "1",
                             "--tier1"]) == 0
    suites = [(cmd[1:], cwd, path) for cmd, cwd, path in calls if "pytest" in cmd]
    assert [cwd for _, cwd, _ in suites] == [trees["parent"], trees["change"]]
    assert all(cmd == ["-m", "pytest", "-q", "--continue-on-collection-errors"]
               and path.split(os.pathsep)[0] == "src" for cmd, _, path in suites)
    rec = json.loads(lines[-1])
    one = [json.loads(_line(0.2))]
    _check_record(bench_pairs.record("demo", trees, one, one, END_TO_END, tier1=rec["tier1"]),
                  ["wall_s", "accept"])
    assert {k: v for k, v in rec["tier1"]["parent"].items() if k != "seconds"} == \
        {"passed": 515, "failed": 1, "xfailed": 1}
    assert {k: v for k, v in rec["tier1"]["change"].items() if k != "seconds"} == \
        {"passed": 516, "failed": 0, "xfailed": 1}
    assert "tier1 change: 516 passed, 0 failed, 1 xfailed in" in lines[-2]
    # without --tier1 the suite does not run and the record has no "tier1"
    calls.clear()
    bench_pairs.main(["--parent", str(trees["parent"]), "--change", str(trees["change"]),
                      "--workload", "evidence", "--pairs", "1"])
    assert not any("pytest" in cmd for cmd, _, _ in calls)
    assert "tier1" not in json.loads(lines[-1])


def test_each_tree_s_bytecode_state_is_recorded_and_a_difference_warned(monkeypatch,
                                                                        tmp_path):
    trees = {"parent": tmp_path / "parent", "change": tmp_path / "change"}
    (trees["parent"] / "src" / "mcstat" / "__pycache__").mkdir(parents=True)
    trees["change"].mkdir()

    def fake_run(cmd, cwd, **kwargs):
        # a run with bytecode writing on leaves a cache in its tree
        (Path(cwd) / "src" / "mcstat" / "__pycache__").mkdir(parents=True, exist_ok=True)
        return type("Done", (), {"returncode": 0, "stdout": _line(0.2) + "\n",
                                 "stderr": ""})()

    monkeypatch.setattr(bench_pairs.subprocess, "run", fake_run)
    monkeypatch.setattr(bench_pairs, "_commit", lambda tree: {"commit": None, "dirty": None})
    monkeypatch.setattr(bench_pairs, "_host", lambda: dict.fromkeys(
        ("cpu", "nproc", "python", "numpy", "glibc")))
    lines = []
    monkeypatch.setattr("builtins.print", lambda *a, **k: lines.append(" ".join(map(str, a))))
    argv = ["--parent", str(trees["parent"]), "--change", str(trees["change"]),
            "--workload", "evidence", "--pairs", "1"]
    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")
    assert bench_pairs.main(argv) == 0
    rec = json.loads(lines[-1])
    one = [json.loads(_line(0.2))]
    _check_record(bench_pairs.record("demo", trees, one, one, END_TO_END,
                                     bytecode=rec["bytecode"]), ["wall_s", "accept"])
    # the state before the first run is recorded
    assert rec["bytecode"] == {
        "parent": {"pycache": True, "PYTHONDONTWRITEBYTECODE": "1"},
        "change": {"pycache": False, "PYTHONDONTWRITEBYTECODE": "1"}}
    assert sum(line.startswith("warning: the trees' bytecode states differ")
               for line in lines) == 1
    # both trees hold a cache now: no warning
    lines.clear()
    monkeypatch.delenv("PYTHONDONTWRITEBYTECODE")
    bench_pairs.main(argv)
    assert json.loads(lines[-1])["bytecode"] == {
        side: {"pycache": True, "PYTHONDONTWRITEBYTECODE": None} for side in trees}
    assert not any(line.startswith("warning") for line in lines)
