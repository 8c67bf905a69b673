"""scripts/memory_limits.py: one fresh process per run length, at a tiny size."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "memory_limits.py"
_spec = importlib.util.spec_from_file_location("memory_limits", SCRIPT)
memory_limits = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(memory_limits)


def test_prints_one_line_per_run_length(capsys):
    assert memory_limits.main(["figure1", "--runs", "2", "--iters", "100", "300"]) == 0
    header, *lines = capsys.readouterr().out.splitlines()
    assert header.split() == ["experiment", "runs", "iters", "wall_s", "peak_rss_mb"]
    rows = [line.split() for line in lines]
    assert [row[:3] for row in rows] == [["figure1", "2", "100"], ["figure1", "2", "300"]]
    for row in rows:
        # a child imports numpy: its peak is some MB, far below a GB
        assert float(row[3]) >= 0.0 and 10.0 < float(row[4]) < 1000.0


def test_a_failing_child_exits_1_with_its_error(capsys):
    # 50 iterations is below ExperimentConfig's minimum of 100
    assert memory_limits.main(["figure1", "--runs", "2", "--iters", "50"]) == 1
    assert "iters must be an integer >= 100" in capsys.readouterr().err
