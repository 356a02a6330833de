"""scripts/record_bench.py refuses an unknown --parent, and fails on incorrect runs.

The script is imported and its git, unpack and bench steps are stubbed, so
no subprocess starts and no tree is unpacked.
"""

import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "record_bench.py"
COMMITS = {"HEAD": "c" * 40, "191391d": "p" * 40}


@pytest.fixture
def record_bench(monkeypatch):
    """The script as a module, its subprocess steps stubbed; `.calls` lists what they were asked."""
    spec = importlib.util.spec_from_file_location("record_bench", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    module.calls = []
    module.faulty = set()  # (workload, side, pair or "traced" or "tracemalloc") that reads incorrect

    def git(*args, **kwargs):
        module.calls.append(("git", *args))
        if args[0] == "rev-parse" and args[-1].endswith(":src"):
            return subprocess.CompletedProcess(args, 0, stdout="t" * 40 + "\n")
        if args[0] == "rev-parse":
            rev = args[-1].removesuffix("^{commit}")
            if rev not in COMMITS:
                raise subprocess.CalledProcessError(128, ["git", *args], stderr=f"fatal: bad revision '{rev}'")
            return subprocess.CompletedProcess(args, 0, stdout=COMMITS[rev] + "\n")
        return subprocess.CompletedProcess(args, 0, stdout="")

    def unpack(commit, into):
        module.calls.append(("unpack", commit))
        into.mkdir()
        return into

    sides = {}  # tree directory name -> the side it holds, as _place last named them
    real_place = module._place

    def place(trees, k):
        real_place(trees, k)
        sides.clear()
        sides.update({tree.name: side for side, tree in trees.items()})

    def bench(tree, workload, seconds, trace):
        side = sides[tree.name]
        pair = sum(call == ("bench", workload, side, 0) for call in module.calls) + 1
        module.calls.append(("bench", workload, side, trace))
        metrics = {name: {"value": 1.0} for name in ("do_steps_per_s", "step_ms_p50", "step_ms_p99", "setup_s", "peak_rss_mb")}
        env = {"python": "3", "numpy": "2", "blas_threads": 1}
        correct = (workload, side, "traced" if trace else pair) not in module.faulty
        return {"correct": correct, "failed": 0, "attempted": 1, "metrics": metrics,
                "env": env, "notes": {}, "directory": tree.name}

    def tracemalloc_pass(tree, workload):
        failed = int((workload, sides[tree.name], "tracemalloc") in module.faulty)
        return {"peak_mib": 1.0, "failed": failed, "directory": tree.name}

    monkeypatch.setattr(module, "_git", git)
    monkeypatch.setattr(module, "_unpack", unpack)
    monkeypatch.setattr(module, "_bench", bench)
    monkeypatch.setattr(module, "_tracemalloc_pass", tracemalloc_pass)
    monkeypatch.setattr(module, "_place", place)
    return module


def test_an_unknown_parent_is_refused_before_anything_runs(record_bench, tmp_path, capsys):
    out = tmp_path / "BENCH_99.json"
    with pytest.raises(SystemExit) as exit:
        record_bench.main(["--out", str(out), "--parent", "no-such-rev"])
    assert exit.value.code == 2
    assert "no-such-rev" in capsys.readouterr().err
    assert not out.exists()
    assert not any(call[:2] == ("git", "stash") or call[0] in ("unpack", "bench") for call in record_bench.calls)


def test_correct_runs_are_written_and_exit_0(record_bench, tmp_path):
    out = tmp_path / "BENCH_99.json"
    assert record_bench.main(["--out", str(out), "--parent", "191391d"]) == 0
    recorded = json.loads(out.read_text())
    assert recorded["environment"]["parent_commit"] == COMMITS["191391d"]
    assert all(entry["all_correct"] for entry in recorded["workloads"].values())


@pytest.mark.parametrize(
    "fault, named",
    [
        (("dense-n800", "change", 3), "dense-n800 change pair 3: untraced run not correct"),
        (("compare-n100", "parent", "traced"), "compare-n100 parent: traced run not correct"),
        (("demand-mixed-n400", "change", "tracemalloc"), "demand-mixed-n400 change: tracemalloc pass failed 1 cells"),
    ],
)
def test_an_incorrect_run_is_written_then_named_with_exit_3(record_bench, tmp_path, capsys, fault, named):
    record_bench.faulty.add(fault)
    out = tmp_path / "BENCH_99.json"
    assert record_bench.main(["--out", str(out), "--parent", "191391d"]) == 3
    err = capsys.readouterr().err
    assert named in err
    assert err.count(" not correct") + err.count(" failed ") == 1
    workload = json.loads(out.read_text())["workloads"][fault[0]]
    if isinstance(fault[2], int):
        assert not workload["all_correct"]
    elif fault[2] == "traced":
        assert not workload["traced"][fault[1]]["correct"]
    else:
        assert workload["tracemalloc"][fault[1]]["failed"] == 1
