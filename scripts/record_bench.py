"""Record the benchmark of a commit, and of its parent, in one BENCH_<pr>.json.

    python3 scripts/record_bench.py --out BENCH_26.json --parent 618be65

The change is HEAD, or, when tracked files differ from HEAD, a snapshot
commit of the work tree (`git stash create`), which no branch holds.  That
snapshot leaves untracked files out, so the script refuses to start while
`git ls-files --others --exclude-standard` lists any, and names them.  Each
side runs `bench/run.py` in a subprocess, from a `git archive` of its
commit unpacked in a fresh temporary directory.  Each of the 10 pairs runs
every workload of BENCHMARK.json untraced for its `run_seconds` on both
sides, alternating which side goes first (odd pairs run the parent first).
The two trees also trade directory names every other pair, as the run
directory's name alone has moved `peak_rss_mb` and `setup_s`, so each side
runs half its pairs under each name.
Then each side runs each workload traced once, at `--seconds 0`, for its
deterministic counters; a single traced run's times cannot compare two
commits, so none are kept.  Last, each side runs one pass of each workload
under tracemalloc, in a process of its own in its tree, for the peak of
what Python allocated: `peak_rss_mb` also follows the heap's layout, and
has moved by 7% between two trees that allocate the same.  Without
`--parent` the file records the change alone, as a baseline that claims
nothing; a `--parent` that names no commit is refused (exit code 2) before
anything is unpacked.

The file holds, per workload and end-to-end metric, each side's runs,
median and IQR share ((q3 - q1) / median), the change/parent ratio of the
medians and the pairs the change won; the directory of each run; each
side's traced counters and tracemalloc peak; and each side's commit with the hash of its `src`
tree, which `git rev-parse <commit>:src` of the merged commit can be
checked against.  The script
prints each ratio beside the metric's bound in BENCHMARK.json, and the
change's medians against the newest earlier BENCH_*.json.  A run that
`bench/run.py` reports not correct, or a tracemalloc pass with failed cells,
is still written to the file, and then named, by workload, side and pair,
with exit code 3.
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = 1
PAIRS = 10
# The directory names the sides' trees trade: side i of pair k runs in TREES[(i + k) % 2].
TREES = ("tree-a", "tree-b")
# One pass of workload argv[1] at seed argv[2] under tracemalloc, run in a
# side's tree; prints its peak in MiB and the cells whose output digest
# differs from bench/digests.json, or failed.
TRACEMALLOC_PASS = """
import json, sys, tempfile, tracemalloc
from pathlib import Path
sys.path.insert(0, "bench")
import harness
wl, seed = harness.WORKLOADS[sys.argv[1]], int(sys.argv[2])
with tempfile.TemporaryDirectory() as work, harness.StepProbe() as probe:
    tracemalloc.start()
    result = harness.run_pass(wl, seed, Path(work), probe)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
failed = harness.count_failures(result, harness.load_stored_digests().get(wl.name, {}), True)
print(json.dumps({"peak_mib": peak / 2**20, "failed": failed}))
"""


def _git(*args: str, **kwargs) -> subprocess.CompletedProcess:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True, **kwargs)


def _unpack(commit: str, into: Path) -> Path:
    into.mkdir()
    archive = _git("archive", "--format=tar", commit).stdout
    subprocess.run(["tar", "-x", "-C", str(into)], input=archive, check=True)
    return into


def _place(trees: dict[str, Path], k: int) -> None:
    """Rename each side's tree to its directory for pair `k`."""
    for side, tree in trees.items():
        trees[side] = tree.rename(tree.with_name(f"{tree.name}-moving"))
    for i, (side, tree) in enumerate(trees.items()):
        trees[side] = tree.rename(tree.with_name(TREES[(i + k) % 2]))


def _python(tree: Path, *args: str) -> str:
    """The stdout of Python run with `args` in `tree`, with one BLAS thread."""
    argv = [sys.executable, *args]
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    done = subprocess.run(argv, cwd=tree, env=env, capture_output=True, text=True)
    if done.returncode != 0:
        raise SystemExit(f"{' '.join(argv)} in {tree} exited {done.returncode}:\n{done.stderr}")
    return done.stdout


def _bench(tree: Path, workload: str, seconds: float, trace: int) -> dict:
    """One `bench/run.py` run in `tree`: the record it writes, with its notes."""
    _python(tree, "bench/run.py", "--workload", workload, "--seed", str(SEED),
            "--seconds", str(seconds), "--trace", str(trace))
    record = tree / ".bench_out" / f"{workload}-seed{SEED}-trace{trace}.json"
    return {**json.loads(record.read_text()), "directory": tree.name}


def _tracemalloc_pass(tree: Path, workload: str) -> dict:
    """One pass of `workload` under tracemalloc in `tree`: its peak (MiB) and failed cells."""
    found = json.loads(_python(tree, "-c", TRACEMALLOC_PASS, workload, str(SEED)).splitlines()[-1])
    return {**found, "directory": tree.name}


def _spread(runs: list[float]) -> dict:
    median = statistics.median(runs)
    q1, _, q3 = statistics.quantiles(runs, n=4)
    return {"median": median, "iqr_share": round((q3 - q1) / median, 4) if median else None, "runs": runs}


def _earlier_medians(out: Path) -> tuple[str | None, dict]:
    """The newest BENCH_<k>.json with k below `out`'s number, and its change medians."""
    number = int(re.search(r"(\d+)", out.name).group(1))
    earlier = sorted(
        (int(m.group(1)), path) for path in ROOT.glob("BENCH_*.json")
        if (m := re.fullmatch(r"BENCH_(\d+)\.json", path.name)) and int(m.group(1)) < number
    )
    if not earlier:
        return None, {}
    path = earlier[-1][1]
    medians = {}
    for name, workload in json.loads(path.read_text()).get("workloads", {}).items():
        for metric, entry in workload.get("metrics", {}).items():
            side = entry.get("change") or entry.get("parent") or {}
            if "median" in side:
                medians[name, metric] = side["median"]
    return path.name, medians


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, type=Path, help="the BENCH_<pr>.json to write")
    parser.add_argument("--parent", help="the commit to compare against; none records a baseline")
    args = parser.parse_args(argv)
    if not re.fullmatch(r"BENCH_\d+\.json", args.out.name):
        parser.error("--out must be named BENCH_<number>.json")
    commits = {}
    if args.parent:
        try:
            commits["parent"] = _git("rev-parse", "--verify", f"{args.parent}^{{commit}}", text=True).stdout.strip()
        except subprocess.CalledProcessError:
            parser.error(f"--parent {args.parent!r} names no commit")
    untracked = _git("ls-files", "--others", "--exclude-standard", text=True).stdout.splitlines()
    if untracked:
        raise SystemExit("untracked files, which the snapshot commit would leave out; "
                         f"add or remove them first: {', '.join(untracked)}")

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = declared["run_seconds"]
    workloads = [w["name"] for w in declared["workloads"]]
    metrics = declared["end_to_end"]
    counters = [m["name"] for m in declared["per_layer"] if m["unit"] in ("count", "bytes")]
    change = _git("stash", "create", text=True).stdout.strip() or "HEAD"
    commits["change"] = _git("rev-parse", f"{change}^{{commit}}", text=True).stdout.strip()

    with tempfile.TemporaryDirectory(prefix="record_bench-") as scratch:
        trees = {side: _unpack(commit, Path(scratch) / side) for side, commit in commits.items()}
        untraced = {w: {side: [] for side in commits} for w in workloads}
        for k in range(PAIRS):
            _place(trees, k)
            order = list(commits) if k % 2 == 0 else list(reversed(commits))
            for w in workloads:
                for side in order:
                    untraced[w][side].append(_bench(trees[side], w, seconds, 0))
                    print(f"pair {k + 1}/{PAIRS} {w} {side} in {trees[side].name}: "
                          f"{untraced[w][side][-1]['metrics']['do_steps_per_s']['value']}", file=sys.stderr)
        traced = {w: {side: _bench(trees[side], w, 0, 1) for side in commits} for w in workloads}
        tracemalloc = {w: {side: _tracemalloc_pass(trees[side], w) for side in commits} for w in workloads}

    env = untraced[workloads[0]]["change"][0]["env"]
    payload = {
        "what": (
            f"bench/run.py --seed {SEED} --seconds {seconds:g} --trace 0, {PAIRS} runs per side and "
            "workload in alternating pairs (odd pairs run the parent first), each side from a git archive "
            f"of its commit in a fresh directory, the sides trading the names {' and '.join(TREES)} every "
            "other pair, with OPENBLAS_NUM_THREADS=1; medians with IQR share "
            "(statistics.quantiles n=4, (q3 - q1) / median), change/parent ratios and the pairs the change "
            "won; the deterministic per-layer counters of one --seconds 0 --trace 1 run per side; "
            "the tracemalloc peak (MiB) of one pass per side, each in a process of its own"
        ),
        "environment": {
            "nproc": os.cpu_count(),
            "python": env["python"],
            "numpy": env["numpy"],
            "blas_threads": env["blas_threads"],
            **{f"{side}_commit": commit for side, commit in commits.items()},
            **{f"{side}_src_tree": _git("rev-parse", f"{commit}:src", text=True).stdout.strip()
               for side, commit in commits.items()},
        },
        "workloads": {},
    }
    earlier_name, earlier = _earlier_medians(args.out)
    for w in workloads:
        runs = untraced[w]
        entry = {
            "seed": SEED,
            "pairs": PAIRS,
            "all_correct": all(r["correct"] for side in runs.values() for r in side),
            "failed_cells": sum(r["failed"] for side in runs.values() for r in side),
            "attempted_cells": {side: sum(r["attempted"] for r in found) for side, found in runs.items()},
            "directories": {side: [r["directory"] for r in found] for side, found in runs.items()},
            "metrics": {},
            "traced": {
                side: {"correct": r["correct"], "directory": r["directory"],
                       "absent_hooks": r["notes"].get("absent_hooks"),
                       **{name: r["metrics"][name]["value"] for name in counters if name in r["metrics"]}}
                for side, r in traced[w].items()
            },
            "tracemalloc": tracemalloc[w],
        }
        for metric in metrics:
            name = metric["name"]
            found = {side: [r["metrics"][name]["value"] for r in rs] for side, rs in runs.items()}
            row = {key: metric[key] for key in ("unit", "better", "bound")}
            row.update({side: _spread(values) for side, values in found.items()})
            line = f"{w:18} {name:15} change {row['change']['median']:.6g}"
            if "parent" in found:
                ratio = row["change"]["median"] / row["parent"]["median"]
                higher = metric["better"] == "higher"
                wins = sum((c > p) if higher else (c < p) for p, c in zip(found["parent"], found["change"]))
                row.update(ratio=round(ratio, 4), change_wins=f"{wins}/{PAIRS}")
                worse = (1 - ratio) if higher else (ratio - 1)
                line += (f"  x{ratio:.4f} of parent, {wins}/{PAIRS} wins, "
                         f"{'WORSE than' if worse > metric['bound'] else 'within'} bound {metric['bound']}")
            if (w, name) in earlier:
                line += f"  x{row['change']['median'] / earlier[w, name]:.4f} of {earlier_name}"
            print(line)
            entry["metrics"][name] = row
        peaks = {side: found["peak_mib"] for side, found in tracemalloc[w].items()}
        line = f"{w:18} {'tracemalloc_mib':15} change {peaks['change']:.6g}"
        if "parent" in peaks:
            line += f"  x{peaks['change'] / peaks['parent']:.4f} of parent ({peaks['parent']:.6g})"
        print(line)
        payload["workloads"][w] = entry

    args.out.write_text(json.dumps(payload, indent=1) + "\n")
    print(f"wrote {args.out}")
    faults = [f"{w} {side} pair {k + 1}: untraced run not correct"
              for w in workloads for side, found in untraced[w].items()
              for k, r in enumerate(found) if not r["correct"]]
    faults += [f"{w} {side}: traced run not correct"
               for w in workloads for side, r in traced[w].items() if not r["correct"]]
    faults += [f"{w} {side}: tracemalloc pass failed {r['failed']} cells"
               for w in workloads for side, r in tracemalloc[w].items() if r["failed"]]
    if faults:
        print(f"{args.out} records incorrect runs:", *faults, sep="\n  ", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
