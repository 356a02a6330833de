"""Record the benchmark of a commit, and of its parent, in one BENCH_<pr>.json.

    python3 scripts/record_bench.py --out BENCH_26.json --parent 618be65

The change is HEAD, or, when tracked files differ from HEAD, a snapshot
commit of the work tree (`git stash create`), which no branch holds.  Each
side runs `bench/run.py` in a subprocess, from a `git archive` of its
commit unpacked in a fresh temporary directory.  Each of the 10 pairs runs
every workload of BENCHMARK.json untraced for its `run_seconds` on both
sides, alternating which side goes first (odd pairs run the parent first).
Then each side runs each workload traced once, at `--seconds 0`, for its
deterministic counters; a single traced run's times cannot compare two
commits, so none are kept.  Without `--parent` the file records the change
alone, as a baseline that claims nothing.

The file holds, per workload and end-to-end metric, each side's runs,
median and IQR share ((q3 - q1) / median), the change/parent ratio of the
medians and the pairs the change won; each side's traced counters; and
each side's commit with the hash of its `src` tree, which `git rev-parse
<commit>:src` of the merged commit can be checked against.  The script
prints each ratio beside the metric's bound in BENCHMARK.json, and the
change's medians against the newest earlier BENCH_*.json.
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


def _git(*args: str, **kwargs) -> subprocess.CompletedProcess:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True, **kwargs)


def _unpack(commit: str, into: Path) -> Path:
    into.mkdir()
    archive = _git("archive", "--format=tar", commit).stdout
    subprocess.run(["tar", "-x", "-C", str(into)], input=archive, check=True)
    return into


def _bench(tree: Path, workload: str, seconds: float, trace: int) -> dict:
    """One `bench/run.py` run in `tree`: the record it writes, with its notes."""
    argv = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(SEED),
            "--seconds", str(seconds), "--trace", str(trace)]
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    done = subprocess.run(argv, cwd=tree, env=env, capture_output=True, text=True)
    if done.returncode != 0:
        raise SystemExit(f"{' '.join(argv)} in {tree} exited {done.returncode}:\n{done.stderr}")
    record = tree / ".bench_out" / f"{workload}-seed{SEED}-trace{trace}.json"
    return json.loads(record.read_text())


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

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = declared["run_seconds"]
    workloads = [w["name"] for w in declared["workloads"]]
    metrics = declared["end_to_end"]
    counters = [m["name"] for m in declared["per_layer"] if m["unit"] in ("count", "bytes")]
    change = _git("stash", "create", text=True).stdout.strip() or "HEAD"
    commits = {"change": _git("rev-parse", f"{change}^{{commit}}", text=True).stdout.strip()}
    if args.parent:
        commits = {"parent": _git("rev-parse", f"{args.parent}^{{commit}}", text=True).stdout.strip(), **commits}

    with tempfile.TemporaryDirectory(prefix="record_bench-") as scratch:
        trees = {side: _unpack(commit, Path(scratch) / side) for side, commit in commits.items()}
        untraced = {w: {side: [] for side in commits} for w in workloads}
        for k in range(PAIRS):
            order = list(commits) if k % 2 == 0 else list(reversed(commits))
            for w in workloads:
                for side in order:
                    untraced[w][side].append(_bench(trees[side], w, seconds, 0))
                    print(f"pair {k + 1}/{PAIRS} {w} {side}: "
                          f"{untraced[w][side][-1]['metrics']['do_steps_per_s']['value']}", file=sys.stderr)
        traced = {w: {side: _bench(trees[side], w, 0, 1) for side in commits} for w in workloads}

    env = untraced[workloads[0]]["change"][0]["env"]
    payload = {
        "what": (
            f"bench/run.py --seed {SEED} --seconds {seconds:g} --trace 0, {PAIRS} runs per side and "
            "workload in alternating pairs (odd pairs run the parent first), each side from a git archive "
            "of its commit in a fresh directory with OPENBLAS_NUM_THREADS=1; medians with IQR share "
            "(statistics.quantiles n=4, (q3 - q1) / median), change/parent ratios and the pairs the change "
            "won; the deterministic per-layer counters of one --seconds 0 --trace 1 run per side"
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
            "metrics": {},
            "traced": {
                side: {"correct": r["correct"], "absent_hooks": r["notes"].get("absent_hooks"),
                       **{name: r["metrics"][name]["value"] for name in counters if name in r["metrics"]}}
                for side, r in traced[w].items()
            },
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
        payload["workloads"][w] = entry

    args.out.write_text(json.dumps(payload, indent=1) + "\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
