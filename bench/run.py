"""Run one aflsim benchmark workload and print its metrics.

    python3 bench/run.py --workload compare-n100 --seed 1 --seconds 42 --trace 0

Prints the run's environment, one `name = value unit` line per metric, and,
as the last line, a JSON object with `correct`, `attempted`, `failed` and
`metrics`.  `--trace 0` reports the end-to-end metrics of BENCHMARK.json,
`--trace 1` the per-layer ones.  Results and (traced) spans are also written
under `.bench_out/` at the repository root.

    python3 bench/run.py --record-digests

re-records the output digests the correctness gate expects at the default
seed; do that only in a change that names a change of the simulation's output.
"""

import argparse
import json
import os
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=42.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digests", action="store_true")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "aflsim" / "__init__.py").is_file():
        print(f"bench: no aflsim sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # One BLAS thread, set before numpy loads: the load is a single-threaded
    # closed batch, and idle OpenBLAS workers spin on the second core, which
    # made timings swing.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(BENCH_DIR))
    import harness

    harness.OUT_DIR.mkdir(exist_ok=True)
    if args.record_digests:
        found = harness.record_digests(harness.OUT_DIR)
        print(json.dumps(found, indent=2, sort_keys=True))
        return 0
    if args.workload not in harness.WORKLOADS:
        parser.error(f"--workload must be one of {sorted(harness.WORKLOADS)}")

    wl = harness.WORKLOADS[args.workload]
    reference = None
    if args.seed == harness.DEFAULT_SEED:
        reference = harness.load_stored_digests().get(wl.name, {})
    measure = harness.measure_traced if args.trace else harness.measure_untraced
    outcome = measure(wl, args.seed, args.seconds, reference)

    env = harness.environment(wl, args.seed, args.trace)
    stem = harness.OUT_DIR / f"{wl.name}-seed{args.seed}-trace{args.trace}"
    print("env " + json.dumps(env, sort_keys=True))
    for name, (value, unit) in outcome.metrics.items():
        print(f"{name} = {'absent' if value is None else value} {unit}")
    print(f"failed_share = {outcome.notes['failed_share']} ratio "
          f"({outcome.failed} of {outcome.attempted} cells)")
    for key, value in outcome.notes.items():
        if key not in ("failed_share", "digests"):
            print(f"# {key}: {value}")
    if outcome.tracer is not None:
        outcome.tracer.write(stem.with_name(stem.name + "-spans.tsv.gz"))

    result = {
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit) in outcome.metrics.items()
        },
    }
    stem.with_suffix(".json").write_text(
        json.dumps({"env": env, "notes": outcome.notes, **result}, indent=2, sort_keys=True) + "\n"
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
