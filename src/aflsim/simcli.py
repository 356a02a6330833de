"""Experiment runner and CLI: seeded runs, CSV metrics, summaries, plot data.

Verbs:
  run       one scenario config, one policy assignment, all seeds
  compare   the 7-policy comparison preset (joint policy vs six baselines)
  ablate    the joint policy vs its five single-component ablations
  plotdata  post-process run artifacts into plot-ready tabular files

The first three are rows of one table, `VERBS`, and share one runner,
`run_preset`, over policies x seeds: `run` passes no policy names and writes
flat into its output directory, `compare` and `ablate` pass registry names
and write one directory per policy.

Every output byte is determined by (config, seed): metrics are one CSV per
seed with a fixed column order and 9-significant-digit floats, and each run
directory carries a manifest embedding the resolved config.
"""

import argparse
import csv
import json
import statistics
import sys
from dataclasses import asdict, dataclass, field
from itertools import repeat
from pathlib import Path

import numpy as np

from . import __version__
from .config import ConfigError, ScenarioConfig, load_config, resolve_config
from .core import CSV_COLUMNS, sequential_sum
from .market import build_world, step
from .policy_baselines import ABLATION_NAMES, BASELINE_NAMES

COMPARE_POLICIES = ("pas-afl",) + BASELINE_NAMES
ABLATE_POLICIES = ("pas-afl",) + ABLATION_NAMES

# verb -> (help, the registry policies it runs; None runs the config's own assignment)
VERBS = {
    "run": ("run one scenario config over its seeds", None),
    "compare": ("run the 7-policy comparison preset", COMPARE_POLICIES),
    "ablate": ("run the 5 single-component ablations", ABLATE_POLICIES),
}


class MissingArtifactError(FileNotFoundError):
    """Expected run artifacts (metrics CSVs, summary) are absent."""


@dataclass
class RunResult:
    """Aggregates from one seeded run."""

    mean_utility: float
    mean_backlog: float
    mean_price: float
    acceptance_rate: float
    per_step_mean_q: np.ndarray
    per_step_max_Q: np.ndarray
    audit_checks: int
    price_degenerate_steps: int


@dataclass
class PolicySummary:
    policy: str
    mean_utility: float
    std_across_seeds: float
    mean_backlog: float
    mean_price: float
    acceptance_rate: float
    per_seed_mean_utility: list[float] = field(default_factory=list)


def run_scenario(
    config: ScenarioConfig,
    seed: int,
    policy: str | None = None,
    csv_path=None,
) -> RunResult:
    """Run one seeded world for the configured horizon.

    With `csv_path` set, metrics stream to disk as they are produced.
    """
    world = build_world(config, seed, policy_override=policy)

    mean_q = np.empty(config.horizon_T)
    max_Q = np.empty(config.horizon_T)

    writer = None
    handle = None
    if csv_path is not None:
        handle = open(csv_path, "w", newline="", encoding="utf-8")
        writer = csv.writer(handle)
        writer.writerow(CSV_COLUMNS)
    try:
        for t in range(config.horizon_T):
            metrics = step(world)
            mean_q[t] = sequential_sum(metrics["pending_q"]) / config.n_dos
            max_Q[t] = metrics["urgency_Q"].max()
            if writer is not None:
                writer.writerows(_csv_rows(metrics))
    finally:
        if handle is not None:
            handle.close()

    denom = config.n_dos * config.horizon_T
    return RunResult(
        mean_utility=world.utility_sum / denom,
        mean_backlog=world.backlog_sum / denom,
        mean_price=world.price_sum / denom,
        acceptance_rate=world.accept_count / denom,
        per_step_mean_q=mean_q,
        per_step_max_Q=max_Q,
        audit_checks=world.audit_checks,
        price_degenerate_steps=world.degenerate_price_steps,
    )


def _csv_rows(metrics: dict[str, np.ndarray]):
    """One row of strings per DO: floats to 9 significant digits.  A
    generator, so that the rows are formatted as the writer takes them."""
    columns = (metrics[name] for name in CSV_COLUMNS)
    yield from zip(
        *(
            map(format, column.tolist(), repeat(".9g")) if column.dtype.kind == "f" else map(str, column.tolist())
            for column in columns
        )
    )


def _summarize(policy: str, results: list[RunResult]) -> PolicySummary:
    per_seed = [r.mean_utility for r in results]
    return PolicySummary(
        policy=policy,
        mean_utility=statistics.fmean(per_seed),
        std_across_seeds=statistics.pstdev(per_seed) if len(per_seed) > 1 else 0.0,
        mean_backlog=statistics.fmean(r.mean_backlog for r in results),
        mean_price=statistics.fmean(r.mean_price for r in results),
        acceptance_rate=statistics.fmean(r.acceptance_rate for r in results),
        per_seed_mean_utility=per_seed,
    )


def _write_manifest(out_dir: Path, config: ScenarioConfig, policy: str, seeds) -> None:
    manifest = {
        "package_version": __version__,
        "policy": policy,
        "seeds": list(seeds),
        "resolved_config": asdict(config),
    }
    (out_dir / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def _write_summary(out_dir: Path, summary: dict[str, PolicySummary]) -> None:
    payload = {"rows": [asdict(row) for row in summary.values()]}
    (out_dir / "summary.json").write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def run_preset(
    config: ScenarioConfig,
    policies=None,
    out_dir=None,
    seed_offset: int = 0,
    quiet: bool = True,
) -> dict[str, PolicySummary]:
    """Run each policy over every configured seed, writing artifacts and a summary.

    With `policies` None the config's own assignment runs and writes its
    metrics CSVs and manifest flat into `out_dir`; named registry policies
    each write into `out_dir/<policy>/`.  `summary.json`, one row per
    policy, goes to `out_dir` either way, which defaults to the config's
    `output_dir`.  Returns each policy's summary by name, in run order.
    """
    out = Path(out_dir if out_dir is not None else config.output_dir)
    seeds = [s + seed_offset for s in config.seeds]
    if policies is None:
        cells = [(None, str(config.policy.assignment), out)]
    else:
        cells = [(policy, policy, out / policy) for policy in policies]

    summary = {}
    for override, name, cell_dir in cells:
        cell_dir.mkdir(parents=True, exist_ok=True)
        results = []
        for seed in seeds:
            csv_path = cell_dir / f"metrics_seed{seed}.csv"
            try:
                result = run_scenario(config, seed, policy=override, csv_path=csv_path)
            except OSError as exc:
                raise OSError(f"failed writing metrics to {csv_path}: {exc}") from exc
            results.append(result)
            if not quiet:
                print(
                    f"[aflsim] policy={name} seed={seed} "
                    f"mean_utility={result.mean_utility:.6g} "
                    f"acceptance_rate={result.acceptance_rate:.3f}"
                )
        _write_manifest(cell_dir, config, name, seeds)
        summary[name] = _summarize(name, results)

    _write_summary(out, summary)
    return summary


def _discover_policy_dirs(runs_dir: Path) -> list[tuple[str, Path]]:
    """Find (policy, dir) pairs holding metrics CSVs under a runs directory."""
    found = []
    if any(runs_dir.glob("metrics_seed*.csv")):
        name = "run"
        manifest = runs_dir / "manifest.json"
        if manifest.exists():
            name = json.loads(manifest.read_text()).get("policy", name)
        found.append((name, runs_dir))
    for child in sorted(runs_dir.iterdir()) if runs_dir.is_dir() else []:
        if child.is_dir() and any(child.glob("metrics_seed*.csv")):
            found.append((child.name, child))
    return found


def emit_plot_data(runs_dir, out_dir) -> list[Path]:
    """Reduce run artifacts to plot-ready tables.

    Writes utility-vs-time and backlog-vs-time series (per policy, averaged
    over data owners and seeds) plus a per-policy comparison bar table.
    """
    runs = Path(runs_dir)
    if not runs.is_dir():
        raise MissingArtifactError(f"runs directory not found: {runs}")
    policy_dirs = _discover_policy_dirs(runs)
    if not policy_dirs:
        raise MissingArtifactError(f"no metrics CSVs under {runs}")

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    utility_rows = []
    backlog_rows = []
    comparison_rows = []
    for policy, policy_dir in policy_dirs:
        utility_by_step: dict[int, list[float]] = {}
        backlog_by_step: dict[int, list[float]] = {}
        prices = []
        for csv_file in sorted(policy_dir.glob("metrics_seed*.csv")):
            with open(csv_file, newline="", encoding="utf-8") as handle:
                for row in csv.DictReader(handle):
                    t = int(row["step"])
                    utility_by_step.setdefault(t, []).append(float(row["utility_u"]))
                    backlog_by_step.setdefault(t, []).append(float(row["pending_q"]))
                    prices.append(float(row["price_p"]))
        for t in sorted(utility_by_step):
            utility_rows.append((policy, t, f"{statistics.fmean(utility_by_step[t]):.9g}"))
            backlog_rows.append((policy, t, f"{statistics.fmean(backlog_by_step[t]):.9g}"))
        all_utilities = [u for step_vals in utility_by_step.values() for u in step_vals]
        all_backlogs = [q for step_vals in backlog_by_step.values() for q in step_vals]
        means = (statistics.fmean(values) for values in (all_utilities, all_backlogs, prices))
        comparison_rows.append((policy, *(f"{mean:.9g}" for mean in means)))

    tables = (
        ("utility_vs_time.csv", ("policy", "step", "mean_utility"), utility_rows),
        ("backlog_vs_time.csv", ("policy", "step", "mean_pending_q"), backlog_rows),
        ("policy_comparison.csv", ("policy", "mean_utility", "mean_pending_q", "mean_price"), comparison_rows),
    )
    paths = []
    for name, header, rows in tables:
        path = out / name
        with open(path, "w", newline="", encoding="utf-8") as handle:
            writer = csv.writer(handle)
            writer.writerow(header)
            writer.writerows(rows)
        paths.append(path)
    return paths


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="aflsim",
        description="Deterministic auction-based federated learning market simulator",
    )
    parser.add_argument("--quiet", action="store_true", help="suppress progress output")
    sub = parser.add_subparsers(dest="verb", required=True)
    for verb, (help_text, policies) in VERBS.items():
        flat = policies is None
        config_help = "scenario JSON (defaults apply when omitted)" if flat else "base scenario JSON"
        out_help = "output directory (default: config output_dir)" if flat else None
        verb_p = sub.add_parser(verb, help=help_text)
        verb_p.add_argument("--config", help=config_help)
        verb_p.add_argument("--out", required=not flat, help=out_help)
        verb_p.add_argument("--seed-offset", type=int, default=0)
    plot_p = sub.add_parser("plotdata", help="emit plot-ready tables from run artifacts")
    plot_p.add_argument("--runs", required=True, help="directory produced by run/compare/ablate")
    plot_p.add_argument("--out", required=True)

    args = parser.parse_args(argv)
    try:
        if args.verb == "plotdata":
            paths = emit_plot_data(args.runs, args.out)
            if not args.quiet:
                for path in paths:
                    print(f"[aflsim] wrote {path}")
        else:
            config = resolve_config({}) if args.config is None else load_config(args.config)
            policies = VERBS[args.verb][1]
            if policies is None and not args.quiet:
                print(json.dumps(asdict(config), indent=2, sort_keys=True))
            summary = run_preset(
                config, policies, out_dir=args.out, seed_offset=args.seed_offset, quiet=args.quiet
            )
            if not args.quiet:
                _print_summary(summary)
    except ConfigError as exc:
        print(f"aflsim: config error: {exc}", file=sys.stderr)
        return 2
    except MissingArtifactError as exc:
        print(f"aflsim: missing artifacts: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"aflsim: i/o error: {exc}", file=sys.stderr)
        return 4
    return 0


def _print_summary(summary: dict[str, PolicySummary]) -> None:
    width = max(map(len, summary))
    print(f"{'policy'.ljust(width)}  mean_utility  std_seeds  mean_backlog  mean_price  accept_rate")
    for row in summary.values():
        print(
            f"{row.policy.ljust(width)}  {row.mean_utility:12.6g}  {row.std_across_seeds:9.3g}  "
            f"{row.mean_backlog:12.6g}  {row.mean_price:10.6g}  {row.acceptance_rate:11.3f}"
        )
