"""Experiment runner and CLI: seeded runs, CSV metrics, summaries, plot data.

Verbs:
  run       one scenario config, one policy assignment, all seeds
  compare   the 7-policy comparison preset (joint policy vs six baselines)
  ablate    the joint policy vs its five single-component ablations
  plotdata  post-process run artifacts into plot-ready tabular files

The first three share one runner, `run_preset`, over policies x seeds:
`run` passes no policy names and writes flat into its output directory,
`compare` and `ablate` pass registry names and write one directory per
policy.

Every output byte is determined by (config, seed): metrics are one CSV per
seed with a fixed column order and 9-significant-digit floats, and each run
directory carries a manifest embedding the resolved config.
"""

import argparse
import csv
import json
import statistics
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .config import ConfigError, ScenarioConfig, config_to_dict, load_config, resolve_config
from .core import CSV_COLUMNS
from .market import build_world, step
from .policy_baselines import ABLATION_NAMES, BASELINE_NAMES

COMPARE_POLICIES = ("pas-afl",) + BASELINE_NAMES
ABLATE_POLICIES = ("pas-afl",) + ABLATION_NAMES


class MissingArtifactError(FileNotFoundError):
    """Expected run artifacts (metrics CSVs, summary) are absent."""


@dataclass
class RunResult:
    """Aggregates from one seeded run; heavy per-record data is optional."""

    policy: str
    seed: int
    n_dos: int
    horizon: int
    mean_utility: float
    mean_backlog: float
    mean_price: float
    acceptance_rate: float
    per_step_mean_q: np.ndarray
    per_step_max_Q: np.ndarray
    audit_checks: int
    price_degenerate_steps: int
    records: list | None = None
    initial_q: dict[int, float] | None = None
    initial_Q: dict[int, float] | None = None


@dataclass
class PolicySummary:
    policy: str
    mean_utility: float
    std_across_seeds: float
    mean_backlog: float
    mean_price: float
    acceptance_rate: float
    per_seed_mean_utility: list[float] = field(default_factory=list)


@dataclass
class RunSummary:
    rows: list[PolicySummary]

    def row_for(self, policy: str) -> PolicySummary:
        for row in self.rows:
            if row.policy == policy:
                return row
        raise KeyError(policy)


def run_scenario(
    config: ScenarioConfig,
    seed: int,
    policy: str | None = None,
    retain_records: bool = False,
    csv_path=None,
) -> RunResult:
    """Run one seeded world for the configured horizon.

    With `csv_path` set, metrics stream to disk as they are produced; with
    `retain_records` they are also kept in memory (small scenarios only).
    """
    world = build_world(config, seed, policy_override=policy)
    kept = [] if retain_records else None
    initial_q = {i: s.pending_q for i, s in world.states.items()}
    initial_Q = {i: s.urgency_Q for i, s in world.states.items()}

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
            records = step(world)
            mean_q[t] = sum(r.pending_q for r in records) / len(records)
            max_Q[t] = max(r.urgency_Q for r in records)
            if writer is not None:
                writer.writerows(r.to_csv_row() for r in records)
            if kept is not None:
                kept.extend(records)
    finally:
        if handle is not None:
            handle.close()

    denom = max(world.record_count, 1)
    return RunResult(
        policy=policy or str(config.policy.assignment),
        seed=seed,
        n_dos=config.n_dos,
        horizon=config.horizon_T,
        mean_utility=world.utility_sum / denom,
        mean_backlog=world.backlog_sum / denom,
        mean_price=world.price_sum / denom,
        acceptance_rate=world.accept_count / denom,
        per_step_mean_q=mean_q,
        per_step_max_Q=max_Q,
        audit_checks=world.audit_checks,
        price_degenerate_steps=world.degenerate_price_steps,
        records=kept,
        initial_q=initial_q,
        initial_Q=initial_Q,
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
        "resolved_config": config_to_dict(config),
    }
    (out_dir / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def _write_summary(out_dir: Path, summary: RunSummary) -> None:
    payload = {
        "rows": [
            {
                "policy": row.policy,
                "mean_utility": row.mean_utility,
                "std_across_seeds": row.std_across_seeds,
                "mean_backlog": row.mean_backlog,
                "mean_price": row.mean_price,
                "acceptance_rate": row.acceptance_rate,
                "per_seed_mean_utility": row.per_seed_mean_utility,
            }
            for row in summary.rows
        ]
    }
    (out_dir / "summary.json").write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def run_preset(
    config: ScenarioConfig,
    policies=None,
    out_dir=None,
    seed_offset: int = 0,
    quiet: bool = True,
) -> RunSummary:
    """Run each policy over every configured seed, writing artifacts and a summary.

    With `policies` None the config's own assignment runs and writes its
    metrics CSVs and manifest flat into `out_dir`; named registry policies
    each write into `out_dir/<policy>/`.  `summary.json`, one row per
    policy, goes to `out_dir` either way, which defaults to the config's
    `output_dir`.
    """
    out = Path(out_dir if out_dir is not None else config.output_dir)
    seeds = [s + seed_offset for s in config.seeds]
    if policies is None:
        cells = [(None, str(config.policy.assignment), out)]
    else:
        cells = [(policy, policy, out / policy) for policy in policies]

    rows = []
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
        rows.append(_summarize(name, results))

    summary = RunSummary(rows=rows)
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


def _read_metrics(csv_path: Path):
    with open(csv_path, newline="", encoding="utf-8") as handle:
        reader = csv.DictReader(handle)
        for row in reader:
            yield row


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
        csv_files = sorted(policy_dir.glob("metrics_seed*.csv"))
        utility_by_step: dict[int, list[float]] = {}
        backlog_by_step: dict[int, list[float]] = {}
        prices = []
        for csv_file in csv_files:
            for row in _read_metrics(csv_file):
                t = int(row["step"])
                utility_by_step.setdefault(t, []).append(float(row["utility_u"]))
                backlog_by_step.setdefault(t, []).append(float(row["pending_q"]))
                prices.append(float(row["price_p"]))
        for t in sorted(utility_by_step):
            utility_rows.append((policy, t, statistics.fmean(utility_by_step[t])))
            backlog_rows.append((policy, t, statistics.fmean(backlog_by_step[t])))
        all_utilities = [u for step_vals in utility_by_step.values() for u in step_vals]
        all_backlogs = [q for step_vals in backlog_by_step.values() for q in step_vals]
        comparison_rows.append(
            (
                policy,
                statistics.fmean(all_utilities),
                statistics.fmean(all_backlogs),
                statistics.fmean(prices),
            )
        )

    paths = []
    utility_path = out / "utility_vs_time.csv"
    with open(utility_path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["policy", "step", "mean_utility"])
        writer.writerows((p, t, f"{v:.9g}") for p, t, v in utility_rows)
    paths.append(utility_path)

    backlog_path = out / "backlog_vs_time.csv"
    with open(backlog_path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["policy", "step", "mean_pending_q"])
        writer.writerows((p, t, f"{v:.9g}") for p, t, v in backlog_rows)
    paths.append(backlog_path)

    comparison_path = out / "policy_comparison.csv"
    with open(comparison_path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["policy", "mean_utility", "mean_pending_q", "mean_price"])
        writer.writerows(
            (p, f"{u:.9g}", f"{q:.9g}", f"{pr:.9g}") for p, u, q, pr in comparison_rows
        )
    paths.append(comparison_path)
    return paths


def _load_config_arg(path_arg: str | None) -> ScenarioConfig:
    if path_arg is None:
        return resolve_config({})
    return load_config(path_arg)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="aflsim",
        description="Deterministic auction-based federated learning market simulator",
    )
    parser.add_argument("--quiet", action="store_true", help="suppress progress output")
    sub = parser.add_subparsers(dest="verb", required=True)

    run_p = sub.add_parser("run", help="run one scenario config over its seeds")
    run_p.add_argument("--config", help="scenario JSON (defaults apply when omitted)")
    run_p.add_argument("--out", help="output directory (default: config output_dir)")
    run_p.add_argument("--seed-offset", type=int, default=0)

    cmp_p = sub.add_parser("compare", help="run the 7-policy comparison preset")
    cmp_p.add_argument("--config", help="base scenario JSON")
    cmp_p.add_argument("--out", required=True)
    cmp_p.add_argument("--seed-offset", type=int, default=0)

    abl_p = sub.add_parser("ablate", help="run the 5 single-component ablations")
    abl_p.add_argument("--config", help="base scenario JSON")
    abl_p.add_argument("--out", required=True)
    abl_p.add_argument("--seed-offset", type=int, default=0)

    plot_p = sub.add_parser("plotdata", help="emit plot-ready tables from run artifacts")
    plot_p.add_argument("--runs", required=True, help="directory produced by run/compare/ablate")
    plot_p.add_argument("--out", required=True)

    args = parser.parse_args(argv)
    try:
        if args.verb == "run":
            config = _load_config_arg(args.config)
            if not args.quiet:
                print(json.dumps(config_to_dict(config), indent=2, sort_keys=True))
            summary = run_preset(
                config, out_dir=args.out, seed_offset=args.seed_offset, quiet=args.quiet
            )
            _print_summary(summary, args.quiet)
        elif args.verb in ("compare", "ablate"):
            config = _load_config_arg(args.config)
            policies = COMPARE_POLICIES if args.verb == "compare" else ABLATE_POLICIES
            summary = run_preset(
                config, policies, out_dir=args.out, seed_offset=args.seed_offset, quiet=args.quiet
            )
            _print_summary(summary, args.quiet)
        elif args.verb == "plotdata":
            paths = emit_plot_data(args.runs, args.out)
            if not args.quiet:
                for path in paths:
                    print(f"[aflsim] wrote {path}")
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


def _print_summary(summary: RunSummary, quiet: bool) -> None:
    if quiet:
        return
    width = max(len(row.policy) for row in summary.rows)
    print(f"{'policy'.ljust(width)}  mean_utility  std_seeds  mean_backlog  mean_price  accept_rate")
    for row in summary.rows:
        print(
            f"{row.policy.ljust(width)}  {row.mean_utility:12.6g}  {row.std_across_seeds:9.3g}  "
            f"{row.mean_backlog:12.6g}  {row.mean_price:10.6g}  {row.acceptance_rate:11.3f}"
        )


if __name__ == "__main__":
    raise SystemExit(main())
