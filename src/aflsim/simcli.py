"""Experiment runner and CLI: seeded runs, CSV metrics, summaries, plot data.

Verbs:
  run       one scenario config, one policy assignment, all seeds
  compare   the 7-policy comparison preset (joint policy vs six baselines)
  ablate    the joint policy vs its five single-component ablations
  plotdata  post-process run artifacts into plot-ready tabular files

The first three are rows of one table, `VERBS`, and share one runner,
`run_preset`, over policies x seeds.  Each verb writes one directory per
cell under the required `--out`, `--out/<policy>/`, and `--out/summary.json`
names the cells; `plotdata` reads the cells it names, and a cell named
twice, a manifest whose `resolved_config` is not a resolved config, or an
unreadable metrics file is a missing artifact (exit code 3).

Every output byte is determined by (config, seed): metrics are one CSV per
seed with a fixed column order and 9-significant-digit floats, and each cell
directory carries a manifest embedding the config its runs used, so that
config run over its seeds writes the same CSVs again.
"""

import argparse
import csv
import json
import os
import sys
from dataclasses import asdict, dataclass, field
from pathlib import Path
from statistics import fmean, pstdev

import numpy as np

from . import __version__
from .config import ConfigError, ScenarioConfig, load_config, resolve_config
from .core import CSV_COLUMNS, sequential_sum
from .market import MarketInvariantError, build_world, step
from .policy_baselines import ABLATION_NAMES, BASELINE_NAMES, POLICIES

COMPARE_POLICIES = ("pas-afl",) + BASELINE_NAMES
ABLATE_POLICIES = ("pas-afl",) + ABLATION_NAMES

# verb -> (help, the registry policies it runs; None runs the config's own assignment), each into --out/<policy>/
VERBS = {
    "run": ("run one scenario config over its seeds", None),
    "compare": ("run the 7-policy comparison preset", COMPARE_POLICIES),
    "ablate": ("run the 5 single-component ablations", ABLATE_POLICIES),
}


class MissingArtifactError(FileNotFoundError):
    """Expected run artifacts (metrics CSVs, manifests, summary) are absent or unreadable."""


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


def run_scenario(config: ScenarioConfig, seed: int, csv_path=None) -> RunResult:
    """Run one seeded world for the configured horizon.

    With `csv_path` set, the CSV header goes out first and each step's
    metrics rows follow, through `_write_rows`, as the step produces them.
    They go to `<csv_path>.partial`, which moves to `csv_path` after the last
    step: a CSV under its final name holds a whole run, and a run that stops
    midway leaves only the partial file.
    """
    world = build_world(config, seed)

    mean_q = np.empty(config.horizon_T)
    max_Q = np.empty(config.horizon_T)

    handle = None
    if csv_path is not None:
        partial = f"{csv_path}.partial"
        handle = open(partial, "w", newline="", encoding="utf-8")
        handle.write(",".join(CSV_COLUMNS) + "\r\n")
    try:
        for t in range(config.horizon_T):
            metrics = step(world)
            mean_q[t] = sequential_sum(metrics["pending_q"]) / config.n_dos
            max_Q[t] = metrics["urgency_Q"].max()
            if handle is not None:
                _write_rows(handle, metrics)
    finally:
        if handle is not None:
            handle.close()
    if handle is not None:
        os.replace(partial, csv_path)

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


def _write_rows(handle, metrics: dict[str, np.ndarray]) -> None:
    """Write one step's metrics in one call, a CSV line per DO: `%d` for integer columns, `%.9g` for
    float ones.  `%` and `format` share CPython's float formatting and no number needs quoting, so
    the bytes are those of `csv.writer` over `format(v, ".9g")`."""
    columns = [metrics[name] for name in CSV_COLUMNS]
    fmt = ",".join("%.9g" if column.dtype.kind == "f" else "%d" for column in columns) + "\r\n"
    handle.write("".join(map(fmt.__mod__, zip(*(column.tolist() for column in columns)))))


def _summarize(policy: str, results: list[RunResult]) -> PolicySummary:
    per_seed = [r.mean_utility for r in results]
    return PolicySummary(
        policy=policy,
        mean_utility=fmean(per_seed),
        std_across_seeds=pstdev(per_seed),
        mean_backlog=fmean(r.mean_backlog for r in results),
        mean_price=fmean(r.mean_price for r in results),
        acceptance_rate=fmean(r.acceptance_rate for r in results),
        per_seed_mean_utility=per_seed,
    )


def _write_json(path: Path, payload) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def run_preset(config: ScenarioConfig, policies=None, *, out_dir, quiet: bool = True) -> dict[str, PolicySummary]:
    """Run each policy over the config's seeds, writing artifacts and a summary.

    With `policies` None the config's own assignment runs, named by its
    policy or `mixed` for a per-DO list; each named registry policy runs on
    the config with every DO assigned to it.  Either way a cell writes its
    metrics CSVs and a manifest embedding the config it ran into
    `out_dir/<name>/`, and `summary.json`, one row per cell, goes to
    `out_dir`.  The manifests and summary about to be written are removed
    before the first cell runs, so a run that stops leaves none naming its
    files.  Returns each policy's summary by name, in run order.
    """
    out = Path(out_dir)
    assignment = config.policy.assignment
    names = (assignment if isinstance(assignment, str) else "mixed",) if policies is None else policies
    cells = [(name, config if policies is None else config.with_assignment(name), out / name) for name in names]
    for *_, cell_dir in cells:
        (cell_dir / "manifest.json").unlink(missing_ok=True)
    (out / "summary.json").unlink(missing_ok=True)

    summary = {}
    for name, cell_config, cell_dir in cells:
        cell_dir.mkdir(parents=True, exist_ok=True)
        results = []
        for seed in cell_config.seeds:
            csv_path = cell_dir / f"metrics_seed{seed}.csv"
            try:
                result = run_scenario(cell_config, seed, csv_path=csv_path)
            except OSError as exc:
                raise OSError(f"failed writing metrics to {csv_path}: {exc}") from exc
            results.append(result)
            if not quiet:
                print(
                    f"[aflsim] policy={name} seed={seed} "
                    f"mean_utility={result.mean_utility:.6g} "
                    f"acceptance_rate={result.acceptance_rate:.3f}"
                )
        manifest = {"package_version": __version__, "policy": name, "resolved_config": asdict(cell_config)}
        _write_json(cell_dir / "manifest.json", manifest)
        summary[name] = _summarize(name, results)

    _write_json(out / "summary.json", {"rows": [asdict(row) for row in summary.values()]})
    return summary


def _read(path: Path, parse):
    """`parse` applied to the text of `path`.  A file that is missing, is not
    UTF-8, or that `parse` rejects is a MissingArtifactError naming it."""
    try:
        return parse(path.read_text(encoding="utf-8"))
    except (OSError, ValueError, LookupError, TypeError) as exc:
        why = "not found" if isinstance(exc, FileNotFoundError) else f"is malformed ({type(exc).__name__}: {exc})"
        raise MissingArtifactError(f"{path} {why}") from exc


def _cell_names(text: str) -> list[str]:
    """The cells a summary names, sorted: at least one, each once, each a registry policy or `mixed`."""
    names = [row["policy"] for row in json.loads(text)["rows"]]
    if not names or len(set(names)) < len(names) or not set(names) <= {*POLICIES, "mixed"}:
        raise ValueError(f"names cells {names}, not one or more distinct registry policies or mixed")
    return sorted(names)


def _manifest(text: str) -> tuple[str, ScenarioConfig]:
    """A manifest's policy and config; its `resolved_config` must be the one `resolve_config` makes of it."""
    manifest = json.loads(text)
    cfg = resolve_config(manifest["resolved_config"])
    if json.loads(json.dumps(asdict(cfg))) != manifest["resolved_config"]:
        raise ValueError("resolved_config is not a resolved config")
    return manifest["policy"], cfg


def _metrics(text: str) -> tuple[list[str], np.ndarray]:
    """A metrics CSV's header, and its rows as one float array."""
    header, *rows = csv.reader(text.splitlines())
    return header, np.array(rows, dtype=float).reshape(len(rows), len(header))


def emit_plot_data(runs_dir, out_dir) -> list[Path]:
    """Reduce run artifacts to plot-ready tables.

    Reads the cells `runs_dir/summary.json` names, in sorted name order: for
    each, `runs_dir/<policy>/manifest.json`, and then exactly
    `metrics_seed<s>.csv` beside it for each of the manifest's seeds, each
    the header and then n_dos x horizon_T rows for steps 0 to horizon_T - 1.
    Every file goes through `_read`, and anything else is a
    MissingArtifactError naming the file: one missing or not UTF-8, a cell
    named twice or not a policy, a manifest whose `resolved_config` is not a
    resolved config, or a metrics file not of that shape.  Writes
    utility-vs-time and backlog-vs-time series (per policy, averaged over
    data owners and seeds) plus a per-policy comparison bar table.
    """
    runs = Path(runs_dir)
    names = _read(runs / "summary.json", _cell_names)

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    utility_rows, backlog_rows, comparison_rows = [], [], []
    for name in names:
        manifest = runs / name / "manifest.json"
        policy, cfg = _read(manifest, _manifest)
        if policy != name:
            raise MissingArtifactError(f"{manifest} names policy {policy!r}, not {name!r}")
        per_seed = []
        for seed in cfg.seeds:
            csv_file = manifest.parent / f"metrics_seed{seed}.csv"
            header, table = _read(csv_file, _metrics)
            if header != CSV_COLUMNS or not np.array_equal(table[:, 0], np.arange(cfg.horizon_T).repeat(cfg.n_dos)):
                raise MissingArtifactError(
                    f"{csv_file} holds {len(table)} rows; {manifest} names the header and then "
                    f"{cfg.n_dos * cfg.horizon_T} ({cfg.n_dos} DOs x steps 0 to {cfg.horizon_T - 1})"
                )
            per_seed.append(table)
        # Three columns shaped (step, DO x seed); fmean's fsum is exactly rounded, so no mean depends on term order.
        cell = np.stack(per_seed, axis=1).reshape(cfg.horizon_T, -1, len(CSV_COLUMNS))
        utility_u, pending_q, price_p = (cell[..., CSV_COLUMNS.index(c)] for c in ("utility_u", "pending_q", "price_p"))
        utility_rows += ((name, t, f"{fmean(u):.9g}") for t, u in enumerate(utility_u.tolist()))
        backlog_rows += ((name, t, f"{fmean(q):.9g}") for t, q in enumerate(pending_q.tolist()))
        comparison_rows.append((name, *(f"{fmean(c.ravel().tolist()):.9g}" for c in (utility_u, pending_q, price_p))))

    tables = (
        ("utility_vs_time.csv", ("policy", "step", "mean_utility"), utility_rows),
        ("backlog_vs_time.csv", ("policy", "step", "mean_pending_q"), backlog_rows),
        ("policy_comparison.csv", ("policy", "mean_utility", "mean_pending_q", "mean_price"), comparison_rows),
    )
    for name, header, rows in tables:
        with open(out / name, "w", newline="", encoding="utf-8") as handle:
            csv.writer(handle).writerows([header, *rows])
    return [out / name for name, *_ in tables]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="aflsim",
        description="Deterministic auction-based federated learning market simulator",
    )
    parser.add_argument("--quiet", action="store_true", help="suppress progress output")
    sub = parser.add_subparsers(dest="verb", required=True)
    for verb, (help_text, policies) in VERBS.items():
        config_help = "scenario JSON (defaults apply when omitted)" if policies is None else "base scenario JSON"
        verb_p = sub.add_parser(verb, help=help_text)
        verb_p.add_argument("--config", help=config_help)
        verb_p.add_argument("--out", required=True)
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
            summary = run_preset(config, policies, out_dir=args.out, quiet=args.quiet)
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
    except MarketInvariantError as exc:
        print(f"aflsim: invariant broken: {exc}", file=sys.stderr)
        return 5
    return 0


def _print_summary(summary: dict[str, PolicySummary]) -> None:
    width = max(map(len, summary))
    print(f"{'policy'.ljust(width)}  mean_utility  std_seeds  mean_backlog  mean_price  accept_rate")
    for row in summary.values():
        print(
            f"{row.policy.ljust(width)}  {row.mean_utility:12.6g}  {row.std_across_seeds:9.3g}  "
            f"{row.mean_backlog:12.6g}  {row.mean_price:10.6g}  {row.acceptance_rate:11.3f}"
        )
