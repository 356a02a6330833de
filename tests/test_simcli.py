import csv
import io
import json
import math
import shutil
import statistics
import sys
from itertools import repeat

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from aflsim import simcli
from aflsim.config import resolve_config
from aflsim.core import CSV_COLUMNS
from aflsim.market import MarketInvariantError
from aflsim.simcli import (
    COMPARE_POLICIES,
    _write_rows,
    emit_plot_data,
    main,
    run_preset,
    run_scenario,
)

TINY = {
    "n_dos": 6,
    "horizon_T": 8,
    "seeds": [1, 2],
    "do_params": {"q0": [0, 4]},
}


def reference_rows_text(metrics) -> str:
    """One step's metrics as `csv.writer` writes them from `format(v, ".9g")`
    for float columns and `str` for the rest."""
    handle = io.StringIO()
    columns = (metrics[name] for name in CSV_COLUMNS)
    csv.writer(handle).writerows(
        zip(*(map(format, c.tolist(), repeat(".9g")) if c.dtype.kind == "f" else map(str, c.tolist()) for c in columns))
    )
    return handle.getvalue()


EDGE_FLOATS = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324, sys.float_info.max, 3.0, -7.0, 1e16]
INT64 = st.integers(-(2**63), 2**63 - 1)


@st.composite
def step_metrics(draw):
    """One step's metrics for 1 to 5 DOs, each column int64 or float64."""
    n = draw(st.integers(1, 5))
    metrics = {}
    for name in CSV_COLUMNS:
        if draw(st.booleans()):
            metrics[name] = np.array(draw(st.lists(INT64, min_size=n, max_size=n)), dtype=np.int64)
        else:
            values = st.one_of(st.sampled_from(EDGE_FLOATS), st.floats())
            metrics[name] = np.array(draw(st.lists(values, min_size=n, max_size=n)), dtype=np.float64)
    return metrics


# A single row that mixes the int64 extremes with the float edge values.
ONE_ROW = [-(2**63), 2**63 - 1, -0.0, math.nan, math.inf, -1, 5e-324, 0, sys.float_info.max, 2.0]


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(metrics=step_metrics())
@example(metrics={name: np.array([value]) for name, value in zip(CSV_COLUMNS, ONE_ROW)})
def test_write_rows_matches_the_csv_writer_reference(metrics):
    handle = io.StringIO()
    _write_rows(handle, metrics)
    assert handle.getvalue() == reference_rows_text(metrics)


def with_policy(name: str):
    return resolve_config({**TINY, "policy": {"assignment": name}})


def test_run_preset_writes_the_config_assignment_into_its_cell_directory(tmp_path):
    cfg = with_policy("pas-afl")
    summary = run_preset(cfg, out_dir=tmp_path)
    seeds_written = sorted(p.name for p in (tmp_path / "pas-afl").glob("metrics_seed*"))
    assert seeds_written == ["metrics_seed1.csv", "metrics_seed2.csv"]  # and no .partial file
    manifest = json.loads((tmp_path / "pas-afl" / "manifest.json").read_text())
    assert manifest["policy"] == "pas-afl"
    assert manifest["resolved_config"]["seeds"] == [1, 2]
    assert manifest["resolved_config"]["n_dos"] == 6

    row = summary["pas-afl"]
    assert row.mean_utility == statistics.fmean(row.per_seed_mean_utility)
    written = json.loads((tmp_path / "summary.json").read_text())
    assert written["rows"][0]["policy"] == "pas-afl"


@pytest.mark.parametrize("verb", ["run", "compare", "ablate"])
def test_every_manifest_reproduces_its_run(tmp_path, verb):
    config_path = tmp_path / "cfg.json"
    config_path.write_text(json.dumps(TINY))
    out = tmp_path / "out"
    assert main(["--quiet", verb, "--config", str(config_path), "--out", str(out)]) == 0
    manifests = sorted(out.rglob("manifest.json"))
    assert len(manifests) == (1 if verb == "run" else len(simcli.VERBS[verb][1]))
    rows = json.loads((out / "summary.json").read_text())["rows"]
    assert sorted(row["policy"] for row in rows) == [manifest.parent.name for manifest in manifests]
    again = tmp_path / "again.csv"
    mismatched = []
    for manifest in manifests:
        cfg = resolve_config(json.loads(manifest.read_text())["resolved_config"])
        beside = sorted(p.name for p in manifest.parent.glob("metrics_seed*.csv"))
        assert beside == sorted(f"metrics_seed{seed}.csv" for seed in cfg.seeds)
        for seed in cfg.seeds:
            run_scenario(cfg, seed, csv_path=again)
            if again.read_bytes() != (manifest.parent / f"metrics_seed{seed}.csv").read_bytes():
                mismatched.append((manifest.parent.name, seed))
    assert mismatched == []


def test_summary_matches_independent_csv_pass(tmp_path):
    cfg = with_policy("ampp-rand")
    summary = run_preset(cfg, out_dir=tmp_path)
    utilities, backlogs, prices = [], [], []
    for seed in (1, 2):
        with open(tmp_path / "ampp-rand" / f"metrics_seed{seed}.csv", newline="") as handle:
            for row in csv.DictReader(handle):
                utilities.append(float(row["utility_u"]))
                backlogs.append(float(row["pending_q"]))
                prices.append(float(row["price_p"]))
    row = summary["ampp-rand"]
    assert row.mean_utility == pytest.approx(statistics.fmean(utilities), abs=1e-9)
    assert row.mean_backlog == pytest.approx(statistics.fmean(backlogs), abs=1e-9)
    assert row.mean_price == pytest.approx(statistics.fmean(prices), abs=1e-9)


def test_plot_data_series_covers_horizon(tmp_path):
    cfg = resolve_config({**TINY, "seeds": [1]})
    run_preset(cfg, out_dir=tmp_path / "runs")
    emit_plot_data(tmp_path / "runs", tmp_path / "plots")
    with open(tmp_path / "plots" / "utility_vs_time.csv", newline="") as handle:
        rows = list(csv.DictReader(handle))
    assert len(rows) == cfg.horizon_T
    assert {int(r["step"]) for r in rows} == set(range(cfg.horizon_T))


def test_cli_reports_wrong_typed_config_with_code_2(tmp_path, capsys):
    config_path = tmp_path / "cfg.json"
    config_path.write_text(json.dumps({"n_dos": "abc"}))
    code = main(["--quiet", "run", "--config", str(config_path), "--out", str(tmp_path / "out")])
    assert code == 2
    assert "config error: n_dos:" in capsys.readouterr().err


def test_cli_reports_a_config_that_is_not_utf8_with_code_2(tmp_path, capsys):
    config_path = tmp_path / "cfg.json"
    config_path.write_bytes(b"\xff\xfe{}")
    code = main(["--quiet", "run", "--config", str(config_path), "--out", str(tmp_path / "out")])
    assert code == 2
    assert capsys.readouterr().err == "aflsim: config error: config: not UTF-8: byte 0xff at offset 0\n"
    assert not (tmp_path / "out").exists()


def test_cli_reports_a_config_nested_too_deeply_with_code_2(tmp_path, capsys):
    config_path = tmp_path / "deep.json"
    config_path.write_text("[" * 100_000)
    code = main(["--quiet", "run", "--config", str(config_path), "--out", str(tmp_path / "out")])
    assert code == 2
    assert capsys.readouterr().err == "aflsim: config error: config: nested deeper than the JSON parser can read\n"
    assert not (tmp_path / "out").exists()


def test_cli_reports_a_broken_invariant_with_code_5(tmp_path, monkeypatch, capsys):
    def step(world):
        raise MarketInvariantError("task ledger off by one")

    monkeypatch.setattr(simcli, "step", step)
    config_path = tmp_path / "cfg.json"
    config_path.write_text(json.dumps(TINY))
    code = main(["--quiet", "run", "--config", str(config_path), "--out", str(tmp_path / "out")])
    assert code == 5
    partial = tmp_path / "out" / "pas-afl" / "metrics_seed1.csv.partial"
    assert capsys.readouterr().err == (
        f"aflsim: invariant broken: task ledger off by one (policy pas-afl, seed 1; partial metrics in {partial})\n"
    )
    assert partial.is_file()


def test_cli_reports_missing_artifacts_with_code_3(tmp_path):
    code = main(["--quiet", "plotdata", "--runs", str(tmp_path / "none"), "--out", str(tmp_path / "o")])
    assert code == 3


# Paths a verb cannot read or write: a run's --out that is a file, a metrics file's partial name
# taken by a directory, a plotdata --out that is a file, and a --config that does not exist.
@pytest.mark.parametrize(
    "case", ["run-out-is-a-file", "partial-metrics-is-a-directory", "plotdata-out-is-a-file", "config-missing"]
)
def test_cli_reports_io_errors_with_code_4(tmp_path, capsys, case):
    config, runs, plots = tmp_path / "cfg.json", tmp_path / "runs", tmp_path / "plots"
    config.write_text(json.dumps(TINY))
    argv, named = ["run", "--config", str(config), "--out", str(runs)], runs
    if case == "run-out-is-a-file":
        runs.write_text("")
    elif case == "partial-metrics-is-a-directory":
        (runs / "pas-afl" / "metrics_seed1.csv.partial").mkdir(parents=True)
        named = f"failed writing metrics to {runs / 'pas-afl' / 'metrics_seed1.csv'}"
    elif case == "plotdata-out-is-a-file":
        run_preset(with_policy("pas-afl"), out_dir=runs)
        plots.write_text("")
        argv, named = ["plotdata", "--runs", str(runs), "--out", str(plots)], plots
    else:
        config.unlink()
        named = config
    assert main(["--quiet", *argv]) == 4
    err = capsys.readouterr().err
    assert err.startswith("aflsim: i/o error: ") and str(named) in err
    if case == "run-out-is-a-file":
        assert f"'{runs}'" in err and "manifest.json" not in err


def stop_at_step(monkeypatch, t: int, world: int) -> None:
    """Patch `simcli.step` to raise at step `t` of the `world`-th world it steps (from 1)."""
    real_step = simcli.step
    worlds = []

    def step(w):
        if w not in worlds:
            worlds.append(w)
        if len(worlds) == world and w.t == t:
            raise MarketInvariantError(f"stopped at step {t} of world {world}")
        return real_step(w)

    monkeypatch.setattr(simcli, "step", step)


def test_a_run_stopped_midway_leaves_no_csv_under_its_final_name(tmp_path, monkeypatch):
    stop_at_step(monkeypatch, 2, world=1)
    with pytest.raises(MarketInvariantError):
        run_preset(with_policy("pas-afl"), out_dir=tmp_path)
    assert not list((tmp_path / "pas-afl").glob("metrics_seed*.csv"))  # the names plotdata reads
    # The partial file holds the header and the two steps that ran.
    lines = (tmp_path / "pas-afl" / "metrics_seed1.csv.partial").read_text().splitlines()
    assert len(lines) == 1 + 2 * TINY["n_dos"]


def test_a_rerun_that_stops_leaves_no_stale_manifest_or_summary(tmp_path, monkeypatch):
    run_preset(resolve_config({**TINY, "horizon_T": 5}), out_dir=tmp_path)
    assert (tmp_path / "pas-afl" / "manifest.json").exists() and (tmp_path / "summary.json").exists()
    stop_at_step(monkeypatch, 2, world=2)
    with pytest.raises(MarketInvariantError):
        run_preset(resolve_config({**TINY, "horizon_T": 3}), out_dir=tmp_path)
    # Seed 1's CSV was rewritten at T=3; no manifest may still describe the T=5 run.
    lines = (tmp_path / "pas-afl" / "metrics_seed1.csv").read_text().splitlines()
    assert len(lines) == 1 + 3 * TINY["n_dos"]
    assert not (tmp_path / "pas-afl" / "manifest.json").exists()
    assert not (tmp_path / "summary.json").exists()


def plotdata_error(runs, tmp_path, capsys) -> str:
    """What `plotdata` prints to stderr on `runs`, where it must exit with code 3 and write nothing."""
    assert main(["--quiet", "plotdata", "--runs", str(runs), "--out", str(tmp_path / "plots")]) == 3
    assert not (tmp_path / "plots").exists()
    return capsys.readouterr().err


def test_plotdata_refuses_a_directory_two_runs_left_stale(tmp_path, monkeypatch, capsys):
    # A T=5 run over seeds 1 and 2, then a T=3 rerun stopped at step 2 of seed 2: seed 1's CSV is
    # the rerun's, seed 2's is the first run's, and no summary or manifest says which run either
    # belongs to.
    runs = tmp_path / "runs"
    run_preset(resolve_config({**TINY, "horizon_T": 5}), out_dir=runs)
    stop_at_step(monkeypatch, 2, world=2)
    with pytest.raises(MarketInvariantError):
        run_preset(resolve_config({**TINY, "horizon_T": 3}), out_dir=runs)
    seeds_written = sorted(p.name for p in (runs / "pas-afl").glob("metrics_seed*.csv"))
    assert seeds_written == ["metrics_seed1.csv", "metrics_seed2.csv"]
    assert "summary.json" in plotdata_error(runs, tmp_path, capsys)


def test_plotdata_refuses_a_run_stopped_midway(tmp_path, monkeypatch, capsys):
    stop_at_step(monkeypatch, 2, world=1)
    with pytest.raises(MarketInvariantError):
        run_preset(with_policy("pas-afl"), out_dir=tmp_path / "runs")
    assert "summary.json" in plotdata_error(tmp_path / "runs", tmp_path, capsys)


def test_plotdata_names_a_metrics_file_its_manifest_does_not_match(tmp_path, capsys):
    runs = tmp_path / "runs"
    run_preset(with_policy("pas-afl"), out_dir=runs)
    # Seed 2's file as a run stopped after step 1 leaves it: the header and two steps' rows.
    seed2 = runs / "pas-afl" / "metrics_seed2.csv"
    seed2.write_text("".join(seed2.read_text().splitlines(keepends=True)[: 1 + 2 * TINY["n_dos"]]))
    err = plotdata_error(runs, tmp_path, capsys)
    assert "metrics_seed2.csv holds 12 rows" in err and "48 (6 DOs x steps 0 to 7)" in err
    (runs / "pas-afl" / "metrics_seed1.csv").unlink()
    assert "metrics_seed1.csv not found" in plotdata_error(runs, tmp_path, capsys)


def test_plotdata_reads_only_the_seeds_its_manifest_names(tmp_path):
    # A T=5 run over seeds 1 and 2, then a whole T=3 run of seed 1 into the same directory: seed
    # 2's stale file stays, and the tables equal those of the T=3 run alone.
    stale = resolve_config({**TINY, "horizon_T": 5})
    fresh = resolve_config({**TINY, "horizon_T": 3, "seeds": [1]})
    run_preset(stale, out_dir=tmp_path / "mixed")
    run_preset(fresh, out_dir=tmp_path / "mixed")
    run_preset(fresh, out_dir=tmp_path / "clean")
    assert (tmp_path / "mixed" / "pas-afl" / "metrics_seed2.csv").exists()
    for name in ("mixed", "clean"):
        emit_plot_data(tmp_path / name, tmp_path / f"{name}-plots")
    for table in ("utility_vs_time.csv", "backlog_vs_time.csv", "policy_comparison.csv"):
        assert (tmp_path / "mixed-plots" / table).read_bytes() == (tmp_path / "clean-plots" / table).read_bytes()


def test_a_run_with_a_per_do_assignment_is_named_mixed(tmp_path):
    assignment = ["pas-afl", "lin-rand", "ampp-greedy", "rand-rand", "pas-afl", "lin-greedy"]
    summary = run_preset(resolve_config({**TINY, "policy": {"assignment": assignment}}), out_dir=tmp_path)
    assert list(summary) == ["mixed"]
    manifest = json.loads((tmp_path / "mixed" / "manifest.json").read_text())
    assert manifest["policy"] == "mixed"
    assert manifest["resolved_config"]["policy"]["assignment"] == assignment
    assert [row["policy"] for row in json.loads((tmp_path / "summary.json").read_text())["rows"]] == ["mixed"]


# Files of a whole pas-afl run over TINY, as plotdata reads them, each rewritten to something it
# cannot tabulate: not JSON, JSON nested deeper than the parser can read, `{}`, a JSON object
# without a key plotdata looks up, a summary that names no cell or a null one, or a manifest that
# names another policy than its cell or whose seeds are a number.
MALFORMED = {
    "summary-not-json": ("summary.json", "not json"),
    "summary-empty": ("summary.json", "{}"),
    "summary-row-without-policy": ("summary.json", '{"rows": [{}]}'),
    "summary-without-rows": ("summary.json", '{"rows": []}'),
    "summary-row-of-null-policy": ("summary.json", '{"rows": [{"policy": null}]}'),
    "summary-nested-too-deeply": ("summary.json", '{"rows": ' + "[" * 100_000),
    "manifest-not-json": ("pas-afl/manifest.json", "not json"),
    "manifest-nested-too-deeply": ("pas-afl/manifest.json", "[" * 100_000),
    "manifest-empty": ("pas-afl/manifest.json", "{}"),
    "manifest-without-horizon": (
        "pas-afl/manifest.json",
        '{"policy": "pas-afl", "resolved_config": {"seeds": [1, 2], "n_dos": 6}}',
    ),
    "manifest-of-another-policy": (
        "pas-afl/manifest.json",
        '{"policy": "lin-rand", "resolved_config": {"seeds": [1, 2], "n_dos": 6, "horizon_T": 8}}',
    ),
    "manifest-of-a-number-of-seeds": (
        "pas-afl/manifest.json",
        '{"policy": "pas-afl", "resolved_config": {"seeds": 1, "n_dos": 6, "horizon_T": 8}}',
    ),
}


@pytest.mark.parametrize("name", list(MALFORMED))
def test_plotdata_names_a_malformed_summary_or_manifest(tmp_path, capsys, name):
    path, text = MALFORMED[name]
    runs = tmp_path / "runs"
    run_preset(with_policy("pas-afl"), out_dir=runs)
    (runs / path).write_text(text)
    assert str(runs / path) in plotdata_error(runs, tmp_path, capsys)


@pytest.mark.parametrize(
    "path, edit",
    [
        ("pas-afl/metrics_seed1.csv", lambda data: b""),
        ("pas-afl/metrics_seed1.csv", lambda data: b"\xff\xfe"),
        ("summary.json", lambda data: json.dumps({"rows": json.loads(data)["rows"] * 2}).encode()),
    ],
    ids=["metrics-empty", "metrics-not-utf-8", "summary-naming-its-cell-twice"],
)
def test_plotdata_names_an_unreadable_metrics_file_or_a_cell_named_twice(tmp_path, capsys, path, edit):
    runs = tmp_path / "runs"
    run_preset(with_policy("pas-afl"), out_dir=runs)
    (runs / path).write_bytes(edit((runs / path).read_bytes()))
    assert str(runs / path) in plotdata_error(runs, tmp_path, capsys)


# Edits to a whole run's manifest that leave every key plotdata reads in place: a resolved_config
# with a key the config no longer has (as manifests from before n_mus and output_dir went hold),
# one without a section, and a manifest that names another cell's policy.
@pytest.mark.parametrize(
    "edit",
    [
        lambda manifest: manifest["resolved_config"].update(n_mus=6),
        lambda manifest: manifest["resolved_config"].update(output_dir="runs_out"),
        lambda manifest: manifest["resolved_config"].pop("mu"),
        lambda manifest: manifest.update(policy="lin-rand"),
    ],
    ids=["with-n_mus", "with-output_dir", "without-mu", "of-another-policy"],
)
def test_plotdata_refuses_a_manifest_a_run_did_not_write(tmp_path, capsys, edit):
    runs = tmp_path / "runs"
    run_preset(with_policy("pas-afl"), out_dir=runs)
    path = runs / "pas-afl" / "manifest.json"
    manifest = json.loads(path.read_text())
    edit(manifest)
    path.write_text(json.dumps(manifest))
    assert str(path) in plotdata_error(runs, tmp_path, capsys)


def test_plotdata_names_the_manifest_of_a_cell_directory_that_is_gone(tmp_path, capsys):
    runs = tmp_path / "runs"
    run_preset(with_policy("pas-afl"), out_dir=runs)
    shutil.rmtree(runs / "pas-afl")
    assert str(runs / "pas-afl" / "manifest.json") in plotdata_error(runs, tmp_path, capsys)


@pytest.mark.parametrize(
    "assignment", ["pas-afl", ["pas-afl", "lin-rand", "pas-afl", "rand-rand"]], ids=["pas-afl", "mixed"]
)
def test_compare_after_run_into_one_directory_tabulates_only_the_compare_cells(tmp_path, assignment):
    base = {"n_dos": 4, "horizon_T": 4, "seeds": [1]}
    (tmp_path / "base.json").write_text(json.dumps(base))
    (tmp_path / "own.json").write_text(json.dumps({**base, "policy": {"assignment": assignment}}))
    sequences = {"both": [("run", "own.json"), ("compare", "base.json")], "clean": [("compare", "base.json")]}
    for name, runs in sequences.items():
        for verb, config in runs:
            assert main(["--quiet", verb, "--config", str(tmp_path / config), "--out", str(tmp_path / name)]) == 0
        assert main(["--quiet", "plotdata", "--runs", str(tmp_path / name), "--out", str(tmp_path / f"{name}-plots")]) == 0
    for table in ("utility_vs_time.csv", "backlog_vs_time.csv", "policy_comparison.csv"):
        assert (tmp_path / "both-plots" / table).read_bytes() == (tmp_path / "clean-plots" / table).read_bytes()
    with open(tmp_path / "both-plots" / "policy_comparison.csv", newline="") as handle:
        assert [row["policy"] for row in csv.DictReader(handle)] == sorted(COMPARE_POLICIES)
