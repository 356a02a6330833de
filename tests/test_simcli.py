import csv
import json
import math
import statistics

import pytest

from aflsim.config import ConfigError, load_config, resolve_config
from aflsim.simcli import (
    COMPARE_POLICIES,
    MissingArtifactError,
    emit_plot_data,
    main,
    run_preset,
)

TINY = {
    "n_dos": 6,
    "horizon_T": 8,
    "seeds": [1, 2],
    "do_params": {"q0": [0, 4]},
}


def test_defaults_fill_minimal_config():
    cfg = resolve_config({})
    assert cfg.n_dos == 100
    assert cfg.n_mus == 6
    assert cfg.trust_edge_prob == 0.7
    assert cfg.horizon_T == 500
    assert cfg.data_size_range == (1000, 10000)
    assert cfg.seeds == tuple(range(1, 11))
    assert cfg.constants.a1 > 0


def test_bad_edge_probability_names_field():
    with pytest.raises(ConfigError) as err:
        resolve_config({"trust_edge_prob": 1.3})
    assert err.value.field == "trust_edge_prob"


def test_empty_seed_list_names_field():
    with pytest.raises(ConfigError) as err:
        resolve_config({"seeds": []})
    assert err.value.field == "seeds"


def test_duplicate_seeds_name_field():
    with pytest.raises(ConfigError) as err:
        resolve_config({"seeds": [1, 2, 1]})
    assert err.value.field == "seeds"


def test_unknown_policy_rejected():
    with pytest.raises(ConfigError) as err:
        resolve_config({"policy": {"assignment": "mystery"}})
    assert err.value.field == "policy.assignment"


def test_mu_roster_length_must_match_n_mus():
    with pytest.raises(ConfigError) as err:
        resolve_config({"n_mus": 3})
    assert err.value.field == "n_mus"


def test_inverted_range_rejected():
    with pytest.raises(ConfigError) as err:
        resolve_config({"do_params": {"rho": [5.0, 1.0]}})
    assert err.value.field == "do_params.rho"


def test_unknown_keys_rejected():
    with pytest.raises(ConfigError):
        resolve_config({"surprise": 1})


def test_per_do_assignment_must_cover_every_do():
    with pytest.raises(ConfigError) as err:
        resolve_config({"n_dos": 3, "policy": {"assignment": ["pas-afl", "lin-rand"]}})
    assert err.value.field == "policy.assignment"


def test_load_config_round_trip(tmp_path):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({"n_dos": 9, "horizon_T": 4}))
    cfg = load_config(path)
    assert cfg.n_dos == 9
    assert cfg.horizon_T == 4


def test_load_config_reports_parse_position(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{\n  'bad': 1\n}")
    with pytest.raises(ConfigError) as err:
        load_config(path)
    assert "line" in str(err.value)


def with_policy(name: str):
    return resolve_config({**TINY, "policy": {"assignment": name}})


def test_run_preset_writes_flat_artifacts_for_the_config_assignment(tmp_path):
    cfg = with_policy("pas-afl")
    summary = run_preset(cfg, out_dir=tmp_path)
    assert (tmp_path / "metrics_seed1.csv").exists()
    assert (tmp_path / "metrics_seed2.csv").exists()
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["policy"] == "pas-afl"
    assert manifest["seeds"] == [1, 2]
    assert manifest["resolved_config"]["n_dos"] == 6

    row = summary.row_for("pas-afl")
    assert row.mean_utility == statistics.fmean(row.per_seed_mean_utility)
    written = json.loads((tmp_path / "summary.json").read_text())
    assert written["rows"][0]["policy"] == "pas-afl"


def test_rerun_is_byte_identical(tmp_path):
    cfg = with_policy("rand-rand")
    run_preset(cfg, out_dir=tmp_path / "a")
    run_preset(cfg, out_dir=tmp_path / "b")
    for seed in (1, 2):
        a = (tmp_path / "a" / f"metrics_seed{seed}.csv").read_bytes()
        b = (tmp_path / "b" / f"metrics_seed{seed}.csv").read_bytes()
        assert a == b


def test_seed_offset_shifts_all_seeds(tmp_path):
    cfg = resolve_config(TINY)
    run_preset(cfg, out_dir=tmp_path, seed_offset=100)
    assert (tmp_path / "metrics_seed101.csv").exists()
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["seeds"] == [101, 102]


def test_summary_matches_independent_csv_pass(tmp_path):
    cfg = with_policy("ampp-rand")
    summary = run_preset(cfg, out_dir=tmp_path)
    utilities, backlogs, prices = [], [], []
    for seed in (1, 2):
        with open(tmp_path / f"metrics_seed{seed}.csv", newline="") as handle:
            for row in csv.DictReader(handle):
                utilities.append(float(row["utility_u"]))
                backlogs.append(float(row["pending_q"]))
                prices.append(float(row["price_p"]))
    row = summary.row_for("ampp-rand")
    assert row.mean_utility == pytest.approx(statistics.fmean(utilities), abs=1e-9)
    assert row.mean_backlog == pytest.approx(statistics.fmean(backlogs), abs=1e-9)
    assert row.mean_price == pytest.approx(statistics.fmean(prices), abs=1e-9)


def test_plot_data_requires_artifacts(tmp_path):
    with pytest.raises(MissingArtifactError):
        emit_plot_data(tmp_path / "nowhere", tmp_path / "out")
    empty = tmp_path / "empty"
    empty.mkdir()
    with pytest.raises(MissingArtifactError):
        emit_plot_data(empty, tmp_path / "out")


def test_plot_data_series_covers_horizon(tmp_path):
    cfg = resolve_config({**TINY, "seeds": [1]})
    run_preset(cfg, out_dir=tmp_path / "runs")
    emit_plot_data(tmp_path / "runs", tmp_path / "plots")
    with open(tmp_path / "plots" / "utility_vs_time.csv", newline="") as handle:
        rows = list(csv.DictReader(handle))
    assert len(rows) == cfg.horizon_T
    assert {int(r["step"]) for r in rows} == set(range(cfg.horizon_T))


def test_comparison_preset_yields_seven_rows(tmp_path):
    cfg = resolve_config({"n_dos": 5, "horizon_T": 5, "seeds": [1]})
    summary = run_preset(cfg, COMPARE_POLICIES, out_dir=tmp_path / "runs")
    assert [row.policy for row in summary.rows] == list(COMPARE_POLICIES)

    emit_plot_data(tmp_path / "runs", tmp_path / "plots")
    with open(tmp_path / "plots" / "policy_comparison.csv", newline="") as handle:
        rows = list(csv.DictReader(handle))
    assert len(rows) == 7


def test_cli_run_verb(tmp_path):
    config_path = tmp_path / "cfg.json"
    config_path.write_text(json.dumps(TINY))
    code = main(["--quiet", "run", "--config", str(config_path), "--out", str(tmp_path / "out")])
    assert code == 0
    assert (tmp_path / "out" / "metrics_seed1.csv").exists()


def test_cli_reports_config_errors_with_code_2(tmp_path):
    config_path = tmp_path / "cfg.json"
    config_path.write_text(json.dumps({"trust_edge_prob": 2.0}))
    code = main(["--quiet", "run", "--config", str(config_path), "--out", str(tmp_path / "out")])
    assert code == 2


def test_cli_reports_missing_artifacts_with_code_3(tmp_path):
    code = main(["--quiet", "plotdata", "--runs", str(tmp_path / "none"), "--out", str(tmp_path / "o")])
    assert code == 3


def test_cli_compare_and_ablate_verbs(tmp_path):
    config_path = tmp_path / "cfg.json"
    config_path.write_text(json.dumps({"n_dos": 4, "horizon_T": 4, "seeds": [1]}))
    assert main(["--quiet", "compare", "--config", str(config_path),
                 "--out", str(tmp_path / "cmp")]) == 0
    summary = json.loads((tmp_path / "cmp" / "summary.json").read_text())
    assert len(summary["rows"]) == 7
    assert main(["--quiet", "ablate", "--config", str(config_path),
                 "--out", str(tmp_path / "abl")]) == 0
    summary = json.loads((tmp_path / "abl" / "summary.json").read_text())
    assert len(summary["rows"]) == 6  # the joint policy plus five ablations


def test_cli_plotdata_verb(tmp_path):
    config_path = tmp_path / "cfg.json"
    config_path.write_text(json.dumps({**TINY, "seeds": [4]}))
    assert main(["--quiet", "run", "--config", str(config_path), "--out", str(tmp_path / "runs")]) == 0
    assert main(["--quiet", "plotdata", "--runs", str(tmp_path / "runs"), "--out", str(tmp_path / "plots")]) == 0
    assert (tmp_path / "plots" / "backlog_vs_time.csv").exists()
