"""Config parsing, command flows, and exit codes of the console interface."""

import json
import logging
import warnings
from dataclasses import replace

import numpy as np
import pytest

from teamopt import cli, discriminative, evaluation, voi
from teamopt.cli import (DEFAULT_COSTS, DEFAULT_LAMBDA_GRID, RunConfig,
                         apply_overrides, build_parser, cmd_verify,
                         config_from_dict, load_config, main)
from teamopt.data import load_csv
from teamopt.errors import ConfigError
from teamopt.evaluation import APPROACHES
from teamopt.numerics import GradientSet


def tiny_config(out, **overrides):
    cfg = {
        "dataset": {"synthetic": {"num_classes": 3, "feature_dim": 4,
                                  "n": 400, "class_priors": [0.5, 0.3, 0.2],
                                  "seed": 1}},
        "train": {"iterations": 25, "hidden_dims": [4],
                  "calibration_interval": 10},
        "approaches": ["human-only", "fixed-voi"],
        "costs": [0.0, 0.1],
        "lambda_grid": [1.0],
        "seeds": [0],
        "out": str(out),
    }
    cfg.update(overrides)
    return cfg


def write_config(tmp_path, cfg, name="run.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


# --- config parsing -----------------------------------------------------------

def test_empty_config_uses_defaults():
    cfg = config_from_dict({})
    assert cfg.synth is not None and cfg.csv_path is None
    assert cfg.costs == DEFAULT_COSTS
    assert cfg.lambda_grid == DEFAULT_LAMBDA_GRID
    assert cfg.seeds == (0,) and cfg.out == "out"
    assert cfg.train.iterations == 2000


def test_config_coerces_lists_and_casts():
    cfg = config_from_dict({
        "train": {"hidden_dims": [8, 4], "iterations": 10},
        "costs": [0, 1], "seeds": ["3"], "approaches": ["human-only"],
        "team": {"utility": [[1, 0], [0, 1]], "query_cost": 0.2}})
    assert cfg.train.hidden_dims == (8, 4)
    assert cfg.costs == (0.0, 1.0) and cfg.seeds == (3,)
    assert isinstance(cfg.utility, np.ndarray)
    assert cfg.query_cost == 0.2


@pytest.mark.parametrize("raw", [
    {"surprise": 1},
    {"dataset": {"synthetic": {}, "csv": "x.csv", "num_classes": 2}},
    {"dataset": {"csv": "x.csv"}},  # csv needs num_classes
    {"dataset": {"synthetic": {"bogus_knob": 3}}},
    {"train": {"bogus_knob": 3}},
    {"approaches": ["quantum"]},
    {"approaches": []},
    {"costs": []},
    {"formats": ["pdf"]},
    {"team": {"bribe": 1}},
])
def test_config_rejections(raw):
    with pytest.raises(ConfigError):
        config_from_dict(raw)


def test_load_config_errors(tmp_path):
    assert load_config(None).synth is not None
    with pytest.raises(ConfigError):
        load_config(str(tmp_path / "absent.json"))
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    with pytest.raises(ConfigError):
        load_config(str(bad))
    arr = tmp_path / "arr.json"
    arr.write_text("[1, 2]")
    with pytest.raises(ConfigError):
        load_config(str(arr))


def test_apply_overrides():
    parser = build_parser()
    args = parser.parse_args(["sweep", "--seed", "7", "--out", "elsewhere",
                              "--costs", "0.1,0.3"])
    cfg = apply_overrides(RunConfig(), args)
    assert cfg.seeds == (7,)
    assert cfg.out == "elsewhere"
    assert cfg.costs == (0.1, 0.3)
    args = parser.parse_args(["sweep", "--costs", "0.1,spam"])
    with pytest.raises(ConfigError):
        apply_overrides(RunConfig(), args)


# --- command flows ---------------------------------------------------------------

def test_generate_writes_loadable_csv(tmp_path):
    path = write_config(tmp_path, tiny_config(tmp_path / "gen"))
    assert main(["generate", "--config", path]) == 0
    ds = load_csv(tmp_path / "gen" / "dataset.csv", 3)
    assert len(ds) == 400 and ds.feature_dim == 4


def test_generate_rejects_csv_source(tmp_path):
    data_cfg = tiny_config(tmp_path / "gen")
    assert main(["generate", "--config", write_config(tmp_path, data_cfg)]) == 0
    csv_cfg = tiny_config(tmp_path / "gen2")
    csv_cfg["dataset"] = {"csv": str(tmp_path / "gen" / "dataset.csv"),
                          "num_classes": 3}
    path = write_config(tmp_path, csv_cfg, "csv.json")
    assert main(["generate", "--config", path]) == 2


def test_sweep_writes_reports_and_repeats_bytewise(tmp_path):
    out = tmp_path / "out"
    path = write_config(tmp_path, tiny_config(out))
    assert main(["sweep", "--config", path]) == 0
    names = sorted(p.name for p in out.iterdir())
    assert names == ["loss_vs_cost.svg", "sweep.csv", "sweep.json"]
    first = (out / "sweep.json").read_bytes()
    first_csv = (out / "sweep.csv").read_bytes()
    assert main(["sweep", "--config", path]) == 0
    assert (out / "sweep.json").read_bytes() == first
    assert (out / "sweep.csv").read_bytes() == first_csv
    payload = json.loads(first.decode())
    assert [r["approach"] for r in payload] == ["fixed-voi", "human-only"]
    for rec in payload[0]["records"]:
        assert set(rec) == {"c", "total_loss", "classification_error",
                            "query_rate", "selected_lambda"}


def test_sweep_runs_from_csv_dataset(tmp_path):
    gen = write_config(tmp_path, tiny_config(tmp_path / "gen"))
    assert main(["generate", "--config", gen]) == 0
    cfg = tiny_config(tmp_path / "out2", approaches=["human-only"])
    cfg["dataset"] = {"csv": str(tmp_path / "gen" / "dataset.csv"),
                      "num_classes": 3}
    path = write_config(tmp_path, cfg, "csv_run.json")
    assert main(["sweep", "--config", path]) == 0
    assert (tmp_path / "out2" / "sweep.json").exists()


def test_sweep_partial_failure_exits_three(tmp_path):
    cfg = tiny_config(tmp_path / "bad", approaches=["fixed-disc",
                                                    "human-only"])
    cfg["train"] = {"iterations": 5, "hidden_dims": [4],
                    "learning_rate": 1e200}
    path = write_config(tmp_path, cfg)
    logging.disable(logging.CRITICAL)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            with np.errstate(all="ignore"):
                rc = main(["sweep", "--config", path])
    finally:
        logging.disable(logging.NOTSET)
    assert rc == 3
    # the surviving approach is still fully reported
    payload = json.loads((tmp_path / "bad" / "sweep.json").read_text())
    by_name = {r["approach"]: r for r in payload}
    assert by_name["fixed-disc"]["records"] == []
    assert len(by_name["human-only"]["records"]) == 2


def test_sweep_logs_each_failed_cell_once(tmp_path, caplog):
    cfg = tiny_config(tmp_path / "bad", approaches=["fixed-disc",
                                                    "human-only"],
                      seeds=[0, 1])
    cfg["train"] = {"iterations": 5, "hidden_dims": [4],
                    "learning_rate": 1e200}
    path = write_config(tmp_path, cfg)
    with warnings.catch_warnings(), np.errstate(all="ignore"):
        warnings.simplefilter("ignore")
        with caplog.at_level(logging.ERROR, logger="teamopt"):
            assert main(["sweep", "--config", path]) == 3
    errors = [r for r in caplog.records if r.levelno >= logging.ERROR]
    assert len(errors) == 2  # fixed-disc fails at seeds 0 and 1
    assert all("fixed-disc" in r.getMessage() for r in errors)


def test_sweep_with_a_dead_pool_worker_exits_three(tmp_path,
                                                  kill_worker_on_seed):
    out = tmp_path / "out"
    cfg = tiny_config(out, approaches=["human-only"], seeds=[0, 1, 2])
    path = write_config(tmp_path, cfg)
    kill_worker_on_seed(1)
    assert main(["sweep", "--config", path, "--jobs", "2"]) == 3
    payload = json.loads((out / "sweep.json").read_text())
    assert [r["approach"] for r in payload] == ["human-only"]
    assert (out / "sweep.csv").exists() and (out / "loss_vs_cost.svg").exists()


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_sweep_jobs_below_one_exits_two(tmp_path, jobs):
    out = tmp_path / "out"
    path = write_config(tmp_path, tiny_config(out, approaches=["human-only"]))
    assert main(["sweep", "--config", path, "--jobs", jobs]) == 2
    assert not out.exists()


def test_sweep_missing_config_exits_two(tmp_path):
    assert main(["sweep", "--config", str(tmp_path / "absent.json")]) == 2


def test_sweep_negative_cost_or_lambda_exits_two_before_training(tmp_path):
    out = tmp_path / "neg"
    cfg = tiny_config(out, approaches=["human-only", "joint-disc"],
                      costs=[-0.1, 0.1], lambda_grid=[-1.0, 1.0])
    assert main(["sweep", "--config", write_config(tmp_path, cfg)]) == 2
    assert not out.exists()  # rejected before any cell ran or report was due


def test_cli_seed_override_changes_output(tmp_path):
    out = tmp_path / "out"
    path = write_config(tmp_path, tiny_config(out))
    assert main(["sweep", "--config", path, "--seed", "0"]) == 0
    base = (out / "sweep.json").read_bytes()
    assert main(["sweep", "--config", path, "--seed", "1"]) == 0
    assert (out / "sweep.json").read_bytes() != base


def test_analyze_writes_tables_and_tree(tmp_path):
    out = tmp_path / "an"
    cfg = tiny_config(out, approaches=list(APPROACHES))
    path = write_config(tmp_path, cfg)
    assert main(["analyze", "--config", path]) == 0
    trainable = {"fixed-disc", "joint-disc", "fixed-voi", "joint-voi"}
    assert {a for a, ap in APPROACHES.items() if ap.train} == trainable
    per_class = json.loads((out / "per_class.json").read_text())
    assert [row["class"] for row in per_class] == [0, 1, 2]
    assert set(per_class[0]["systems"]) == trainable
    tree = json.loads((out / "error_tree.json").read_text())
    assert set(tree) == {"feature_index", "threshold", "left", "right",
                         "leaf_stats"}
    node = tree
    while node["leaf_stats"] is None:
        node = node["left"]
    assert set(node["leaf_stats"]["machine_error"]) == trainable


def analyze_outputs(tmp_path, approaches):
    out = tmp_path / "-".join(approaches)
    path = write_config(tmp_path, tiny_config(out, approaches=approaches),
                        f"{out.name}.json")
    assert main(["analyze", "--config", path]) == 0
    table = json.loads((out / "per_class.json").read_text())
    tree = json.loads((out / "error_tree.json").read_text())
    leaves, stack = [], [tree]
    while stack:
        node = stack.pop()
        if node["leaf_stats"] is None:
            stack += [node["left"], node["right"]]
        else:
            leaves.append(node["leaf_stats"])
    return table, leaves


def test_analyze_trains_fixed_voi_once_and_scores_each_system_once(
        tmp_path, monkeypatch):
    approaches = ["joint-voi", "fixed-disc", "fixed-voi"]
    alone = {a: analyze_outputs(tmp_path, [a]) for a in approaches}
    calls = {"train": 0, "parts": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(evaluation, "train_fixed_voi",
                        counted("train", evaluation.train_fixed_voi))
    monkeypatch.setattr(voi, "voi_decision_parts",
                        counted("parts", voi.voi_decision_parts))
    table, leaves = analyze_outputs(tmp_path, approaches)
    # joint-voi warm-starts from the fixed-voi system, and each VOI
    # system's decision parts serve both the table and the tree
    assert calls == {"train": 1, "parts": 2}
    for a, (table_a, leaves_a) in alone.items():
        assert [row["systems"][a] for row in table] == \
            [row["systems"][a] for row in table_a]
        assert [leaf["machine_error"][a] for leaf in leaves] == \
            [leaf["machine_error"][a] for leaf in leaves_a]


def test_analyze_needs_trainable_approach(tmp_path):
    cfg = tiny_config(tmp_path / "an2", approaches=["human-only"])
    assert main(["analyze", "--config", write_config(tmp_path, cfg)]) == 2


def test_verify_passes_and_detects_injected_fault():
    # faults are injected in test_verify_fails_when_the_checked_code_is_broken
    assert main(["verify"]) == 0


def _scale_disc_bias_gradients(monkeypatch):
    real = discriminative.mlp_backward

    def scaled(cache, d_logits):
        grads = real(cache, d_logits)
        return GradientSet(grads.weights, [1.01 * b for b in grads.biases])

    monkeypatch.setattr(discriminative, "mlp_backward", scaled)


def _shift_query_score(monkeypatch):
    real = voi.voi_decision_parts

    def shifted(system, X):
        parts = real(system, X)
        return replace(parts, query_score=parts.query_score + 0.05)

    monkeypatch.setattr(voi, "voi_decision_parts", shifted)


def _double_calibration_logits(monkeypatch):
    real = cli.calibrate_batch
    monkeypatch.setattr(cli, "calibrate_batch",
                        lambda logits, cal: real(2.0 * logits, cal))


@pytest.mark.parametrize("mutate, suite", [
    (_scale_disc_bias_gradients, "gradcheck"),
    (_shift_query_score, "voi-rule"),
    (_double_calibration_logits, "calibration"),
])
def test_verify_fails_when_the_checked_code_is_broken(monkeypatch, caplog,
                                                      mutate, suite):
    mutate(monkeypatch)
    with caplog.at_level(logging.ERROR, logger="teamopt"):
        assert cmd_verify() == 1
    assert f"verification failed: {suite}" in caplog.text
