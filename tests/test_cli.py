"""Config parsing, command flows, and exit codes of the console interface."""

import json
import logging
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from teamopt import cli, discriminative, evaluation, voi
from teamopt.cli import (DEFAULT_COSTS, DEFAULT_LAMBDA_GRID, RunConfig,
                         apply_overrides, build_parser, cmd_verify,
                         config_from_dict, load_config, main)
from teamopt.data import load_csv
from teamopt.errors import ConfigError
from teamopt.evaluation import APPROACHES, TRAINED
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


# Malformed values that crashed with a traceback, or ran a sweep that
# could not succeed, instead of exiting 2.
MALFORMED = [
    {"costs": ["abc"]},
    {"team": {"utility": "x"}},
    {"costs": 5},
    {"dataset": {"synthetic": {"n": "x"}}},
    {"train": {"hidden_dims": 8}},
    {"dataset": []},
    {"dataset": {"csv": "tiny.csv", "num_classes": 1}},  # no team of one
]


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
    *MALFORMED,
    {"seeds": [1.5]},
    {"seeds": [True]},
    {"out": 5},
    {"train": []},
    {"train": {"hidden_dims": [0]}},
    {"train": {"iterations": "many"}},
    {"dataset": {"synthetic": {"n": 0}}},  # SynthConfig.validate at parse
    {"dataset": {"csv": 3, "num_classes": 2}},
    {"team": {"utility": [[1, 0], [0]]}},
    {"team": {"utility": []}},
    {"approaches": "human-only"},
    {"dataset": {"num_classes": 7}},  # not the synthetic task's K
    {"train": {"seed": 7}},  # runs are seeded from seeds
])
def test_config_rejections(raw):
    with pytest.raises(ConfigError):
        config_from_dict(raw)


def test_train_seed_is_rejected_before_anything_trains(tmp_path):
    # every run is seeded from `seeds`, so a train.seed would be ignored
    out = tmp_path / "out"
    cfg = tiny_config(out)
    cfg["train"]["seed"] = 7
    with pytest.raises(ConfigError, match=r"\bseeds\b"):
        config_from_dict(cfg)
    assert main(["sweep", "--config", write_config(tmp_path, cfg)]) == 2
    assert not out.exists()


@pytest.mark.parametrize("raw", MALFORMED)
def test_malformed_config_exits_two(tmp_path, raw):
    out = tmp_path / "out"
    path = write_config(tmp_path, tiny_config(out, **raw))
    assert main(["sweep", "--config", path]) == 2
    assert not out.exists()


def _unit(lo=0.0, hi=1.0):
    return st.floats(lo, hi)


def _synthetic_section(K):
    return st.fixed_dictionaries(
        {"num_classes": st.just(K), "class_priors": st.just([1.0 / K] * K)},
        optional={"feature_dim": st.integers(1, 16),
                  "n": st.integers(1, 10**6),
                  "human_easy_error": _unit(0.0, 0.5),
                  "human_hard_error": _unit(0.5, 1.0),
                  "hard_region_fraction": _unit(0.01, 0.99),
                  "machine_noise_scale": _unit(0.0, 5.0),
                  "seed": st.integers(0, 2**32)})


def _utility(K):
    return st.lists(st.lists(_unit(-5.0, 5.0), min_size=K, max_size=K),
                    min_size=K, max_size=K)


VALID_CONFIGS = st.fixed_dictionaries({}, optional={
    "dataset": st.integers(2, 6).flatmap(lambda K: st.fixed_dictionaries(
        {"synthetic": _synthetic_section(K)})) | st.fixed_dictionaries(
        {"csv": st.text(min_size=1, max_size=8),
         "num_classes": st.integers(2, 9)}),
    "team": st.fixed_dictionaries({}, optional={
        "utility": st.integers(2, 4).flatmap(_utility),
        "query_cost": _unit(0.0, 2.0)}),
    "train": st.fixed_dictionaries({}, optional={
        "learning_rate": _unit(1e-4, 1.0),
        "batch_size": st.integers(1, 512),
        "iterations": st.integers(1, 10**5),
        "calibration_interval": st.integers(1, 1000),
        "softmax_temperature": _unit(0.05, 10.0),
        "cost_weight": _unit(0.0, 10.0),
        "dropout_rate": _unit(0.0, 0.9),
        "hidden_dims": st.lists(st.integers(1, 64), max_size=3)}),
    "approaches": st.lists(st.sampled_from(list(APPROACHES)), min_size=1,
                           max_size=5),
    "costs": st.lists(_unit(), min_size=1, max_size=5),
    "lambda_grid": st.lists(_unit(0.0, 8.0), min_size=1, max_size=5),
    "seeds": st.lists(st.integers(0, 10**6), min_size=1, max_size=4),
    "out": st.text(max_size=12),
    "formats": st.lists(st.sampled_from(["json", "csv", "svg"]),
                        max_size=3),
})


def _tuples(value):
    """A JSON value as the config holds it: arrays become tuples."""
    if isinstance(value, list):
        return tuple(_tuples(v) for v in value)
    return value


@settings(max_examples=300, deadline=None)
@given(VALID_CONFIGS)
def test_valid_configs_parse_to_the_given_values(raw):
    cfg = config_from_dict(raw)
    for key in ("approaches", "costs", "lambda_grid", "seeds", "out",
                "formats"):
        if key in raw:
            assert getattr(cfg, key) == _tuples(raw[key])
    for key, value in raw.get("train", {}).items():
        assert getattr(cfg.train, key) == _tuples(value)
    dataset = raw.get("dataset", {})
    for key, value in dataset.get("synthetic", {}).items():
        assert getattr(cfg.synth, key) == _tuples(value)
    if "csv" in dataset:
        assert (cfg.csv_path, cfg.csv_num_classes) == \
            (dataset["csv"], dataset["num_classes"])
    team = raw.get("team", {})
    if "utility" in team:
        assert cfg.utility.dtype == np.float64
        assert cfg.utility.tolist() == team["utility"]
    assert cfg.query_cost == team.get("query_cost", 0.1)


def _nodes(value, path=()):
    """(path, value) of every node of a JSON document, the root first."""
    yield path, value
    children = value.items() if isinstance(value, dict) else \
        enumerate(value) if isinstance(value, list) else ()
    for key, child in children:
        yield from _nodes(child, path + (key,))


def _json_type(value):
    for kind, types in (("null", type(None)), ("bool", bool),
                        ("number", (int, float)), ("string", str),
                        ("array", list), ("object", dict)):
        if isinstance(value, types):
            return kind


# One strategy per JSON type. Strings never hold a number: a numeric
# field also takes a string holding one.
OTHER_JSON = {
    "null": st.none(),
    "bool": st.booleans(),
    "number": st.integers(-3, 3) | _unit(-3.0, 3.0),
    "string": st.text(alphabet="xyz", max_size=4),
    "array": st.lists(st.integers(0, 3), max_size=2),
    "object": st.dictionaries(st.text(alphabet="xyz", max_size=3),
                              st.integers(0, 3), max_size=2),
}


def _replaced(doc, path, value):
    if not path:
        return value
    doc = dict(doc) if isinstance(doc, dict) else list(doc)
    doc[path[0]] = _replaced(doc[path[0]], path[1:], value)
    return doc


@settings(max_examples=400, deadline=None)
@given(VALID_CONFIGS, st.data())
def test_a_mistyped_value_or_unknown_key_raises_config_error(raw, data):
    nodes = list(_nodes(raw))
    if data.draw(st.booleans(), "add an unknown key"):
        path, node = data.draw(st.sampled_from(
            [(p, n) for p, n in nodes if isinstance(n, dict)]))
        key = data.draw(st.text(alphabet="xyz", max_size=4).map(
            lambda t: f"unknown_{t}"))
        bad = _replaced(raw, path, {**node, key: 1})
    elif len(nodes) > 1:
        path, node = data.draw(st.sampled_from(nodes[1:]))
        kind = data.draw(st.sampled_from(
            [k for k in OTHER_JSON if k != _json_type(node)]))
        bad = _replaced(raw, path, data.draw(OTHER_JSON[kind]))
    else:
        return
    with pytest.raises(ConfigError):
        config_from_dict(bad)


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


def test_sweep_from_csv_without_rows_exits_two(tmp_path, caplog):
    csv_path = tmp_path / "header.csv"
    csv_path.write_text("f0,y,h\n")
    cfg = tiny_config(tmp_path / "out", approaches=["human-only"])
    cfg["dataset"] = {"csv": str(csv_path), "num_classes": 3}
    path = write_config(tmp_path, cfg)
    with caplog.at_level(logging.ERROR, logger="teamopt"):
        assert main(["sweep", "--config", path]) == 2
    assert f"{csv_path}:2: no data rows" in caplog.text


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


@pytest.mark.parametrize("command", ["generate", "sweep", "analyze"])
def test_unusable_out_dir_fails_before_any_training(tmp_path, caplog,
                                                    command):
    blocker = tmp_path / "file"
    blocker.write_text("")
    cfg = tiny_config(blocker / "out", approaches=["human-only",
                                                   "fixed-disc"])
    path = write_config(tmp_path, cfg)
    with caplog.at_level(logging.INFO, logger="teamopt"):
        assert main([command, "--config", path]) == 2
    assert f"cannot create directory {blocker / 'out'}" in caplog.text
    assert "work unit" not in caplog.text
    assert "for analysis" not in caplog.text


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


def test_sweep_negative_seed_exits_two_before_training(tmp_path):
    out = tmp_path / "out"
    path = write_config(tmp_path, tiny_config(out))
    assert main(["sweep", "--config", path, "--seed", "-1"]) == 2
    assert not out.exists()


@pytest.mark.parametrize("override", [
    {"seeds": [0, 0, 1]},
    {"dataset": {"num_classes": 7}},
], ids=["duplicate-seeds", "num-classes-without-csv"])
def test_sweep_config_that_would_mislead_exits_two(tmp_path, override):
    out = tmp_path / "out"
    path = write_config(tmp_path, tiny_config(out, **override))
    assert main(["sweep", "--config", path]) == 2
    assert not out.exists()


@pytest.mark.parametrize("override, args", [
    ({"seeds": [0, 0]}, []),
    ({"costs": [-0.1, 0.1]}, []),
    ({}, ["--jobs", "0"]),
], ids=["repeated-seed", "negative-cost", "jobs-zero"])
def test_sweep_checks_its_grid_before_building_the_dataset(
        tmp_path, monkeypatch, override, args):
    built = []
    real = cli.generate_synthetic
    monkeypatch.setattr(cli, "generate_synthetic",
                        lambda cfg: built.append(cfg) or real(cfg))
    out = tmp_path / "out"
    path = write_config(tmp_path, tiny_config(out, **override))
    assert main(["sweep", "--config", path, *args]) == 2
    assert built == []
    assert not out.exists()


def test_analyze_negative_seed_exits_two(tmp_path):
    out = tmp_path / "out"
    path = write_config(tmp_path, tiny_config(out))
    assert main(["analyze", "--config", path, "--seed", "-1"]) == 2
    assert not out.exists()


@pytest.mark.parametrize("override, args", [
    ({}, ["--costs=-0.5"]),
    ({}, ["--seed", "-1"]),
    ({"costs": [-1, "nan"], "lambda_grid": [-2]}, []),
], ids=["negative-cost-flag", "negative-seed-flag", "bad-config-grid"])
@pytest.mark.parametrize("command", ["generate", "analyze"])
def test_grid_values_exit_two_before_the_dataset_is_built(
        tmp_path, monkeypatch, command, override, args):
    built = []
    monkeypatch.setattr(cli, "generate_synthetic", built.append)
    out = tmp_path / "out"
    path = write_config(tmp_path, tiny_config(out, **override))
    assert main([command, "--config", path, *args]) == 2
    assert built == []
    assert not out.exists()


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
    assert set(TRAINED) == trainable
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


def test_analyze_trains_an_approach_named_twice_once(tmp_path, monkeypatch,
                                                   caplog):
    once = analyze_outputs(tmp_path, ["fixed-disc"])
    calls = []
    real = evaluation.train_fixed
    monkeypatch.setattr(evaluation, "train_fixed",
                        lambda *a: calls.append(a) or real(*a))
    with caplog.at_level(logging.INFO, logger="teamopt"):
        twice = analyze_outputs(tmp_path, ["fixed-disc", "fixed-disc"])
    assert len(calls) == 1
    assert caplog.text.count("training fixed-disc") == 1
    assert twice == once


@pytest.mark.parametrize("data", [
    b"f0,y,h\n0.1,0,0\n0.2,99999999999999999999,1\n",  # beyond int64
    b"f0,y,h\n0.1,0,0\n0.\xff2,1,1\n",                # not UTF-8
], ids=["label-beyond-int64", "invalid-utf8"])
def test_analyze_unparsable_csv_exits_two(tmp_path, caplog, data):
    (tmp_path / "bad.csv").write_bytes(data)
    cfg = tiny_config(tmp_path / "an3")
    cfg["dataset"] = {"csv": str(tmp_path / "bad.csv"), "num_classes": 3}
    with caplog.at_level(logging.ERROR, logger="teamopt"):
        assert main(["analyze", "--config", write_config(tmp_path, cfg)]) == 2
    assert "bad.csv:3:" in caplog.text


def test_analyze_needs_trainable_approach(tmp_path):
    cfg = tiny_config(tmp_path / "an2", approaches=["human-only"])
    assert main(["analyze", "--config", write_config(tmp_path, cfg)]) == 2


def test_verify_passes():
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
