"""Command-line entry points: generate, sweep, analyze, verify.

One JSON config file drives every command; a few flags (--seed, --out,
--costs, --jobs) override it for quick variations. All randomness flows
from seeds declared in the config, so repeating a command reproduces its
outputs byte for byte. Logs go to stderr; files under --out carry the
machine-readable results.

Exit codes: 0 success, 1 verification failure, 2 config or IO error,
3 partial sweep failure.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from .calibration import (PlattCalibrator, calibrate_batch,
                          expected_calibration_error)
from .data import Dataset, SynthConfig, generate_synthetic, load_csv, save_csv
from .discriminative import (TeamConfig, decide, joint_disc_loss_fn,
                             solo_ce_loss, utility_loss_weights)
from .errors import ConfigError, TeamoptError
from .evaluation import (APPROACHES, TRAINED, analysis_parts, check_grid,
                         check_sweep, cost_sweep, dump_json, emit_report,
                         human_error_tree, per_class_analysis, write_file)
from .numerics import (SIGMOID_HEAD, SOFTMAX_HEAD, MlpModel, TrainConfig,
                       Workspace, finite_diff_check, init_mlp,
                       stable_sigmoid, stack_models)
from .voi import (CalibratedModel, VoiSystem, joint_calibrator,
                  joint_voi_batch, joint_voi_loss_fn)

logger = logging.getLogger("teamopt")

DEFAULT_COSTS = (0.0, 0.025, 0.05, 0.075, 0.1, 0.15, 0.2)
DEFAULT_LAMBDA_GRID = (0.25, 0.5, 1.0, 2.0, 4.0)
FORMATS = ("json", "csv", "svg")


@dataclass
class RunConfig:
    """Parsed configuration for one reproducible run."""

    synth: SynthConfig | None = None
    csv_path: str | None = None
    csv_num_classes: int | None = None
    utility: np.ndarray | None = None  # None: identity (accuracy)
    query_cost: float = 0.1
    train: TrainConfig = None
    approaches: tuple = APPROACHES
    costs: tuple = DEFAULT_COSTS
    lambda_grid: tuple = DEFAULT_LAMBDA_GRID
    seeds: tuple = (0,)
    out: str = "out"
    formats: tuple = FORMATS

    def __post_init__(self):
        if self.train is None:
            self.train = TrainConfig()
        check_grid(self.approaches, self.costs, self.lambda_grid, self.seeds)
        bad = [f for f in self.formats if f not in FORMATS]
        if bad:
            raise ConfigError(f"unknown formats {bad}")
        if self.synth is None and self.csv_path is None:
            self.synth = SynthConfig()
        if self.csv_path is not None and self.csv_num_classes is None:
            raise ConfigError("csv datasets need num_classes")


def _pick(d, allowed: set, where: str) -> dict:
    if not isinstance(d, dict):
        raise ConfigError(f"{where} must be an object, got {d!r}")
    unknown = set(d) - allowed
    if unknown:
        raise ConfigError(f"unknown keys in {where}: {sorted(unknown)}")
    return d


def _cast(value, like, key: str):
    """`value` in the shape of the example `like`: a tuple takes an array
    of values like its first item, a dict or str its own JSON type, and
    an int or float a number or a string holding one (whole for an int)."""
    if isinstance(like, tuple):
        if isinstance(value, list):
            return tuple(_cast(v, like[0], key) for v in value)
    elif isinstance(like, (dict, str)):
        if isinstance(value, type(like)):
            return value
    elif isinstance(value, (int, float, str)) and not isinstance(value, bool):
        try:
            number = float(value)
        except (ValueError, OverflowError):
            pass
        else:
            if isinstance(like, float):
                return number
            if number.is_integer():
                return value if isinstance(value, int) else int(number)
    kind = {tuple: "an array", dict: "an object", str: "a string",
            int: "an integer", float: "a number"}[type(like)]
    raise ConfigError(f"{key} must be {kind}, got {value!r}")


def _typed(raw, likes: dict, where: str) -> dict:
    """The JSON object `raw`, each value cast like its entry in `likes`."""
    return {k: _cast(v, likes[k], f"{where}.{k}")
            for k, v in _pick(raw, set(likes), where).items()}


def config_from_dict(raw: dict) -> RunConfig:
    """The run config of a JSON document; ConfigError if it is malformed."""
    run = vars(RunConfig())
    kwargs = _typed(raw, {
        "dataset": {}, "team": {}, "train": {},
        **{k: run[k] for k in ("approaches", "costs", "lambda_grid", "seeds",
                               "out", "formats")}}, "config")
    ds = _typed(kwargs.pop("dataset", {}),
                {"synthetic": {}, "csv": "", "num_classes": 0}, "dataset")
    if "synthetic" in ds and "csv" in ds:
        raise ConfigError("dataset source must be synthetic or csv, not both")
    if "synthetic" in ds:
        kwargs["synth"] = SynthConfig(**_typed(
            ds["synthetic"], vars(SynthConfig()), "dataset.synthetic"))
        kwargs["synth"].validate()
    if "csv" in ds:
        kwargs["csv_path"] = ds["csv"]
        kwargs["csv_num_classes"] = ds.get("num_classes")
        if ds.get("num_classes", 2) < 2:
            raise ConfigError("dataset.num_classes must be at least 2, got"
                              f" {ds['num_classes']}")
    elif "num_classes" in ds:
        raise ConfigError("dataset.num_classes applies only to a csv source;"
                          " set dataset.synthetic.num_classes instead")
    kwargs.update(_typed(kwargs.pop("team", {}),
                         {"utility": ((0.0,),), "query_cost": 0.0}, "team"))
    if "utility" in kwargs:
        U = kwargs["utility"]
        if not U or any(len(row) != len(U) for row in U):
            raise ConfigError("team.utility must be a square matrix")
        kwargs["utility"] = np.array(U)
    if "train" in kwargs:
        train = _typed(kwargs["train"], vars(TrainConfig()), "train")
        if "seed" in train:
            raise ConfigError("train.seed is not used: every run is seeded"
                              " from seeds")
        kwargs["train"] = TrainConfig(**train)
    return RunConfig(**kwargs)


def load_config(path: str | None) -> RunConfig:
    if path is None:
        return RunConfig()
    try:
        raw = json.loads(Path(path).read_text())
    except OSError as e:
        raise ConfigError(f"cannot read config {path}: {e}") from e
    except json.JSONDecodeError as e:
        raise ConfigError(f"config {path} is not valid JSON: {e}") from e
    return config_from_dict(raw)


def apply_overrides(config: RunConfig, args: argparse.Namespace) -> RunConfig:
    if getattr(args, "seed", None) is not None:
        config = replace(config, seeds=(args.seed,))
    if getattr(args, "out", None) is not None:
        config = replace(config, out=args.out)
    if getattr(args, "costs", None) is not None:
        costs = _cast(args.costs.split(","), (0.0,), "--costs")
        config = replace(config, costs=costs)
    return config


def build_dataset(config: RunConfig) -> Dataset:
    if config.csv_path is not None:
        return load_csv(config.csv_path, config.csv_num_classes)
    return generate_synthetic(config.synth)


def build_team(config: RunConfig, num_classes: int) -> TeamConfig:
    if config.utility is None:
        return TeamConfig.accuracy(num_classes, config.query_cost)
    return TeamConfig(config.utility, config.query_cost)


# --- commands -------------------------------------------------------------

def cmd_generate(config: RunConfig) -> int:
    if config.csv_path is not None:
        raise ConfigError("generate needs a synthetic dataset source")
    dataset = build_dataset(config)
    path = Path(config.out) / "dataset.csv"
    path.parent.mkdir(parents=True, exist_ok=True)
    save_csv(dataset, path)
    logger.info("wrote %s: n=%d classes=%d features=%d human_error=%.4f",
                path, len(dataset), dataset.num_classes, dataset.feature_dim,
                dataset.human_error_rate())
    return 0


def cmd_sweep(config: RunConfig, jobs: int = 1) -> int:
    # the whole grid is checked before the dataset is built or read
    check_sweep(config.approaches, config.costs, config.lambda_grid,
                config.seeds, jobs)
    dataset = build_dataset(config)
    team = build_team(config, dataset.num_classes)
    results = cost_sweep(dataset, config.approaches, config.costs,
                         config.lambda_grid, config.seeds, team=team,
                         train_cfg=config.train, jobs=jobs)
    files = emit_report(results, config.out, config.formats)
    for f in files:
        logger.info("wrote %s", f)
    # cost_sweep has logged each failed cell
    if any(cell.error is not None for r in results for cell in r.cells):
        return 3
    return 0


def cmd_analyze(config: RunConfig) -> int:
    if not set(config.approaches) & set(TRAINED):
        raise ConfigError("analyze needs at least one trainable approach")
    dataset = build_dataset(config)
    team = build_team(config, dataset.num_classes)
    seed = config.seeds[0]  # analyze trains at the first seed alone
    logger.info("analyzing at seed %d, the first of %d configured seeds",
                seed, len(config.seeds))
    te, parts = analysis_parts(config.approaches, dataset, seed, team,
                               config.train)
    out = Path(config.out)
    out.mkdir(parents=True, exist_ok=True)
    table = per_class_analysis(parts, te, team.query_cost)
    tree = human_error_tree(te, parts)
    write_file(out / "per_class.json", dump_json(table))
    write_file(out / "error_tree.json", dump_json(asdict(tree)))
    logger.info("wrote %s and %s", out / "per_class.json",
                out / "error_tree.json")
    return 0


# --- verification suites ----------------------------------------------------

def gradcheck_losses(rng: np.random.Generator, team: TeamConfig,
                     cost_weight: float, tau: float, batch_size: int
                     ) -> float:
    """Max FD relative error of the three training losses at one random
    point: solo CE, the joint-disc mixture and the joint-VOI loss, each
    built by the function its trainer uses and run on one-run,
    one-variant stacks. Networks are d=4, 5 hidden."""
    K, d, hid = team.num_classes, 4, 5
    w = utility_loss_weights(team)
    X = rng.standard_normal((batch_size, d))
    y = rng.integers(0, K, batch_size)
    h = rng.integers(0, K, batch_size)
    m = stack_models([[init_mlp((d, hid, K), SOFTMAX_HEAD, rng, 0.0)]])
    q = stack_models([[init_mlp((d, hid, 1), SIGMOID_HEAD, rng, 0.0)]])
    cfg = TrainConfig(softmax_temperature=tau, dropout_rate=0.0)
    worst = finite_diff_check({"m": m}, (X, y, w[y], None), solo_ce_loss)
    hit = (h == y).astype(np.float64)
    worst = max(worst, finite_diff_check(
        {"m": m, "q": q}, (X, y, hit, w[y], None, None),
        joint_disc_loss_fn(team, (cost_weight,))))
    models = {name: stack_models([[init_mlp(dims, SOFTMAX_HEAD, rng, 0.0)]])
              for name, dims in (("alpha", (d, hid, K)), ("beta", (d, hid, K)),
                                 ("gamma", (d + K, hid, K)))}
    cal = joint_calibrator([[(PlattCalibrator.identity(K),) * 3]], batch_size)
    return max(worst, finite_diff_check(
        models, joint_voi_batch(X, h, y, w, cal),
        joint_voi_loss_fn(team, cfg, (cost_weight,))))


def _gradcheck_suite(rng: np.random.Generator) -> float:
    """Max FD relative error of the training losses at three points."""
    team = TeamConfig(np.eye(3) + 0.1 * rng.random((3, 3)), 0.07)
    return max(gradcheck_losses(rng, team, 1.0, 0.8, 6) for _ in range(3))


def to_logit(p):
    """Logits whose sigmoid stack renormalizes to exactly p."""
    p = np.asarray(p, dtype=np.float64) / 2.0
    return np.log(p / (1.0 - p))


def dist_system(pa, pb, pg, team: TeamConfig) -> VoiSystem:
    """A VOI system on two features whose calibrated outputs ignore x and
    equal the given distributions: p_alpha = pa, p_beta = pb and
    p_gamma(.|x, h) = pg[h]. Its calibrators are the identity."""
    K, d = len(pa), 2
    a = MlpModel((d, K), [np.zeros((d, K))], [to_logit(pa)])
    b = MlpModel((d, K), [np.zeros((d, K))], [to_logit(pb)])
    Wg = np.zeros((d + K, K))
    Wg[d:, :] = to_logit(pg)
    g = MlpModel((d + K, K), [Wg], [np.zeros(K)])
    ident = PlattCalibrator.identity(K)
    return VoiSystem(CalibratedModel(a, ident), CalibratedModel(b, ident),
                     CalibratedModel(g, ident), team, TrainConfig())


def voi_rule_deviation(rng: np.random.Generator, n_systems: int) -> float:
    """Max deviation of the exact VOI rule from brute-force enumeration.

    Each random system (K cycling through 2, 3, 5; random utility, cost
    and distributions) goes through `dist_system`, `VoiSystem.parts` and
    `decide` for every human response, and is compared with a loop over
    all actions and responses on the distributions it was built from.
    Returns the max |difference| of u_nq and u_q, or inf when a best
    action, a query flag or a post-query label differs.
    """
    worst = 0.0
    for i in range(n_systems):
        K = (2, 3, 5)[i % 3]
        U = rng.normal(0.0, 1.0, (K, K)) + 2.0 * np.eye(K)
        c = float(rng.uniform(0.0, 0.3))
        pa = rng.dirichlet(np.ones(K))
        pb = rng.dirichlet(np.ones(K))
        pg = rng.dirichlet(np.ones(K), size=K)
        eu = [sum(U[a, y] * pa[y] for y in range(K)) for a in range(K)]
        post = [[sum(U[a, y] * pg[h, y] for y in range(K))
                 for a in range(K)] for h in range(K)]
        u_nq = max(eu)
        u_q = sum(pb[h] * max(post[h]) for h in range(K)) - c
        want = [post[h].index(max(post[h])) if u_q > u_nq
                else eu.index(u_nq) for h in range(K)]
        # one copy of a random x per response, so `decide` sees every h
        x = np.repeat(rng.standard_normal((1, 2)), K, axis=0)
        parts = dist_system(pa, pb, pg, TeamConfig(U, c)).parts(x)
        labels, queried = decide(parts, np.arange(K), c)
        if (labels.tolist() != want or (queried != (u_q > u_nq)).any()
                or (parts.machine != eu.index(u_nq)).any()):
            return float("inf")
        worst = max(worst, np.abs(parts.alone_score - u_nq).max(),
                    np.abs(parts.query_score - c - u_q).max())
    return float(worst)


def platt_ece(rng: np.random.Generator) -> float:
    """ECE (10 bins) of a two-class Platt fit to 2000 logistic samples.

    The raw scores are miscaled logits (z, -z); they go through
    `PlattCalibrator.fit` and `calibrate_batch`, as a component model's
    logits do.
    """
    n = 2000
    z = rng.normal(0.0, 2.0, n)
    labels = (rng.random(n) < stable_sigmoid(0.7 * z - 0.4, Workspace())
              ).astype(np.int64)
    scores = np.column_stack([-z, z])
    cal = PlattCalibrator.fit(scores, labels, 2)
    return expected_calibration_error(calibrate_batch(scores, cal), labels,
                                      bins=10)


def cmd_verify() -> int:
    suites = (
        ("gradcheck", _gradcheck_suite, 1e-4, "max relative error"),
        ("voi-rule", lambda r: voi_rule_deviation(r, 300), 1e-12,
         "max abs deviation"),
        ("calibration", platt_ece, 0.05, "expected calibration error"),
    )
    failed = []
    for name, fn, threshold, label in suites:
        err = fn(np.random.default_rng(20240915))
        ok = err < threshold
        logger.info("%s: %s = %.3e (threshold %.0e) -> %s", name, label, err,
                    threshold, "pass" if ok else "FAIL")
        if not ok:
            failed.append(name)
    if failed:
        logger.error("verification failed: %s", ", ".join(failed))
        return 1
    logger.info("all verification suites passed")
    return 0


# --- argument parsing -------------------------------------------------------

def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON config file")
    p.add_argument("--seed", type=int, help="override the seed list")
    p.add_argument("--out", help="override the output directory")
    p.add_argument("--costs", help="override the cost grid, comma-separated")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="teamopt",
        description="Train and evaluate human-machine team policies")
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("generate", help="write a synthetic dataset CSV")
    _add_common(p)
    p = sub.add_parser("sweep", help="run the cost sweep and emit reports")
    _add_common(p)
    p.add_argument("--jobs", type=int, default=1,
                   help="worker processes, at most one per work unit;"
                        " seeds split into more units only to fill them"
                        " (default 1, fully serial)")
    p = sub.add_parser("analyze", help="per-class table and human-error tree")
    _add_common(p)
    sub.add_parser("verify", help="run embedded property suites")
    return parser


def main(argv=None) -> int:
    logging.basicConfig(stream=sys.stderr, level=logging.INFO,
                        format="%(levelname)s %(name)s: %(message)s")
    args = build_parser().parse_args(argv)
    try:
        if args.command == "verify":
            return cmd_verify()
        config = apply_overrides(load_config(args.config), args)
        out = Path(config.out).absolute()  # a bad --out fails early
        if not next(p for p in (out, *out.parents) if p.exists()).is_dir():
            raise NotADirectoryError(f"cannot create directory {out}")
        if args.command == "generate":
            return cmd_generate(config)
        if args.command == "sweep":
            return cmd_sweep(config, jobs=args.jobs)
        if args.command == "analyze":
            return cmd_analyze(config)
        raise ConfigError(f"unknown command {args.command!r}")
    except OSError as e:
        logger.error("IO failure: %s", e)
        return 2
    except TeamoptError as e:
        logger.error("%s", e)
        return 2


if __name__ == "__main__":
    sys.exit(main())
