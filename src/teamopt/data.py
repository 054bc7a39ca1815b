"""Datasets: synthetic human-machine tasks, CSV ingestion, splitting.

Every instance carries features x, a ground-truth label y and one logged
human response h, fixed at dataset creation. The synthetic generator
plants complementarity structure: a human-hard region (high x[0]) where
the logged response is unreliable, and a disjoint machine-hard region
(low x[0]) where half the features are corrupted but the human stays
accurate.
"""

from __future__ import annotations

import csv
import math
from array import array
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, InputError, ParseError

SIMPLEX_SCALE = 2.0  # distance of class means from the origin, in sigmas


@dataclass
class Dataset:
    """Feature matrix plus aligned label and human-response vectors.

    A dataset that `subset` took from another (a split, a calibration
    slice) holds no rows of its own, only `rows`, their indices into the
    arrays of its `source`. Reading its X, y or h gathers those rows into
    a fresh array, so nothing written there reaches the source; code that
    consumes rows a batch at a time gathers them from the source itself
    (see `numerics.block_rows`).
    """

    X: np.ndarray  # (n, d) float64
    y: np.ndarray  # (n,) int labels in [0, K)
    h: np.ndarray  # (n,) int human responses in [0, K)
    num_classes: int
    name: str = "dataset"
    # planted (hard_hi, hard_lo) x[0] thresholds of a synthetic dataset
    planted: tuple[float, float] | None = None
    # set by `subset`: the dataset owning the arrays, and this one's rows
    _owner: "Dataset | None" = field(default=None, init=False, repr=False)
    rows: np.ndarray | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        self.X = np.asarray(self.X, dtype=np.float64)
        self.y = np.asarray(self.y, dtype=np.int64)
        self.h = np.asarray(self.h, dtype=np.int64)
        if self.X.ndim != 2 or len(self.X) == 0:
            raise InputError("dataset must be a nonempty (n, d) matrix")
        if not np.isfinite(self.X).all():
            raise InputError("non-finite feature values")
        if len(self.y) != len(self.X) or len(self.h) != len(self.X):
            raise InputError("X, y, h lengths differ")
        if self.num_classes < 2:
            raise InputError("need at least two classes")
        for arr, what in ((self.y, "label"), (self.h, "human response")):
            if arr.min() < 0 or arr.max() >= self.num_classes:
                raise InputError(f"{what} out of range [0, {self.num_classes})")

    def __getattr__(self, attr):
        # reached only for what the instance lacks: a subset's X, y and h
        if self._owner is None or attr not in ("X", "y", "h"):
            raise AttributeError(attr)
        return getattr(self._owner, attr)[self.rows]

    @property
    def source(self) -> "Dataset":
        """The dataset whose arrays hold this one's rows: itself unless
        `subset` took it from another."""
        return self if self._owner is None else self._owner

    def __len__(self) -> int:
        return len(self.X if self.rows is None else self.rows)

    @property
    def feature_dim(self) -> int:
        return self.source.X.shape[1]

    def subset(self, idx: np.ndarray, name: str | None = None) -> "Dataset":
        """The rows `idx` of this dataset, held as indices into its
        source's arrays: no row is copied."""
        rows = (np.arange(len(self)) if self.rows is None else self.rows)[idx]
        if len(rows) == 0:
            raise InputError("dataset must be a nonempty (n, d) matrix")
        view = object.__new__(Dataset)  # no arrays of its own to validate
        view.num_classes, view.planted = self.num_classes, self.planted
        view.name = name or self.name
        view._owner, view.rows = self.source, rows
        return view

    def gathered(self) -> "Dataset":
        """This dataset with arrays of its own: a copy of its rows if
        `subset` took it, itself otherwise."""
        if self._owner is None:
            return self
        return Dataset(self.X, self.y, self.h, self.num_classes, self.name,
                       self.planted)

    def human_error_rate(self) -> float:
        return float((self.h != self.y).mean())


@dataclass
class SynthConfig:
    """Knobs for the planted-complementarity generator.

    Defaults mirror a skewed five-class task at desk scale: one dominant
    class, a small human-hard region with heavy response noise, and a
    machine-hard region with corrupted features.
    """

    num_classes: int = 5
    feature_dim: int = 8
    n: int = 14000
    class_priors: tuple[float, ...] = (0.7, 0.075, 0.075, 0.075, 0.075)
    human_easy_error: float = 0.05
    human_hard_error: float = 0.5
    hard_region_fraction: float = 0.1
    machine_noise_scale: float = 2.0
    seed: int = 0

    def validate(self) -> None:
        priors = np.asarray(self.class_priors, dtype=np.float64)
        if len(priors) != self.num_classes or (priors < 0).any() \
                or abs(priors.sum() - 1.0) > 1e-9:
            raise ConfigError("class_priors must be a distribution over K classes")
        if self.num_classes < 2 or self.feature_dim < 1 or self.n < 1:
            raise ConfigError("need K >= 2, d >= 1, n >= 1")
        if not (0.0 <= self.human_easy_error <= 1.0
                and 0.0 <= self.human_hard_error <= 1.0):
            raise ConfigError("error rates must be in [0, 1]")
        if self.human_hard_error < self.human_easy_error:
            raise ConfigError("human_hard_error must be >= human_easy_error")
        if not 0.0 < self.hard_region_fraction < 1.0:
            raise ConfigError("hard_region_fraction must be in (0, 1)")
        if self.machine_noise_scale < 0:
            raise ConfigError("machine_noise_scale must be non-negative")


def class_means(num_classes: int, feature_dim: int) -> np.ndarray:
    """Class means on a scaled simplex, kept out of the x[0] coordinate.

    Coordinate 0 is reserved as the region (human-hardness) axis, so means
    occupy coordinates 1..d-1, wrapping with growing magnitude if K
    exceeds d-1. With d == 1 every class shares the origin.
    """
    means = np.zeros((num_classes, feature_dim))
    if feature_dim < 2:
        return means
    span = feature_dim - 1
    for k in range(num_classes):
        coord = 1 + (k % span)
        means[k, coord] += SIMPLEX_SCALE * (1.0 + k // span)
    return means


def confusable_class(X: np.ndarray, y: np.ndarray,
                     means: np.ndarray) -> np.ndarray:
    """Each row's nearest class mean other than its own class y: the
    class a human-hard response flips to.

    A running minimum over the classes, in class order, each row's squared
    distance formed in one reused (n, d) scratch and summed over its
    contiguous row; numpy sums each row as over the last axis of the
    (n, K, d) broadcast, so the distances keep its bits, and moving only
    to a strictly smaller distance keeps `argmin`'s first minimum.
    """
    best = np.full(len(X), np.inf)
    nearest = np.zeros(len(X), dtype=np.int64)
    sq, dist = np.empty_like(X), np.empty(len(X))
    for k, mean in enumerate(means):
        np.subtract(X, mean, out=sq)
        np.square(sq, out=sq)
        sq.sum(axis=1, out=dist)
        closer = (dist < best) & (y != k)
        np.copyto(best, dist, where=closer)
        np.copyto(nearest, k, where=closer)
    return nearest


def gaussian_features(rng: np.random.Generator, means: np.ndarray,
                      y: np.ndarray) -> np.ndarray:
    """means[y] + N(0, I): the noise is drawn first and shifted in place a
    column at a time, with no (n, d) array of means; a sum is the same
    either way round, so the bits are the broadcast's."""
    X = rng.standard_normal((len(y), means.shape[1]))
    for j, column in enumerate(means.T):
        X[:, j] += column[y]
    return X


def sorted_quantile(values: np.ndarray, q: float) -> float:
    """np.quantile(values, q) of ascending `values`, bit for bit (but for
    the sign of a zero where -0.0 and 0.0 tie, which sorts either way).

    numpy's default linear rule: at virtual index v = (n - 1) * q, with
    t = v - floor(v), lerp between the two order statistics around v,
    from the upper one when t >= 0.5; the last value once v >= n - 1.
    np.quantile gives the same bits by way of np.unique, which loads
    numpy.ma (about 1 MB and 10 ms) for the rest of the process.
    """
    n = len(values)
    v = (n - 1) * q
    if v >= n - 1:
        return float(values[-1])
    lo = math.floor(v)
    t = v - lo
    a, b = float(values[lo]), float(values[lo + 1])
    d = b - a
    return b - d * (1.0 - t) if t >= 0.5 else a + d * t


def generate_synthetic(cfg: SynthConfig) -> Dataset:
    """Sample a dataset with planted human-hard and machine-hard regions.

    Labels follow `class_priors`; features are unit-variance Gaussians
    around the class means (`gaussian_features`). Instances whose x[0]
    lies above the (1 - hard_region_fraction) quantile form the
    human-hard region: there the response flips to the most confusable
    wrong class (the nearest other class mean) with probability
    `human_hard_error`; elsewhere it flips with probability
    `human_easy_error`. Instances below the
    `hard_region_fraction` quantile form the machine-hard region, where
    features 1..ceil(d/2) are corrupted with Gaussian noise of scale
    `machine_noise_scale`. The planted x[0] boundaries are the dataset's
    `planted` field, and are also recorded in its name.
    """
    cfg.validate()
    rng = np.random.default_rng(cfg.seed)
    K, d, n = cfg.num_classes, cfg.feature_dim, cfg.n

    y = rng.choice(K, size=n, p=np.asarray(cfg.class_priors))
    means = class_means(K, d)
    X = gaussian_features(rng, means, y)

    x0 = X[:, 0]
    x0_sorted = np.sort(x0)
    hard_hi = sorted_quantile(x0_sorted, 1.0 - cfg.hard_region_fraction)
    hard_lo = sorted_quantile(x0_sorted, cfg.hard_region_fraction)
    human_hard = x0 > hard_hi
    machine_hard = x0 < hard_lo

    confusable = confusable_class(X, y, means)
    err_prob = np.where(human_hard, cfg.human_hard_error, cfg.human_easy_error)
    flips = rng.random(n) < err_prob
    h = np.where(flips, confusable, y)

    corrupt_hi = min((d + 1) // 2, d - 1)  # features 1..ceil(d/2), capped at d-1
    if corrupt_hi >= 1 and machine_hard.any():
        noise = rng.standard_normal((int(machine_hard.sum()), corrupt_hi))
        X[np.ix_(machine_hard, np.arange(1, corrupt_hi + 1))] += \
            cfg.machine_noise_scale * noise

    name = (f"synth[k={K},d={d},n={n},seed={cfg.seed},"
            f"hard_hi={hard_hi!r},hard_lo={hard_lo!r}]")
    return Dataset(X, y, h, K, name, (hard_hi, hard_lo))


def split(dataset: Dataset, fractions: tuple[float, float, float],
          seed: int) -> tuple[Dataset, Dataset, Dataset]:
    """Seeded shuffle into (train, val, test); remainder goes to train."""
    fracs = np.asarray(fractions, dtype=np.float64)
    if len(fracs) != 3 or not np.isfinite(fracs).all() or \
            (fracs <= 0).any() or abs(fracs.sum() - 1.0) > 1e-9:
        raise ConfigError("fractions must be three positives summing to 1")
    n = len(dataset)
    if n < 3:
        raise InputError(f"cannot split {n} instances three ways")
    n_val = int(np.floor(n * fracs[1]))
    n_test = int(np.floor(n * fracs[2]))
    n_train = n - n_val - n_test
    perm = np.random.default_rng(seed).permutation(n)
    parts = (perm[:n_train], perm[n_train:n_train + n_val],
             perm[n_train + n_val:])
    tags = ("train", "val", "test")
    return tuple(dataset.subset(p, f"{dataset.name}/{t}")
                 for p, t in zip(parts, tags))


def save_csv(dataset: Dataset, path) -> None:
    """Write the package CSV format: header f0..f{d-1},y,h then one row each."""
    d = dataset.feature_dim
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"f{i}" for i in range(d)] + ["y", "h"])
        for xi, yi, hi in zip(dataset.X, dataset.y, dataset.h):
            writer.writerow([repr(float(v)) for v in xi] + [int(yi), int(hi)])


def _undecodable(row: list[str]) -> bool:
    """Whether a row read with errors="surrogateescape" held bytes that
    are not UTF-8."""
    return any("\udc80" <= c <= "\udcff" for v in row for c in v)


def _records(path, reader):
    """The rows of a csv reader; one that csv cannot split (a field past
    its size limit, say) raises ParseError naming its line."""
    try:
        yield from reader
    except csv.Error as e:
        raise ParseError(f"{path}:{reader.line_num}: {e}",
                         line=reader.line_num) from e


def load_csv(path, num_classes: int) -> Dataset:
    """Parse the package CSV format; errors carry the 1-based line number.

    The file is read one row at a time, and only the parsed values are
    kept, so parsing holds little beyond the arrays it returns. A row's
    checks run in order: its column count, its values (bytes that are not
    UTF-8 included), finite features, then labels and responses in
    [0, num_classes). A num_classes below 2 raises ConfigError before the
    file is opened.
    """
    if num_classes < 2:
        raise ConfigError(f"num_classes must be at least 2, got {num_classes}")
    with open(path, "r", newline="", encoding="utf-8",
              errors="surrogateescape") as fh:
        rows = _records(path, csv.reader(fh))
        header = next(rows, None)
        if header is None:
            raise ParseError(f"{path}: empty file", line=1)
        if _undecodable(header):
            raise ParseError(f"{path}:1: invalid UTF-8", line=1)
        if len(header) < 3 or header[-2:] != ["y", "h"]:
            raise ParseError(f"{path}: header must end with y,h columns",
                             line=1)
        d = len(header) - 2
        if header[:d] != [f"f{i}" for i in range(d)]:
            raise ParseError(f"{path}: feature columns must be"
                             f" f0..f{d - 1}", line=1)
        X, y, h = array("d"), array("q"), array("q")
        for lineno, row in enumerate(rows, start=2):
            if len(row) != d + 2:
                raise ParseError(f"{path}:{lineno}: expected {d + 2}"
                                 f" columns, got {len(row)}", line=lineno)
            try:
                x = [float(v) for v in row[:d]]
                label, response = int(row[d]), int(row[d + 1])
            except ValueError as e:
                why = "invalid UTF-8" if _undecodable(row) else e
                raise ParseError(f"{path}:{lineno}: {why}",
                                 line=lineno) from e
            if not all(map(math.isfinite, x)):
                raise ParseError(f"{path}:{lineno}: non-finite feature",
                                 line=lineno)
            for col, val in (("y", label), ("h", response)):
                if not 0 <= val < num_classes:
                    raise ParseError(f"{path}:{lineno}: {col}={val} outside"
                                     f" [0, {num_classes})", line=lineno)
            X.extend(x)
            y.append(label)
            h.append(response)
    if not y:
        raise ParseError(f"{path}:2: no data rows", line=2)
    return Dataset(np.frombuffer(X).reshape(-1, d), np.frombuffer(y, np.int64),
                   np.frombuffer(h, np.int64), num_classes, name=str(path))
