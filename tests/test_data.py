"""Dataset tests: synthetic generator, splits, CSV round trips."""

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import oracles
from conftest import traced_memory
from oracles import (confusable_class_broadcast, gaussian_features_broadcast,
                     numpy_quantile)
from teamopt.data import (Dataset, SynthConfig, class_means,
                          confusable_class, gaussian_features,
                          generate_synthetic, load_csv, save_csv,
                          sorted_quantile, split)
from teamopt.errors import ConfigError, InputError, ParseError
from teamopt.voi import _calibration_split


def small_cfg(**kwargs):
    base = dict(num_classes=3, feature_dim=4, n=400,
                class_priors=(0.5, 0.3, 0.2), seed=0)
    base.update(kwargs)
    return SynthConfig(**base)


# --- generator -------------------------------------------------------------

def test_zero_noise_means_human_matches_truth():
    ds = generate_synthetic(small_cfg(human_easy_error=0.0,
                                      human_hard_error=0.0))
    assert np.array_equal(ds.h, ds.y)
    assert ds.human_error_rate() == 0.0


def test_human_errors_concentrate_in_planted_region():
    # closed form: 0.8 * 0.1 / (0.8 * 0.1 + 0.02 * 0.9) ~= 0.816
    cfg = SynthConfig(num_classes=3, feature_dim=4, n=10000,
                      class_priors=(0.5, 0.3, 0.2), human_easy_error=0.02,
                      human_hard_error=0.8, hard_region_fraction=0.1, seed=3)
    ds = generate_synthetic(cfg)
    hard_hi, _ = ds.planted
    errors = ds.h != ds.y
    inside = float((errors & (ds.X[:, 0] > hard_hi)).sum() / errors.sum())
    assert abs(inside - 0.8163) < 0.05


def test_generator_is_deterministic():
    a = generate_synthetic(small_cfg(seed=5))
    b = generate_synthetic(small_cfg(seed=5))
    assert a.X.tobytes() == b.X.tobytes()
    assert a.y.tobytes() == b.y.tobytes()
    assert a.h.tobytes() == b.h.tobytes()
    assert a.name == b.name
    c = generate_synthetic(small_cfg(seed=6))
    assert a.X.tobytes() != c.X.tobytes()


@settings(max_examples=120, deadline=None)
@given(n=st.integers(1, 700), K=st.integers(2, 12), d=st.integers(1, 9),
       seed=st.integers(0, 2**32 - 1),
       weights=st.lists(st.integers(0, 9), min_size=12, max_size=12))
@example(n=500, K=5, d=8, seed=3, weights=[14, 1, 1, 1, 1] + [0] * 7)
@example(n=300, K=12, d=3, seed=0, weights=[1] * 12)
@example(n=300, K=4, d=1, seed=7, weights=[1] * 12)
def test_generator_matches_the_broadcast_reference(n, K, d, seed, weights):
    # the features shifted in place and the per-class distances keep the
    # bits of the (n, d) means[y] and (n, K, d) broadcasts, so every
    # generated array does too, K > d - 1 and d = 1 included
    w = np.array(weights[:K], dtype=np.float64)
    w = w / w.sum() if w.any() else np.full(K, 1.0 / K)
    cfg = SynthConfig(num_classes=K, feature_dim=d, n=n,
                      class_priors=tuple(w), seed=seed)
    got = generate_synthetic(cfg)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr("teamopt.data.confusable_class",
                   confusable_class_broadcast)
        mp.setattr("teamopt.data.gaussian_features",
                   gaussian_features_broadcast)
        want = generate_synthetic(cfg)
    for field in ("X", "y", "h"):
        assert getattr(got, field).tobytes() == getattr(want, field).tobytes()
    means = class_means(K, d)
    assert np.array_equal(confusable_class(got.X, got.y, means),
                          confusable_class_broadcast(got.X, got.y, means))
    a, b = (np.random.default_rng(seed) for _ in range(2))
    assert gaussian_features(a, means, got.y).tobytes() == \
        gaussian_features_broadcast(b, means, got.y).tobytes()


def test_generator_peak_memory_is_bounded():
    # no (n, K, d) temporary and no (n, K) distances: the peak stays within
    # 3x the arrays returned, also with more classes than features
    generate_synthetic(SynthConfig(n=100))  # modules numpy loads lazily
    for K, d in ((5, 8), (12, 3), (12, 1)):
        priors = (0.7, *[0.3 / (K - 1)] * (K - 1))
        with traced_memory() as trace:
            ds = generate_synthetic(SynthConfig(
                num_classes=K, feature_dim=d, n=50_000, class_priors=priors))
            peak = trace.peak_above()
        assert peak <= 3 * (ds.X.nbytes + ds.y.nbytes + ds.h.nbytes), (K, d)


def test_class_priors_are_respected():
    ds = generate_synthetic(SynthConfig(seed=1))  # default skewed 5-class
    fractions = np.bincount(ds.y, minlength=5) / len(ds)
    assert np.allclose(fractions, (0.7, 0.075, 0.075, 0.075, 0.075),
                       atol=0.02)


def test_machine_hard_region_has_corrupted_features():
    cfg = small_cfg(n=4000, machine_noise_scale=2.0, seed=2)
    ds = generate_synthetic(cfg)
    _, hard_lo = ds.planted
    low = ds.X[:, 0] < hard_lo
    # scale-2 corruption adds ~4 to the variance of feature 1 inside
    assert ds.X[low, 1].var() > ds.X[~low, 1].var() + 2.0


def test_human_hard_flips_go_to_a_wrong_class():
    ds = generate_synthetic(small_cfg(human_easy_error=1.0,
                                      human_hard_error=1.0, seed=4))
    assert (ds.h != ds.y).all()
    assert ds.h.min() >= 0 and ds.h.max() < ds.num_classes


def test_planted_boundaries_recoverable():
    ds = generate_synthetic(small_cfg())
    hi, lo = ds.planted
    assert lo < hi
    assert abs((ds.X[:, 0] > hi).mean() - 0.1) < 0.02
    assert f"hard_hi={hi!r},hard_lo={lo!r}]" in ds.name
    assert ds.subset(np.arange(5), "head").planted == (hi, lo)
    assert Dataset(np.zeros((2, 1)), [0, 1], [0, 1], 2, "plain").planted \
        is None


@pytest.mark.parametrize("seed, planted", [
    (3, (1.2858299522643086, -1.2737281323004697)),
    (7, (1.2581869286224547, -1.2876933823987675)),
    (11, (1.278111136960874, -1.2994369381778592)),
])
def test_planted_boundaries_are_pinned(seed, planted):
    # the benchmark datasets' boundaries, as np.quantile drew them
    ds = generate_synthetic(SynthConfig(n=14000, seed=seed))
    assert ds.planted == planted
    hi, lo = planted
    assert ds.name.endswith(f"hard_hi={hi!r},hard_lo={lo!r}]")


# Ties of -0.0 and +0.0 sort in no fixed order, and np.quantile takes its
# order statistics from np.partition, so the sign of a zero result can
# differ; zeros enter as +0.0 (x + 0.0) and every other bit is compared.
finite_samples = st.one_of(
    arrays(np.float64, st.integers(1, 60),
           elements=st.floats(allow_nan=False, allow_infinity=False)),
    arrays(np.float64, st.integers(1, 300),
           elements=st.sampled_from([-2.5, -1.0, 0.0, 0.5, 3.0])),
    arrays(np.float64, st.integers(1, 3000),
           elements=st.floats(-4.0, 4.0, width=16)),
).map(lambda x: x + 0.0)


@settings(max_examples=600, deadline=None)
@given(x=finite_samples, f=st.floats(0.0, 1.0), data=st.data())
@example(x=np.array([7.0]), f=0.3, data=None)
@example(x=np.array([1.0, 1.0, 2.0, 2.0, 2.0]), f=0.1, data=None)
# t = 0.5 exactly, where the lerp from below has other bits
@example(x=np.array([0.33043707618338714, -1.303157231604361]), f=0.5,
         data=None)
def test_sorted_quantile_matches_numpy_bit_for_bit(x, f, data):
    qs = [0.0, 1.0, f, 1.0 - f]
    if data is not None:
        # any q, and a q at a whole or half virtual index
        halves = 2 * max(len(x) - 1, 1)
        qs += [data.draw(st.floats(0.0, 1.0)),
               data.draw(st.integers(0, halves)) / halves]
    ascending = np.sort(x)
    for q in qs:
        got, want = sorted_quantile(ascending, q), numpy_quantile(x, q)
        assert type(got) is float
        assert np.float64(got).tobytes() == np.float64(want).tobytes(), q


@pytest.mark.parametrize("kwargs", [
    {"class_priors": (0.5, 0.5, 0.5)},
    {"class_priors": (1.0,)},
    {"human_easy_error": 0.5, "human_hard_error": 0.1},
    {"hard_region_fraction": 0.0},
    {"hard_region_fraction": 1.0},
    {"machine_noise_scale": -1.0},
    {"n": 0},
])
def test_generator_rejects_bad_config(kwargs):
    with pytest.raises(ConfigError):
        generate_synthetic(small_cfg(**kwargs))


def test_dataset_validation():
    with pytest.raises(InputError):
        Dataset(np.zeros((0, 2)), [], [], 2)
    with pytest.raises(InputError):
        Dataset(np.zeros((2, 2)), [0, 2], [0, 1], 2)  # label out of range
    with pytest.raises(InputError):
        Dataset(np.array([[np.nan, 0.0]]), [0], [0], 2)
    with pytest.raises(InputError):
        Dataset(np.zeros((2, 2)), [0, 1], [0, 1], 1)  # needs two classes


# --- split -----------------------------------------------------------------

def identifiable_dataset(n):
    X = np.arange(n, dtype=np.float64)[:, None] * [1.0, 2.0]
    return Dataset(X, np.arange(n) % 2, np.arange(n) % 2, 2, "ids")


def test_split_sizes_floor_with_remainder_to_train():
    tr, va, te = split(identifiable_dataset(10), (0.8, 0.1, 0.1), seed=0)
    assert (len(tr), len(va), len(te)) == (8, 1, 1)
    tr, va, te = split(identifiable_dataset(14), (0.7, 0.15, 0.15), seed=0)
    assert (len(tr), len(va), len(te)) == (10, 2, 2)


def test_split_is_a_partition():
    ds = identifiable_dataset(29)
    parts = split(ds, (0.6, 0.2, 0.2), seed=3)
    seen = np.concatenate([p.X[:, 0] for p in parts])
    assert np.array_equal(np.sort(seen), ds.X[:, 0])
    for p in parts:
        assert np.array_equal(p.y, p.X[:, 0].astype(int) % 2)  # rows aligned


def test_split_deterministic_and_seed_sensitive():
    ds = identifiable_dataset(50)
    a = split(ds, (0.7, 0.15, 0.15), seed=9)
    b = split(ds, (0.7, 0.15, 0.15), seed=9)
    assert all(x.X.tobytes() == y.X.tobytes() for x, y in zip(a, b))
    c = split(ds, (0.7, 0.15, 0.15), seed=10)
    assert a[0].X.tobytes() != c[0].X.tobytes()


@settings(max_examples=80, deadline=None)
@given(n=st.integers(3, 300),
       weights=st.lists(st.integers(1, 20), min_size=3, max_size=3),
       seed=st.integers(0, 2**32 - 1))
@example(n=3, weights=[1, 1, 1], seed=0)  # a one-row training split
@example(n=3, weights=[1, 1, 2], seed=0)  # an empty validation split
def test_splits_hold_the_rows_that_copies_hold(n, weights, seed):
    # splits and calibration slices are row indices into the dataset:
    # the same rows, names and lengths as the copies they used to be,
    # and the same errors
    ds = generate_synthetic(small_cfg(n=n, seed=seed % 7))
    fractions = tuple(np.array(weights) / sum(weights))

    def parts():
        tr, va, te = split(ds, fractions, seed)
        return (tr, va, te, *_calibration_split(tr, seed))

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Dataset, "subset", oracles.subset)
        try:
            want = parts()
        except InputError:
            want = None
    if want is None:
        with pytest.raises(InputError):
            parts()
        return
    X = ds.X.copy()
    for g, w in zip(parts(), want, strict=True):
        assert g.source is ds and len(g) == len(w) == len(g.rows)
        assert (g.name, g.planted, g.num_classes) == \
            (w.name, w.planted, w.num_classes)
        for field in ("X", "y", "h"):
            assert getattr(g, field).tobytes() == getattr(w, field).tobytes()
        assert g.gathered().X.tobytes() == w.X.tobytes()
        g.X[:] = 0.0  # a fresh gather: the dataset is left as it was
    assert ds.X.tobytes() == X.tobytes()


def test_split_names_tag_the_parts():
    parts = split(identifiable_dataset(10), (0.8, 0.1, 0.1), seed=0)
    assert [p.name for p in parts] == ["ids/train", "ids/val", "ids/test"]


def test_split_input_validation():
    with pytest.raises(InputError):
        split(identifiable_dataset(2), (0.34, 0.33, 0.33), seed=0)
    with pytest.raises(ConfigError):
        split(identifiable_dataset(10), (0.5, 0.5, 0.5), seed=0)
    with pytest.raises(ConfigError):
        split(identifiable_dataset(10), (1.0, 0.0, 0.0), seed=0)
    for fractions in ((0.5, np.nan, 0.5), (np.nan, 0.5, 0.5),
                      (0.5, 0.5, np.nan), (np.inf, 0.5, 0.5)):
        with pytest.raises(ConfigError):
            split(identifiable_dataset(10), fractions, seed=0)


# --- CSV -------------------------------------------------------------------

def test_csv_round_trip_is_exact(tmp_path):
    ds = generate_synthetic(small_cfg(n=50))
    path = tmp_path / "ds.csv"
    save_csv(ds, path)
    back = load_csv(path, ds.num_classes)
    assert np.array_equal(back.X, ds.X)  # repr floats round-trip exactly
    assert np.array_equal(back.y, ds.y)
    assert np.array_equal(back.h, ds.h)
    assert back.num_classes == ds.num_classes
    assert back.planted is None


def test_load_csv_small_hand_file(tmp_path):
    path = tmp_path / "three.csv"
    path.write_text("f0,f1,y,h\n0.1,0.2,0,0\n0.3,0.4,1,1\n0.5,0.6,1,0\n")
    ds = load_csv(path, 2)
    assert len(ds) == 3 and ds.feature_dim == 2
    assert ds.y.tolist() == [0, 1, 1]
    assert ds.h.tolist() == [0, 1, 0]
    assert np.allclose(ds.X[2], [0.5, 0.6])


@pytest.mark.parametrize("num_classes", [0, 1, -3])
def test_load_csv_rejects_fewer_than_two_classes_before_reading(tmp_path,
                                                                num_classes):
    # the count is at fault, not the file, which is not even opened
    with pytest.raises(ConfigError, match="num_classes"):
        load_csv(tmp_path / "absent.csv", num_classes)


def test_load_csv_range_error_names_line(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("f0,y,h\n0.1,0,0\n0.2,1,5\n")
    with pytest.raises(ParseError) as info:
        load_csv(path, 5)
    assert info.value.line == 3
    assert "3" in str(info.value)


@pytest.mark.parametrize("text,line", [
    ("f0,f1\n0.1,0.2\n", 1),                  # header missing y,h
    ("g0,y,h\n0.1,0,0\n", 1),                 # wrong feature names
    ("f0,y,h\n0.1,0\n", 2),                   # short row
    ("f0,y,h\nabc,0,0\n", 2),                 # non-numeric feature
    ("f0,y,h\n0.1,0,0\n0.2,x,0\n", 3),        # non-integer label
    ("f0,y,h\ninf,0,0\n", 2),                 # non-finite feature
    ("", 1),                                  # empty file
    ("f0,y,h\n", 2),                          # header without rows
])
def test_load_csv_parse_errors_carry_line_numbers(tmp_path, text, line):
    path = tmp_path / "bad.csv"
    path.write_text(text)
    with pytest.raises(ParseError) as info:
        load_csv(path, 3)
    assert info.value.line == line


@pytest.mark.parametrize("row", ["0.1,99999999999999999999,0",
                                 "0.1,0,-99999999999999999999"])
def test_load_csv_label_beyond_int64_names_line(tmp_path, row):
    path = tmp_path / "big.csv"
    path.write_text(f"f0,y,h\n0.1,0,0\n{row}\n")
    with pytest.raises(ParseError, match="outside") as info:
        load_csv(path, 3)
    assert info.value.line == 3


@pytest.mark.parametrize("data,line", [
    (b"f0,y,h\n0.1,0,0\n0.\xff2,1,0\n0.3,1,1\n", 3),
    (b"f0,y,h\n0.1,0,0\n0.2,1,\xc3\n", 3),     # truncated sequence
    (b"f\xe90,y,h\n0.1,0,0\n", 1),              # Latin-1 header
])
def test_load_csv_invalid_utf8_names_line(tmp_path, data, line):
    path = tmp_path / "bytes.csv"
    path.write_bytes(data)
    with pytest.raises(ParseError, match="invalid UTF-8") as info:
        load_csv(path, 3)
    assert info.value.line == line


def test_load_csv_field_past_csv_limit_names_line(tmp_path):
    path = tmp_path / "long.csv"
    path.write_text("f0,y,h\n0.1,0,0\n" + "1" * 200_000 + ",0,0\n")
    with pytest.raises(ParseError, match="field larger") as info:
        load_csv(path, 3)
    assert info.value.line == 3


def test_load_csv_holds_little_beyond_its_arrays(tmp_path):
    # rows are parsed one at a time: no list of every row's strings
    ds = generate_synthetic(small_cfg(n=20_000))
    path = tmp_path / "ds.csv"
    save_csv(ds, path)
    load_csv(path, ds.num_classes)  # modules loaded lazily
    with traced_memory() as trace:
        back = load_csv(path, ds.num_classes)
        peak = trace.peak_above()
    assert peak <= 3 * (back.X.nbytes + back.y.nbytes + back.h.nbytes)


@st.composite
def datasets(draw):
    """Any dataset: n >= 1 rows, d >= 1 finite float64 features (zeros of
    either sign and subnormals included), K >= 2 classes."""
    n, d, k = draw(st.integers(1, 12)), draw(st.integers(1, 4)), draw(
        st.integers(2, 6))
    X = draw(arrays(np.float64, (n, d), elements=st.floats(
        allow_nan=False, allow_infinity=False)))
    labels = arrays(np.int64, n, elements=st.integers(0, k - 1))
    return Dataset(X, draw(labels), draw(labels), k)


# The CSV file is rewritten by every example, so sharing tmp_path is safe.
csv_settings = settings(
    deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])


@csv_settings
@given(datasets())
def test_csv_round_trip_is_bitwise_for_any_dataset(tmp_path, ds):
    path = tmp_path / "ds.csv"
    save_csv(ds, path)
    back = load_csv(path, ds.num_classes)
    assert back.X.tobytes() == ds.X.tobytes()
    assert back.y.tobytes() == ds.y.tobytes()
    assert back.h.tobytes() == ds.h.tobytes()


@st.composite
def corruptions(draw, d: int, k: int):
    """(kind, row fields -> corrupted fields) for a row of d features."""
    kind = draw(st.sampled_from(["columns", "non-numeric", "non-finite",
                                 "label-range"]))
    if kind == "columns":
        extra = draw(st.sampled_from([-1, 1]))
        return kind, lambda f: f[:-1] if extra < 0 else f + ["0"]
    if kind == "non-numeric":
        col = draw(st.integers(0, d + 1))
        text = draw(st.sampled_from(["abc", "", " ", "1.2.3", "--1"]))
    elif kind == "non-finite":
        col = draw(st.integers(0, d - 1))
        text = draw(st.sampled_from(["inf", "-inf", "nan", "1e999"]))
    else:
        col = draw(st.sampled_from([d, d + 1]))
        text = str(draw(st.integers(-2, -1) | st.integers(k, k + 1)))
    return kind, lambda f: f[:col] + [text] + f[col + 1:]


@csv_settings
@given(st.data())
def test_corrupted_row_error_names_its_line(tmp_path, data):
    ds = data.draw(datasets())
    row = data.draw(st.integers(0, len(ds) - 1))
    kind, corrupt = data.draw(corruptions(ds.feature_dim, ds.num_classes))
    path = tmp_path / "bad.csv"
    save_csv(ds, path)
    lines = path.read_text().splitlines()
    lines[row + 1] = ",".join(corrupt(lines[row + 1].split(",")))
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ParseError) as info:
        load_csv(path, ds.num_classes)
    assert info.value.line == row + 2, kind


def test_csv_header_format(tmp_path):
    ds = generate_synthetic(small_cfg(n=5))
    path = tmp_path / "ds.csv"
    save_csv(ds, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "f0,f1,f2,f3,y,h"
    assert len(lines) == 6


def test_subset_and_instance_access():
    ds = identifiable_dataset(6)
    sub = ds.subset(np.array([4, 1]), "picked")
    assert sub.name == "picked" and len(sub) == 2
    assert sub.X[0, 0] == 4.0
    assert ds.X[3, 0] == 3.0 and sub.y[1] == ds.y[1]
