"""Tests for the synthetic epoch generator and CSV round-tripping."""

import numpy as np
import pytest

from elmbench import Dataset, grand_average, load_csv, synth_epochs, write_csv
from elmbench.data import (BUMP_CENTER_MS, BUMP_WIDTH_MS, DEFAULT_CHANNELS,
                           DEFAULT_SAMPLES, SAMPLE_RATE_HZ, grid_shape)
from elmbench.errors import InvalidLabel, LayoutMismatch, ParseError, SchemaError


# ---------------------------------------------------------------------------
# synth_epochs
# ---------------------------------------------------------------------------

def test_synth_default_counts():
    eps = synth_epochs(seed=7)
    assert eps.trials == 864
    assert eps.channels == 14
    assert eps.samples == 64
    assert int(eps.labels.sum()) == 72
    assert int((eps.labels == 0).sum()) == 792
    assert eps.data.shape == (864, 14, 64)


def test_synth_deterministic_and_seed_sensitive():
    a = synth_epochs(seed=3)
    b = synth_epochs(seed=3)
    c = synth_epochs(seed=4)
    assert a.data.tobytes() == b.data.tobytes()
    assert a.data.tobytes() != c.data.tobytes()


def test_synth_one_target_per_run():
    eps = synth_epochs(seed=11, n_sessions=4, runs_per_session=3, n_images=5)
    assert int(eps.labels.sum()) == 4 * 3
    for session in range(4):
        for run in range(3):
            mask = (eps.layout[:, 0] == session) & (eps.layout[:, 1] == run)
            assert int(eps.labels[mask].sum()) == 1


def test_synth_layout_ordering():
    eps = synth_epochs(seed=13, n_sessions=3, runs_per_session=2, n_images=4)
    keys = [tuple(row) for row in eps.layout]
    assert keys == sorted(keys)
    assert grid_shape(eps.layout) == (3, 2, 4)


def test_synth_vanishing_signal():
    eps = synth_epochs(seed=17, snr=1e-9)
    feats = grand_average(eps)
    target = feats[eps.labels == 1].mean(axis=0)
    rest = feats[eps.labels == 0].mean(axis=0)
    # channel averaging scales per-sample noise variance by 1/channels
    se_diff = np.sqrt(1.0 / (14 * 72) + 1.0 / (14 * 792))
    assert np.abs(target - rest).max() < 3.0 * se_diff


def test_synth_strong_signal_peak_separation():
    eps = synth_epochs(seed=19, snr=5.0)
    feats = grand_average(eps)
    peak = int(round(BUMP_CENTER_MS / 1000.0 * SAMPLE_RATE_HZ))
    diff = feats[eps.labels == 1, peak].mean() - feats[eps.labels == 0, peak].mean()
    assert diff >= 4.0


def _loop_epochs(seed, n_sessions, runs_per_session, n_images, snr=3.0):
    """Reference generator: the per-trial loop synth_epochs replaced."""
    rng = np.random.default_rng(seed)
    target_image = rng.integers(0, n_images, size=n_sessions)
    trials = n_sessions * runs_per_session * n_images
    data = rng.standard_normal((trials, DEFAULT_CHANNELS, DEFAULT_SAMPLES))
    t_ms = np.arange(DEFAULT_SAMPLES) * (1000.0 / SAMPLE_RATE_HZ)
    bump = snr * np.exp(-0.5 * ((t_ms - BUMP_CENTER_MS) / BUMP_WIDTH_MS) ** 2)
    layout = np.zeros((trials, 3), dtype=np.int64)
    labels = np.zeros(trials, dtype=np.int64)
    idx = 0
    for session in range(n_sessions):
        for run in range(runs_per_session):
            for image in range(n_images):
                layout[idx] = (session, run, image)
                if image == target_image[session]:
                    labels[idx] = 1
                    data[idx] += bump
                idx += 1
    return data, labels, layout


@pytest.mark.parametrize("seed", [0, 7, 11])
@pytest.mark.parametrize("grid", [(12, 6, 12), (4, 3, 5)])
def test_synth_matches_reference_loop(seed, grid):
    eps = synth_epochs(seed, *grid)
    for got, want in zip((eps.data, eps.labels, eps.layout),
                         _loop_epochs(seed, *grid)):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


def test_synth_rejects_nonpositive_snr():
    with pytest.raises(ValueError):
        synth_epochs(seed=1, snr=0.0)


@pytest.mark.parametrize("snr", [float("nan"), float("inf"), "3", None, 3 + 0j])
def test_synth_rejects_nonfinite_snr(snr):
    with pytest.raises(ValueError, match="finite"):
        synth_epochs(seed=1, snr=snr)


@pytest.mark.parametrize("kwargs, message", [
    ({"seed": 1.5}, "^seed must be"),
    ({"seed": -1}, "^seed must be"),
    ({"seed": 0, "n_sessions": 2.5}, "^grid dimensions must be positive"),
    ({"seed": 0, "samples": 4.0}, "^grid dimensions must be positive"),
])
def test_synth_rejects_sizes_that_are_not_integers(kwargs, message):
    with pytest.raises(ValueError, match=message):
        synth_epochs(**kwargs)
    assert synth_epochs(np.int64(0), n_sessions=np.int64(2)).labels.size == 144


def test_pipeline_shape():
    feats = grand_average(synth_epochs(seed=23))
    assert feats.shape == (864, 64)


def test_grid_shape_mismatch():
    layouts = (
        [[0, 0, 0], [0, 0, 1], [1, 0, 0]],
        # 4 rows fit a 2x1x2 grid, but (0, 0, 1) repeats and (1, 0, 0) is missing
        [[0, 0, 0], [0, 0, 1], [0, 0, 1], [1, 0, 1]],
    )
    for layout in layouts:
        with pytest.raises(LayoutMismatch):
            grid_shape(np.array(layout))


# ---------------------------------------------------------------------------
# CSV round trip and validation
# ---------------------------------------------------------------------------

def _small_dataset(rng, trials=6, width=3):
    layout = np.array([[s, 0, i] for s in range(2) for i in range(3)],
                      dtype=np.int64)[:trials]
    return Dataset(features=rng.standard_normal((trials, width)),
                   labels=rng.integers(0, 2, trials),
                   layout=layout)


def test_csv_round_trip_bit_equal(tmp_path):
    rng = np.random.default_rng(31)
    ds = _small_dataset(rng)
    path = tmp_path / "ds.csv"
    write_csv(ds, path)
    back = load_csv(path)
    assert back.features.tobytes() == ds.features.tobytes()
    assert np.array_equal(back.labels, ds.labels)
    assert np.array_equal(back.layout, ds.layout)


def test_csv_three_rows(tmp_path):
    path = tmp_path / "three.csv"
    path.write_text("session,run,image,label,f0\n"
                    "0,0,0,1,0.25\n0,0,1,0,-1.5\n0,0,2,0,3e-4\n")
    ds = load_csv(path)
    assert ds.features.shape == (3, 1)
    assert np.array_equal(ds.labels, [1, 0, 0])


def test_csv_one_row_file(tmp_path):
    rng = np.random.default_rng(37)
    ds = Dataset(features=rng.standard_normal((1, 2)),
                 labels=np.array([1]), layout=np.array([[0, 0, 0]]))
    path = tmp_path / "one.csv"
    write_csv(ds, path)
    lines = path.read_text().strip().splitlines()
    assert len(lines) == 2  # header + one data row


def test_csv_invalid_label_names_row(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("session,run,image,label,f0\n0,0,0,2,1.0\n")
    with pytest.raises(InvalidLabel, match="row 1"):
        load_csv(path)


def test_csv_missing_columns(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("session,run,label,f0\n0,0,1,1.0\n")
    with pytest.raises(SchemaError):
        load_csv(path)


def test_csv_no_features(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("session,run,image,label\n0,0,0,1\n")
    with pytest.raises(SchemaError):
        load_csv(path)


@pytest.mark.parametrize("text, message", [
    ("\n  \n\n", "empty file"),
    ("session,run,image,label,f0,f2\n0,0,0,1,1.0,2.0\n", "feature columns must be f0..f1"),
], ids=["blank-lines", "feature-names"])
def test_csv_refuses_blank_files_and_misnamed_features(tmp_path, text, message):
    path = tmp_path / "bad.csv"
    path.write_text(text)
    with pytest.raises(SchemaError, match=message):
        load_csv(path)


def test_csv_rejects_header_only_file(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("session,run,image,label,f0,f1\n")
    with pytest.raises(SchemaError, match="no data rows"):
        load_csv(path)


def test_csv_rejects_nan_with_location(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("session,run,image,label,f0,f1\n0,0,0,1,1.0,nan\n")
    with pytest.raises(ParseError, match="row 1.*f1"):
        load_csv(path)


def test_csv_rejects_garbage_cell(tmp_path):
    rows = {
        # int() and float() take all but the first cell of these; none is a
        # decimal literal
        "0,0,0,1,zzz": "row 1",
        "0,0,0,1,1_000": "row 1, column f0",
        "0,0,0,1,\u0661": "row 1, column f0",
        "0,0,0,1, 1.5": "row 1, column f0",
        "0,0,0,1,infinity": "row 1, column f0",
        "1_0,0,0,1,1.0": "row 1, column session",
        "0,\u0661,0,1,1.0": "row 1, column run",
        "0,0,0,0_1,1.0": "row 1, column label",
        # decimal characters only, but not a value the column takes
        "99999999999999999999,0,0,1,1.0": "row 1, column session",
        "1.5,0,0,1,1.0": "row 1, column session",
        "0,0,0,0.5,1.0": "row 1, column label",
        "0,0,0,1,1e": "row 1, column f0",
        "0,0,0,1,": "row 1, column f0",
        "0,0,0,1,1e999": "row 1, column f0: non-finite",
        "0,0,0,1": "row 1 has 4 cells, expected 5",
    }
    path = tmp_path / "bad.csv"
    for row, where in rows.items():
        path.write_text(f"session,run,image,label,f0\n{row}\n", encoding="utf-8")
        with pytest.raises(ParseError, match=where):
            load_csv(path)


def test_csv_loads_a_row_whose_sum_overflows(tmp_path):
    # A row whose finite values sum past the largest float still loads; a
    # bad cell after good ones is still the one named.
    path = tmp_path / "ds.csv"
    path.write_text("session,run,image,label,f0,f1\n0,0,0,1,1e308,1e308\n")
    assert np.array_equal(load_csv(path).features, [[1e308, 1e308]])
    path.write_text("session,run,image,label,f0,f1\n0,0,0,1,1e308,1e999\n")
    with pytest.raises(ParseError, match="row 1, column f1: non-finite"):
        load_csv(path)


def test_csv_rejects_out_of_order_rows(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("session,run,image,label,f0\n"
                    "1,0,0,0,1.0\n0,0,0,1,1.0\n")
    with pytest.raises(SchemaError, match="order"):
        load_csv(path)


def test_write_rejects_empty_features(tmp_path):
    ds = Dataset(features=np.zeros((2, 0)), labels=np.zeros(2, dtype=int),
                 layout=np.array([[0, 0, 0], [0, 0, 1]]))
    with pytest.raises(SchemaError):
        write_csv(ds, tmp_path / "bad.csv")


def test_write_rejects_what_load_refuses(tmp_path):
    layout = np.array([[0, 0, 0], [0, 0, 1]])
    feats = np.array([[1.0], [np.nan]])
    with pytest.raises(SchemaError, match="row 2"):
        write_csv(Dataset(features=feats, labels=np.zeros(2, dtype=int),
                          layout=layout), tmp_path / "nan.csv")
    with pytest.raises(InvalidLabel, match="got 2"):
        write_csv(Dataset(features=np.ones((2, 1)), labels=np.array([0, 2]),
                          layout=layout), tmp_path / "label.csv")
    assert not list(tmp_path.iterdir())
    floats = tmp_path / "floats.csv"
    write_csv(Dataset(features=np.ones((2, 1)), labels=np.array([0.0, 1.0]),
                      layout=layout), floats)
    assert load_csv(floats).labels.tolist() == [0, 1]


def test_write_accepts_whole_float_layout(tmp_path):
    layout = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])
    path = tmp_path / "floats.csv"
    write_csv(Dataset(features=np.ones((3, 1)), labels=np.array([1, 0, 0]),
                      layout=layout), path)
    back = load_csv(path)
    assert back.layout.tolist() == [[0, 0, 0], [0, 0, 1], [1, 0, 0]]


def test_write_rejects_fractional_layout(tmp_path):
    layout = np.array([[0, 0, 0], [0, 0, 0.5], [0, 0, 1]])
    with pytest.raises(SchemaError, match="row 2"):
        write_csv(Dataset(features=np.ones((3, 1)), labels=np.array([1, 0, 0]),
                          layout=layout), tmp_path / "half.csv")
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("features, labels, layout, message", [
    (np.ones((0, 1)), np.zeros(0), np.zeros((0, 3)), "at least one row"),
    (np.ones((2, 1)), np.zeros(3), [[0, 0, 0], [0, 0, 1]], "row count"),
    (np.ones((2, 1)), np.zeros(2), [[0, 0, 0]], "row count"),
    # astype(np.int64) would wrap these to -2**63 with only a warning
    (np.ones((2, 1)), np.zeros(2), [[0, 0, 0], [0, 0, -1e30]], "row 2"),
    (np.ones((2, 1)), np.zeros(2), [[0, 0, 0], [2.0**63, 0, 0]], "row 2"),
], ids=["no-rows", "label-count", "layout-count", "layout-below-int64",
        "layout-above-int64"])
def test_write_refuses_before_writing(tmp_path, features, labels, layout, message):
    ds = Dataset(features=features, labels=labels, layout=np.asarray(layout))
    with pytest.raises(SchemaError, match=message):
        write_csv(ds, tmp_path / "bad.csv")
    assert not list(tmp_path.iterdir())


def test_write_rejects_misordered_rows(tmp_path):
    ds = Dataset(features=np.ones((2, 1)), labels=np.zeros(2, dtype=int),
                 layout=np.array([[1, 0, 0], [0, 0, 0]]))
    with pytest.raises(SchemaError):
        write_csv(ds, tmp_path / "bad.csv")
