"""Dataset containers, a synthetic ERP epoch generator, and CSV round-tripping.

The generator stands in for an unavailable EEG recording: non-target trials
are unit Gaussian noise, target trials carry an added positive deflection in
the window where the evoked response discriminates the classes. Trials are
laid out in (session, run, image) order, which is the contract the
session-based fold planner relies on.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import InvalidLabel, LayoutMismatch, ParseError, SchemaError

DEFAULT_CHANNELS = 14
DEFAULT_SAMPLES = 64           # 500 ms at 128 Hz
SAMPLE_RATE_HZ = 128.0
BUMP_CENTER_MS = 310.0         # inside the 280-340 ms discriminative window
BUMP_WIDTH_MS = 25.0


@dataclass(frozen=True)
class EpochSet:
    """Per-trial multichannel segments with labels and grid coordinates."""

    data: np.ndarray    # (trials, channels, samples), microvolts
    labels: np.ndarray  # (trials,) int, 1 = target
    layout: np.ndarray  # (trials, 3) int columns (session, run, image)

    @property
    def trials(self) -> int:
        return self.data.shape[0]

    @property
    def channels(self) -> int:
        return self.data.shape[1]

    @property
    def samples(self) -> int:
        return self.data.shape[2]


@dataclass(frozen=True)
class Dataset:
    """Flat feature rows with labels and grid coordinates."""

    features: np.ndarray  # (trials, n_features)
    labels: np.ndarray    # (trials,)
    layout: np.ndarray    # (trials, 3)


def synth_epochs(seed: int, n_sessions: int = 12, runs_per_session: int = 6,
                 n_images: int = 12, snr: float = 3.0,
                 channels: int = DEFAULT_CHANNELS,
                 samples: int = DEFAULT_SAMPLES) -> EpochSet:
    """Generate a deterministic oddball-style epoch set.

    One image per session is designated the target; its trials receive a
    Gaussian-bump deflection (peak amplitude = snr, center 310 ms, width
    25 ms) on every channel, on top of unit-variance noise. All other trials
    are pure noise.
    """
    if not (isinstance(snr, numbers.Real) and math.isfinite(snr) and snr > 0.0):
        raise ValueError(f"snr must be positive and finite, got {snr!r}")
    if not isinstance(seed, numbers.Integral) or seed < 0:
        raise ValueError(f"seed must be >= 0 and integral, got {seed!r}")
    if not all(isinstance(k, numbers.Integral) and k >= 1
               for k in (n_sessions, runs_per_session, n_images, channels, samples)):
        raise ValueError("grid dimensions must be positive integers")
    rng = np.random.default_rng(seed)
    target_image = rng.integers(0, n_images, size=n_sessions)
    trials = n_sessions * runs_per_session * n_images
    data = rng.standard_normal((trials, channels, samples))
    t_ms = np.arange(samples) * (1000.0 / SAMPLE_RATE_HZ)
    bump = snr * np.exp(-0.5 * ((t_ms - BUMP_CENTER_MS) / BUMP_WIDTH_MS) ** 2)
    layout = _grid(np.arange(n_sessions), np.arange(runs_per_session),
                   np.arange(n_images))
    target = layout[:, 2] == target_image[layout[:, 0]]
    data[target] += bump
    return EpochSet(data=data, labels=target.astype(np.int64), layout=layout)


def _grid(sessions: np.ndarray, runs: np.ndarray, images: np.ndarray) -> np.ndarray:
    """(session, run, image) rows of the Cartesian product, in ascending order."""
    return np.stack(np.meshgrid(sessions, runs, images, indexing="ij"),
                    axis=-1).reshape(-1, 3)


# ---------------------------------------------------------------------------
# CSV schema: session,run,image,label,f0,...,f{k-1}
# ---------------------------------------------------------------------------

_META_COLUMNS = ("session", "run", "image", "label")
# Deletes the cell separator and every character a decimal literal may have.
# On cells with nothing else, int() and float() accept decimal literals only;
# alone they would also take "1_000", padding, "nan" and non-ASCII digits.
_LITERAL_CHARS = str.maketrans("", "", "0123456789+-.eE,")


def write_csv(dataset: Dataset, path) -> None:
    """Emit the dataset in the schema load_csv reads.

    Feature values are written with 17 significant digits so a round trip
    reproduces them bit for bit. Rows must already be in ascending
    (session, run, image) order. What load_csv would refuse is refused here
    too, before any file is written: a non-finite feature or a layout value
    that is not a whole number in int64 raises SchemaError, and a label
    outside {0, 1} raises InvalidLabel. Labels and layout are written as
    integers.
    """
    feats = np.asarray(dataset.features, dtype=float)
    if feats.ndim != 2 or feats.shape[1] < 1:
        raise SchemaError("dataset must have at least one feature column")
    if feats.shape[0] < 1:
        raise SchemaError("dataset must have at least one row")
    bad = np.flatnonzero(~np.isfinite(feats).all(axis=1))
    if bad.size:
        raise SchemaError(f"row {bad[0] + 1}: non-finite feature value")
    labels = np.asarray(dataset.labels)
    layout = np.asarray(dataset.layout)
    if labels.shape[0] != feats.shape[0] or layout.shape != (feats.shape[0], 3):
        raise SchemaError("labels/layout row count does not match features")
    bad = np.flatnonzero(~np.isin(labels, (0, 1)))
    if bad.size:
        raise InvalidLabel(
            f"row {bad[0] + 1}: label must be 0 or 1, got {labels[bad[0]]}")
    # 2**63 compares exactly against float and integer layouts alike.
    whole = (np.isfinite(layout) & (layout == np.round(layout))
             & (layout >= -2**63) & (layout < 2**63))
    bad = np.flatnonzero(~whole.all(axis=1))
    if bad.size:
        raise SchemaError(
            f"row {bad[0] + 1}: layout value is not a whole number in int64")
    # 1.0 would be written as "1.0"
    labels = labels.astype(np.int64)
    layout = layout.astype(np.int64)
    keys = [tuple(row) for row in layout]
    if keys != sorted(keys):
        raise SchemaError("rows must be ordered by (session, run, image)")
    header = ",".join(_META_COLUMNS + tuple(f"f{j}" for j in range(feats.shape[1])))
    lines = [header]
    for i in range(feats.shape[0]):
        meta = f"{layout[i, 0]},{layout[i, 1]},{layout[i, 2]},{labels[i]}"
        vals = ",".join(f"{x:.17g}" for x in feats[i])
        lines.append(meta + "," + vals)
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def load_csv(path) -> Dataset:
    """Parse a dataset file, validating labels, values, and row ordering."""
    text = Path(path).read_text(encoding="utf-8")
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise SchemaError(f"{path}: empty file")
    header = lines[0].split(",")
    if tuple(header[:4]) != _META_COLUMNS:
        raise SchemaError(
            f"{path}: header must start with {','.join(_META_COLUMNS)}")
    feat_names = header[4:]
    if not feat_names:
        raise SchemaError(f"{path}: no feature columns in header")
    expected = [f"f{j}" for j in range(len(feat_names))]
    if feat_names != expected:
        raise SchemaError(f"{path}: feature columns must be f0..f{len(feat_names) - 1}")
    n_cols = len(header)
    rows = len(lines) - 1
    if rows == 0:
        raise SchemaError(f"{path}: no data rows")
    features = np.zeros((rows, len(feat_names)))
    labels = np.zeros(rows, dtype=np.int64)
    layout = np.zeros((rows, 3), dtype=np.int64)
    for r, line in enumerate(lines[1:], start=1):
        cells = line.split(",")
        if len(cells) != n_cols:
            raise ParseError(f"{path}: row {r} has {len(cells)} cells, expected {n_cols}")
        if line.translate(_LITERAL_CHARS):
            bad = next(i for i, cell in enumerate(cells) if cell.translate(_LITERAL_CHARS))
            raise ParseError(f"{path}: row {r}, column {header[bad]}: "
                             f"not a decimal literal {cells[bad]!r}")
        for c in range(3):
            try:
                layout[r - 1, c] = int(cells[c])
            except (ValueError, OverflowError) as exc:
                raise ParseError(f"{path}: row {r}, column {header[c]}: {exc}") from exc
        try:
            label = int(cells[3])
        except ValueError as exc:
            raise ParseError(f"{path}: row {r}, column label: {exc}") from exc
        if label not in (0, 1):
            raise InvalidLabel(f"{path}: row {r}: label must be 0 or 1, got {label}")
        labels[r - 1] = label
        for c, cell in enumerate(cells[4:]):
            try:
                val = float(cell)
            except ValueError as exc:
                raise ParseError(
                    f"{path}: row {r}, column f{c}: {exc}") from exc
            if not math.isfinite(val):
                raise ParseError(
                    f"{path}: row {r}, column f{c}: non-finite value {cell}")
            features[r - 1, c] = val
    keys = [tuple(row) for row in layout]
    if keys != sorted(keys):
        raise SchemaError(f"{path}: rows are not ordered by (session, run, image)")
    return Dataset(features=features, labels=labels, layout=layout)


def grid_shape(layout: np.ndarray) -> tuple[int, int, int]:
    """Recover (sessions, runs, images) from layout columns; validate the grid.

    The layout must be exactly the ascending Cartesian product of its unique
    session, run and image values: no key missing, none repeated.
    """
    layout = np.asarray(layout)
    axes = [np.unique(layout[:, c]) for c in range(3)]
    grid = _grid(*axes)
    if layout.shape != grid.shape or not np.array_equal(layout, grid):
        raise LayoutMismatch(
            f"{layout.shape[0]} trials do not fill a "
            f"{axes[0].size}x{axes[1].size}x{axes[2].size} grid in ascending order")
    return axes[0].size, axes[1].size, axes[2].size
