"""Dataset ingestion: IDX-format image files and a synthetic mixture.

The IDX reader covers the standard big-endian binary layout used by the
classic handwritten-digit corpus (magic 0x00000803 for images, 0x00000801
for labels); pixels are scaled to [0, 1].  The synthetic generator emits an
isotropic Gaussian mixture with class-separated means for desk-scale runs
that need no external files.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

IMAGES_MAGIC = 0x00000803
LABELS_MAGIC = 0x00000801


@dataclass(frozen=True)
class LabeledDataset:
    """Feature matrix with integer class labels.

    The arrays are checked once, here, and must not be changed in place
    afterwards: the label arrays below are formed on first use and kept.
    """

    features: np.ndarray
    labels: np.ndarray
    n_classes: int

    def __post_init__(self):
        features = np.asarray(self.features, dtype=float)
        labels = np.asarray(self.labels, dtype=int)
        if features.ndim != 2:
            raise ValueError("features must be a 2-d matrix")
        if labels.shape != (features.shape[0],):
            raise ValueError("labels must align with feature rows")
        if self.n_classes < 2:
            raise ValueError(f"need at least 2 classes, got {self.n_classes}")
        if labels.size and (labels.min() < 0 or labels.max() >= self.n_classes):
            raise ValueError("labels must lie in [0, n_classes)")
        object.__setattr__(self, "features", features)
        object.__setattr__(self, "labels", labels)

    def __len__(self) -> int:
        return self.features.shape[0]

    @property
    def n_features(self) -> int:
        return self.features.shape[1]

    @cached_property
    def label_index(self) -> np.ndarray:
        """Flat index of each sample's label entry in a C-contiguous
        class-major (n_classes, n) array: ``labels * n + arange(n)``."""
        n = len(self)
        return self.labels * n + np.arange(n)

    @cached_property
    def below_label(self) -> np.ndarray:
        """The (n_classes, n) mask of the classes below each sample's label."""
        return np.arange(self.n_classes)[:, None] < self.labels

    def subset(self, indices) -> "LabeledDataset":
        indices = np.asarray(indices, dtype=int)
        return LabeledDataset(
            features=self.features[indices],
            labels=self.labels[indices],
            n_classes=self.n_classes,
        )


def _read_idx(path: Path, expect_magic: int, n_dims: int):
    raw = path.read_bytes()
    header_len = 4 * (1 + n_dims)
    if len(raw) < header_len:
        raise ValueError(f"{path}: truncated IDX header at offset {len(raw)} (need {header_len} bytes)")
    magic = struct.unpack(">i", raw[:4])[0]
    if magic != expect_magic:
        raise ValueError(
            f"{path}: bad IDX magic 0x{magic:08x} at offset 0 (expected 0x{expect_magic:08x})"
        )
    dims = struct.unpack(f">{n_dims}i", raw[4:header_len])
    expected = header_len + math.prod(dims)
    if len(raw) != expected:
        raise ValueError(
            f"{path}: payload ends at offset {len(raw)}, header promises {expected} bytes "
            f"for shape {dims}"
        )
    data = np.frombuffer(raw, dtype=np.uint8, offset=header_len)
    return data.reshape(dims)


def _resolve_idx_pair(path) -> tuple[Path, Path]:
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"{path}: no such file or directory")
    if path.is_dir():
        # Prefer the training images when both train and test files are
        # present; the labels file is then derived from the images file.
        images = sorted(
            (p for p in path.iterdir() if "images-idx3" in p.name and not p.name.endswith(".gz")),
            key=lambda p: (not p.name.startswith("train"), p.name),
        )
        if not images:
            raise FileNotFoundError(f"{path}: no IDX images file found")
        path = images[0]
    label_name = path.name.replace("images", "labels").replace("idx3", "idx1")
    label_path = path.with_name(label_name)
    if not label_path.exists():
        raise FileNotFoundError(f"{path}: companion label file {label_name} not found")
    return path, label_path


def load_mnist_idx(path) -> LabeledDataset:
    """Load an IDX image/label pair as flat [0, 1] features.

    ``path`` may be a directory holding the standard file names (its
    training images file is preferred), or the images file itself.  Either
    way the labels file is named after the images file, ``images`` →
    ``labels`` and ``idx3`` → ``idx1``, and must sit next to it.
    """
    images_file, labels_file = _resolve_idx_pair(path)
    images = _read_idx(images_file, IMAGES_MAGIC, 3)
    labels = _read_idx(labels_file, LABELS_MAGIC, 1)
    if images.shape[0] != labels.shape[0]:
        raise ValueError(
            f"{images_file}: {images.shape[0]} images but {labels.shape[0]} labels"
        )
    features = images.reshape(images.shape[0], -1).astype(float) / 255.0
    return LabeledDataset(
        features=features,
        labels=labels.astype(int),
        n_classes=10,
    )


def synth_gaussian_mixture(
    classes: int,
    dim: int,
    n: int,
    seed: int,
    separation: float = 6.0,
) -> LabeledDataset:
    """Isotropic unit-variance Gaussian mixture with separated class means.

    Class means sit ``separation`` apart (pairwise, exactly, when
    dim >= classes; approximately otherwise).  Labels are balanced when
    ``classes`` divides ``n``.  Deterministic per seed.
    """
    if classes < 2:
        raise ValueError(f"need at least 2 classes, got {classes}")
    if dim < 1 or n < 1:
        raise ValueError("dim and n must be positive")
    rng = np.random.default_rng(seed)
    scale = separation / math.sqrt(2.0)
    if dim >= classes:
        means = np.zeros((classes, dim))
        means[np.arange(classes), np.arange(classes)] = scale
    else:
        directions = rng.standard_normal((classes, dim))
        directions /= np.linalg.norm(directions, axis=1, keepdims=True)
        means = scale * directions
    labels = rng.permutation(np.arange(n) % classes)
    features = means[labels] + rng.standard_normal((n, dim))
    return LabeledDataset(features=features, labels=labels, n_classes=classes)
