"""Deterministic synthetic data generators and dataset persistence.

Two experimental setups: a two-cluster Gaussian regression mixture where the
test set comes from the first cluster only, and a corrupted-label
classification task on Gaussian class blobs. Randomness comes from the
Philox counter-based generator keyed by the spec seed, so identical specs
always produce identical datasets.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Tuple

import numpy as np

from .errors import (
    AbsoluteContinuityError,
    ConfigError,
    DatasetFormatError,
    _check_field_types,
)
from .losses import CLASSIFICATION, REGRESSION, Dataset, ModelParams
from .simplex import SimplexWeights


def _rng(seed: int) -> np.random.Generator:
    """The Philox generator keyed by seed, which must lie in [0, 2**64)."""
    if not 0 <= seed < 2**64:
        raise ConfigError(f"seed must lie in [0, 2**64), got {seed}")
    return np.random.Generator(np.random.Philox(key=np.uint64(seed)))


@dataclass(frozen=True)
class MixtureSpec:
    """Two-cluster regression mixture; test data comes from cluster 1 only."""

    n: int = 500
    m: int = 100
    mu1: tuple = (-2.0, 0.0)
    mu2: tuple = (2.0, 0.0)
    theta1_hat: tuple = (1.0, -1.0)
    theta2_hat: tuple = (-1.0, 1.0)
    sigma: float = 0.1
    seed: int = 0
    p_cluster1: float = 0.5  # 1.0 forces every train sample into cluster 1

    def __post_init__(self):
        _check_field_types(self)
        if self.n < 1 or self.m < 1:
            raise ConfigError("n and m must be >= 1")
        if self.sigma < 0:
            raise ConfigError("sigma must be nonnegative")
        if not (0.0 <= self.p_cluster1 <= 1.0):
            raise ConfigError("p_cluster1 must lie in [0, 1]")
        if len(self.mu1) != len(self.mu2) or len(self.mu1) != len(self.theta1_hat):
            raise ConfigError("centroid/parameter dimensions must agree")


@dataclass(frozen=True)
class CorruptionSpec:
    """Gaussian class blobs with labels corrupted at probability p_c.

    Corrupted samples always receive a label different from the true one.
    """

    n: int = 800
    classes: int = 10
    p_c: float = 0.9
    d: int = 20
    separation: float = 3.0
    n_test: int = 500
    n_val: int = 500
    seed: int = 0

    def __post_init__(self):
        _check_field_types(self)
        if self.n < 1 or self.classes < 2 or self.d < 1:
            raise ConfigError("invalid corruption spec sizes")
        if not (0.0 <= self.p_c <= 1.0):
            raise ConfigError("p_c must lie in [0, 1]")


def gen_mixture(spec: MixtureSpec
                ) -> Tuple[Dataset, Dataset, ModelParams, np.ndarray]:
    """Draw the two-cluster regression mixture.

    Returns (train, test, theta1_hat, cluster_labels); the labels are the
    latent cluster indices (1 or 2) of the training samples.
    """
    rng = _rng(spec.seed)
    d = len(spec.mu1)
    mu = np.array([spec.mu1, spec.mu2], dtype=float)
    theta = np.array([spec.theta1_hat, spec.theta2_hat], dtype=float)
    z = np.where(rng.random(spec.n) < spec.p_cluster1, 1, 2)
    X = mu[z - 1] + rng.standard_normal((spec.n, d))
    y = np.einsum("ij,ij->i", X, theta[z - 1])
    y = y + spec.sigma * rng.standard_normal(spec.n)
    train = Dataset(X, y, REGRESSION)

    Xt = mu[0] + rng.standard_normal((spec.m, d))
    yt = Xt @ theta[0] + spec.sigma * rng.standard_normal(spec.m)
    test = Dataset(Xt, yt, REGRESSION)
    return train, test, ModelParams(theta[0]), z


def gen_corrupted(spec: CorruptionSpec
                  ) -> Tuple[Dataset, np.ndarray, Dataset, Dataset]:
    """Corrupted-label classification task.

    Returns (train, clean_mask, test, val); test and validation sets are
    uncorrupted and disjoint draws.
    """
    rng = _rng(spec.seed)
    centroids = rng.standard_normal((spec.classes, spec.d))
    centroids *= spec.separation / np.linalg.norm(centroids, axis=1, keepdims=True)

    def draw(count):
        labels = rng.integers(0, spec.classes, size=count)
        X = centroids[labels] + rng.standard_normal((count, spec.d))
        return X, labels

    X, true_labels = draw(spec.n)
    corrupt = rng.random(spec.n) < spec.p_c
    labels = true_labels.copy()
    # a corrupted label is drawn uniformly over the C-1 wrong classes
    shift = rng.integers(1, spec.classes, size=spec.n)
    labels[corrupt] = (true_labels[corrupt] + shift[corrupt]) % spec.classes
    train = Dataset(X, labels, CLASSIFICATION, n_classes=spec.classes)

    Xt, yt = draw(spec.n_test)
    test = Dataset(Xt, yt, CLASSIFICATION, n_classes=spec.classes)
    Xv, yv = draw(spec.n_val)
    val = Dataset(Xv, yv, CLASSIFICATION, n_classes=spec.classes)
    return train, ~corrupt, test, val


def _atom_key(row: np.ndarray) -> bytes:
    return np.ascontiguousarray(row, dtype=float).tobytes()


def importance_weights(train_atoms, test_atoms) -> SimplexWeights:
    """Density-ratio weights on shared atoms: w_i proportional to
    (test multiplicity) / (train multiplicity) of atom i."""
    train_atoms = np.atleast_2d(np.asarray(train_atoms, dtype=float))
    test_atoms = np.atleast_2d(np.asarray(test_atoms, dtype=float))
    train_counts: dict = {}
    for row in train_atoms:
        k = _atom_key(row)
        train_counts[k] = train_counts.get(k, 0) + 1
    test_counts: dict = {}
    for row in test_atoms:
        k = _atom_key(row)
        if k not in train_counts:
            raise AbsoluteContinuityError(
                "a test atom does not appear in the training set")
        test_counts[k] = test_counts.get(k, 0) + 1
    w = np.array([
        test_counts.get(_atom_key(row), 0) / train_counts[_atom_key(row)]
        for row in train_atoms
    ])
    return SimplexWeights.from_unnormalized(w)


def save_dataset(data: Dataset, path, seed: Optional[int] = None):
    """CSV with a header row plus a JSON sidecar (<path>.json)."""
    path = Path(path)
    header = [f"f{j}" for j in range(data.d)] + ["target"]
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(header)
        for i in range(data.n):
            row = [format(x, ".17g") for x in data.features[i]]
            if data.kind == CLASSIFICATION:
                row.append(str(int(data.targets[i])))
            else:
                row.append(format(data.targets[i], ".17g"))
            writer.writerow(row)
    sidecar = {
        "kind": data.kind,
        "n": data.n,
        "d": data.d,
        "C": data.n_classes,
        "seed": seed,
    }
    with open(path.with_suffix(path.suffix + ".json"), "w") as f:
        json.dump(sidecar, f, indent=2)


def load_dataset(path) -> Dataset:
    path = Path(path)
    sidecar_path = path.with_suffix(path.suffix + ".json")
    if not sidecar_path.exists():
        raise DatasetFormatError(f"missing sidecar {sidecar_path}")
    with open(sidecar_path) as f:
        meta = json.load(f)
    kind = meta.get("kind")
    if kind not in (REGRESSION, CLASSIFICATION):
        raise DatasetFormatError(f"sidecar has unknown kind {kind!r}")
    features, targets = [], []
    with open(path, newline="") as f:
        reader = csv.reader(f)
        try:
            header = next(reader)
        except StopIteration:
            raise DatasetFormatError("empty dataset file", line=1)
        d = len(header) - 1
        if d < 1 or header[-1] != "target":
            raise DatasetFormatError("malformed header row", line=1)
        for lineno, row in enumerate(reader, start=2):
            if len(row) != d + 1:
                raise DatasetFormatError("wrong number of columns", line=lineno)
            try:
                features.append([float(x) for x in row[:d]])
                targets.append(int(row[d]) if kind == CLASSIFICATION
                               else float(row[d]))
            except ValueError:
                raise DatasetFormatError("non-numeric entry", line=lineno)
    if not features:
        raise DatasetFormatError("dataset has no rows", line=2)
    return Dataset(np.array(features), np.array(targets), kind,
                   n_classes=meta.get("C"))
