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
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Tuple

import numpy as np

from .errors import (
    AbsoluteContinuityError,
    ConfigError,
    DatasetFormatError,
    _check_fields,
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
        _check_fields(self, mu1="any", mu2="any", theta1_hat="any",
                      theta2_hat="any", sigma="nonnegative",
                      p_cluster1="nonnegative", seed="any")
        if self.p_cluster1 > 1:
            raise ConfigError("p_cluster1 must lie in [0, 1]")
        if len({len(self.mu1), len(self.mu2), len(self.theta1_hat),
                len(self.theta2_hat)}) > 1:
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
        _check_fields(self, p_c="nonnegative", separation="nonnegative",
                      seed="any")
        if self.classes < 2:
            raise ConfigError("classes must be at least 2")
        if self.p_c > 1:
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


def importance_weights(train_atoms, test_atoms) -> SimplexWeights:
    """Density-ratio weights on shared atoms, matched by value: w_i is
    proportional to (test multiplicity) / (train multiplicity) of atom i."""
    train = np.atleast_2d(np.asarray(train_atoms, dtype=float))
    test = np.atleast_2d(np.asarray(test_atoms, dtype=float))
    if train.shape[1:] != test.shape[1:]:
        raise ValueError("train and test atoms differ in length")
    atoms = np.concatenate([train, test])
    if not np.isfinite(atoms).all():
        raise ValueError("atoms must be finite")
    _, atom = np.unique(atoms, axis=0, return_inverse=True)
    n = len(train)
    train_counts = np.bincount(atom[:n], minlength=atom.max() + 1)
    test_counts = np.bincount(atom[n:], minlength=atom.max() + 1)
    if not train_counts[atom[n:]].all():
        raise AbsoluteContinuityError(
            "a test atom does not appear in the training set")
    return SimplexWeights.from_unnormalized(
        test_counts[atom[:n]] / train_counts[atom[:n]])


def save_dataset(data: Dataset, path, seed: Optional[int] = None):
    """CSV with a header row plus a JSON sidecar (<path>.json)."""
    path = Path(path)
    header = ",".join([f"f{j}" for j in range(data.d)] + ["target"])
    target_fmt = "%d" if data.kind == CLASSIFICATION else "%.17g"
    np.savetxt(path, np.column_stack([data.features, data.targets]),
               fmt=["%.17g"] * data.d + [target_fmt], delimiter=",",
               newline="\r\n", header=header, comments="")
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
    """What save_dataset wrote to path. DatasetFormatError names the file,
    and the line for a fault in one row, on anything Dataset would refuse
    and on a row or feature count other than the sidecar's n and d."""
    path = Path(path)
    sidecar_path = path.with_suffix(path.suffix + ".json")
    for p in (sidecar_path, path):
        if not p.is_file():
            raise DatasetFormatError(f"missing dataset file {p}")
    try:
        meta = json.loads(sidecar_path.read_text())
    except ValueError:  # not JSON, or not UTF-8
        raise DatasetFormatError(f"{sidecar_path} is not JSON")
    kind = meta.get("kind") if isinstance(meta, dict) else None
    if kind not in (REGRESSION, CLASSIFICATION):
        raise DatasetFormatError(f"{sidecar_path} has unknown kind {kind!r}")
    n_classes = meta.get("C") if kind == CLASSIFICATION else None
    if kind == CLASSIFICATION and (type(n_classes) is not int
                                   or n_classes < 2):
        raise DatasetFormatError(f"{sidecar_path}: classification needs an "
                                 f"integer C >= 2, got {n_classes!r}")
    for key in ("n", "d"):
        if type(meta.get(key)) is not int or meta[key] < 1:
            raise DatasetFormatError(f"{sidecar_path}: {key} must be a "
                                     f"positive integer, got {meta.get(key)!r}")
    try:
        rows = csv.reader(path.read_text(encoding="utf-8").splitlines())
    except ValueError:  # not UTF-8
        raise DatasetFormatError(f"{path} is not UTF-8")
    header = next(rows, None)
    if header is None:
        raise DatasetFormatError(f"{path}: empty dataset file", line=1)
    d = len(header) - 1
    if d < 1 or header[-1] != "target":
        raise DatasetFormatError(f"{path}: malformed header row", line=1)
    features, targets = [], []
    for lineno, row in enumerate(rows, start=2):
        if len(row) != d + 1:
            raise DatasetFormatError(f"{path}: wrong number of columns",
                                     line=lineno)
        try:
            x = [float(v) for v in row[:d]]
            y = int(row[d]) if n_classes else float(row[d])
        except ValueError:
            raise DatasetFormatError(f"{path}: non-numeric entry",
                                     line=lineno)
        if n_classes and not 0 <= y < n_classes:
            raise DatasetFormatError(f"{path}: class label {y} outside "
                                     f"0..{n_classes - 1}", line=lineno)
        if not all(map(math.isfinite, [*x, y])):
            raise DatasetFormatError(f"{path}: non-finite entry", line=lineno)
        features.append(x)
        targets.append(y)
    if not features:
        raise DatasetFormatError(f"{path}: dataset has no rows", line=2)
    for key, count in (("n", len(features)), ("d", d)):
        if count != meta[key]:
            raise DatasetFormatError(f"{path} has {key} = {count}, but "
                                     f"{sidecar_path} has {key} = {meta[key]}")
    return Dataset(np.array(features), np.array(targets), kind,
                   n_classes=n_classes)
