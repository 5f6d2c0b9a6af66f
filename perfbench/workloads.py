"""The benchmark's workloads: which `bilevel-reweight experiment` presets
each one runs, with which full config, and how each call's outputs are
checked.

Every preset receives its whole config through `--set` (sizes, step sizes,
beta set and seed); the bare `--seed` flag is never used because the CLI
misroutes it for two presets (see NOTES.md). A run cycles through the
DATA_SEEDS data seeds, one per pass, starting at the one its workload seed
picks; for each, `references.json` holds the tables the seed commit
produced.

This module imports nothing from NumPy or the package, so the set-up probe
can time those imports itself.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

DATA_SEEDS = 16

# Tables may drift this far from the reference. The ROADMAP's planned
# changes move results by far less: an adaptive integrator moved the weights
# by ~4e-12 (RK45) to ~3e-9 (LSODA), trust-ncg moved the logistic inner
# solution by ~8e-7.
REL_TOL = 1e-5
ABS_TOL = 1e-6

RATIOS = [1e-2, 1e-1, 1.0, 1e1, 1e2, 1e3, 1e4, 1e5]
BETAS = [1e-1, 1e-2]

# toy-mixture at n=2000. Criterion 7's n=500 bounds (theta error <= 3x the
# clean oracle's, wrong-cluster mass <= 0.05) do not hold at this size: over
# the DATA_SEEDS data seeds the seed commit reaches 15.8x the oracle's error
# (the oracle's is ~1e-3 here) and 0.165x the uniform row's mass.
TOY_THETA_FACTOR = 25.0
TOY_MASS_FACTOR = 0.25

# Columns holding wall-clock times; they are neither compared nor hashed.
TIME_COLUMNS = ("wall_time_s",)

Rows = List[Dict[str, str]]


def data_seed(seed: int) -> int:
    return seed % DATA_SEEDS


@dataclass(frozen=True)
class Preset:
    name: str
    config: Callable[[int], dict]
    invariant: Callable[[dict, Rows], Optional[str]]

    def argv(self, cfg: dict, out: Path) -> List[str]:
        argv = ["experiment", self.name, "--out", str(out), "--jobs", "1"]
        for key, value in cfg.items():
            argv += ["--set", f"{key}={json.dumps(value)}"]
        return argv


@dataclass(frozen=True)
class Workload:
    name: str
    presets: Tuple[Preset, ...]
    warmup: dict  # config of the warm-up call of presets[0]
    probe: str  # host speed probe kernel, see hostspeed.py


# ----------------------------------------------------------------- configs

def _ratio_sweep(s: int) -> dict:
    return {"spec": {"n": 800, "classes": 10, "d": 20, "p_c": 0.9,
                     "n_test": 500, "n_val": 500, "seed": s},
            "mu": 1e-2, "ratios": RATIOS, "iterations": 100}


def _regime_check(s: int) -> dict:
    return {"spec": {"n": 60, "m": 30, "sigma": 0.1, "seed": s},
            "mu": 1e-4, "horizon": 0.05, "betas": BETAS, "checkpoints": 20,
            "dt": 1e-3, "dt_joint": 1e-2}


def _frozen_flow(s: int) -> dict:
    return {"n": 5, "p": 3, "seed": s,
            "flow": {"dt": 5e-2, "t_max": 100.0, "stationarity_tol": 1e-9}}


def _toy_mixture(s: int) -> dict:
    return {"spec": {"n": 2000, "m": 100, "sigma": 0.1, "seed": s},
            "mu": 1e-4,
            "exact": {"eta": 0.12, "iterations": 2000, "record_every": 50},
            "warm": {"eta": 0.05, "rho": 5e-5, "iterations": 200,
                     "record_every": 50}}


def _softmax_toy(s: int) -> dict:
    return {"spec": {"n": 2000, "m": 100, "sigma": 0.1, "seed": s},
            "mu": 0.0,
            "solver": {"eta": 100.0, "rho": 1e-3, "iterations": 2500,
                       "record_every": 100}}


# -------------------------------------------------------------- invariants

def _no_invariant(cfg: dict, rows: Rows) -> Optional[str]:
    return None


def _gap_falls(cfg: dict, rows: Rows) -> Optional[str]:
    by_beta = sorted(rows, key=lambda r: -float(r["beta"]))
    gaps = [float(r["trajectory_gap"]) for r in by_beta]
    if len(gaps) != len(cfg["betas"]):
        return f"expected {len(cfg['betas'])} beta rows, got {len(gaps)}"
    if not all(a > b for a, b in zip(gaps, gaps[1:])):
        return f"trajectory_gap does not fall as beta shrinks: {gaps}"
    return None


def _sparse_limit(cfg: dict, rows: Rows) -> Optional[str]:
    (row,) = rows
    if row["converged"] != "True":
        return "frozen flow did not converge"
    if int(row["support_size"]) > cfg["p"] or row["support_leq_p"] != "True":
        return f"support {row['support_size']} exceeds p = {cfg['p']}"
    if row["in_I_lp"] != "True":
        return "limit support is not in I_l^p"
    return None


def _exact_beats_uniform(cfg: dict, rows: Rows) -> Optional[str]:
    by_run = {r["run"]: r for r in rows}
    exact, oracle, uniform = by_run["exact"], by_run["optimal"], by_run["uniform"]
    err, oracle_err = float(exact["theta_err"]), float(oracle["theta_err"])
    if err > TOY_THETA_FACTOR * oracle_err:
        return (f"exact theta error {err:.3g} exceeds {TOY_THETA_FACTOR}x the "
                f"oracle's {oracle_err:.3g}")
    mass = float(exact["wrong_cluster_mass"])
    limit = TOY_MASS_FACTOR * float(uniform["wrong_cluster_mass"])
    if mass > limit:
        return f"exact wrong-cluster mass {mass:.3g} exceeds {limit:.3g}"
    return None


RATIO_SWEEP = Preset("ratio-sweep", _ratio_sweep, _no_invariant)
REGIME_CHECK = Preset("regime-check", _regime_check, _gap_falls)
FROZEN_FLOW = Preset("frozen-flow", _frozen_flow, _sparse_limit)
TOY_MIXTURE = Preset("toy-mixture", _toy_mixture, _exact_beats_uniform)
SOFTMAX_TOY = Preset("softmax-toy", _softmax_toy, _no_invariant)
PRESETS = (RATIO_SWEEP, REGIME_CHECK, FROZEN_FLOW, TOY_MIXTURE, SOFTMAX_TOY)

# The warm-up is one call of the workload's first preset at a tiny size, so
# lazy imports and first-call costs land in set-up, not in the first pass.
WORKLOADS = {
    "sweep": Workload("sweep", (RATIO_SWEEP,), {
        **_ratio_sweep(0), "ratios": [1.0], "iterations": 2,
        "spec": {**_ratio_sweep(0)["spec"], "n": 100}}, "matrix"),
    "flows": Workload("flows", (REGIME_CHECK, FROZEN_FLOW), {
        **_regime_check(0), "betas": [0.1], "horizon": 0.02,
        "spec": {"n": 10, "m": 5, "sigma": 0.1, "seed": 0}}, "interp"),
    "toy": Workload("toy", (TOY_MIXTURE, SOFTMAX_TOY), {
        **_toy_mixture(0), "spec": {"n": 50, "m": 10, "sigma": 0.1, "seed": 0},
        "exact": {"eta": 0.12, "iterations": 5, "record_every": 5},
        "warm": {"eta": 0.05, "rho": 5e-5, "iterations": 5, "record_every": 5}},
        "interp"),
}


# ------------------------------------------------------------------ checks

def read_table(path: Path) -> Rows:
    """table.csv without its wall-clock columns."""
    with open(path, newline="") as f:
        return [{k: v for k, v in row.items() if k not in TIME_COLUMNS}
                for row in csv.DictReader(f)]


def output_digest(out: Path, rows: Rows) -> str:
    """Hash of everything a preset call writes except wall-clock times:
    the table and every trace file, byte for byte."""
    h = hashlib.sha256(json.dumps(rows, sort_keys=True).encode())
    for trace in sorted(out.glob("trace*.jsonl")):
        h.update(trace.name.encode())
        h.update(trace.read_bytes())
    return h.hexdigest()


def _close(got: str, want: str) -> bool:
    if got == want:
        return True
    try:
        g, w = float(got), float(want)
    except ValueError:
        return False
    if math.isnan(g) or math.isnan(w):
        return math.isnan(g) and math.isnan(w)
    return abs(g - w) <= ABS_TOL + REL_TOL * abs(w)


def compare_table(rows: Rows, ref: Rows) -> Optional[str]:
    if len(rows) != len(ref):
        return f"table has {len(rows)} rows, reference {len(ref)}"
    for i, (row, want) in enumerate(zip(rows, ref)):
        if set(row) != set(want):
            return f"row {i} columns {sorted(row)} != {sorted(want)}"
        for key, value in want.items():
            if not _close(row[key], value):
                return f"row {i} {key} = {row[key]}, reference {value}"
    return None


def check_call(preset: Preset, cfg: dict, out: Path,
               ref: Optional[Rows]) -> Tuple[Optional[str], Rows]:
    """Check one finished call's outputs. Returns (failure or None, rows)."""
    try:
        with open(out / "resolved-config.json") as f:
            resolved = json.load(f)
        rows = read_table(out / "table.csv")
    except (OSError, ValueError) as exc:
        return f"unreadable output: {exc}", []
    intended = json.loads(json.dumps({"experiment": preset.name, **cfg}))
    if resolved != intended:
        return f"resolved config {resolved} != intended {intended}", []
    if ref is None:
        return "no reference table for this data seed", rows
    failure = compare_table(rows, ref) or preset.invariant(cfg, rows)
    return failure, rows


def load_references(path: Path) -> dict:
    with open(path) as f:
        return json.load(f)
