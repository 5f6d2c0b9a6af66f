"""Command-line surface: generate datasets, run solvers and flows, and drive
named reproducible experiments.

Subcommands: generate, solve, flow, experiment. Configs are JSON documents;
--set key=value overrides dotted paths. Every run directory receives the
fully resolved config so re-running reproduces the outputs.
"""

from __future__ import annotations

import argparse
import copy
import csv
import dataclasses
import json
import logging
import os
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from . import datagen
from .datagen import CorruptionSpec, MixtureSpec, gen_corrupted, gen_mixture
from .dynamics import (
    ConstantField,
    ExactHypergradField,
    FlowConfig,
    constant_field_solution,
    integrate_joint_flow,
    integrate_mirror_flow,
    is_stationary,
    omega_from_trace,
    sparsity_certificate,
    stability_check,
)
from .errors import ConfigError
from .hypergrad import FrozenField, closed_form_inner_quadratic
from .losses import (
    ModelParams,
    RegularizedMultinomialLogistic,
    RidgeLeastSquares,
    accuracy,
    outer_loss,
)
from .simplex import SimplexWeights, entropy, support
from .solvers import (
    SolverConfig,
    exact_bilevel,
    soba,
    softmax_reparam,
    solve_inner,
    warm_started,
)

log = logging.getLogger("bilevel_reweight")

RATIO_GRID = [1e-2, 1e-1, 1.0, 1e1, 1e2, 1e3, 1e4, 1e5]
ETA_MAX = 1.0
RHO_MAX = 1e-2


def _setup_logging():
    level = os.environ.get("BILEVEL_REWEIGHT_LOG", "info").lower()
    levels = {"error": logging.ERROR, "info": logging.INFO,
              "debug": logging.DEBUG}
    logging.basicConfig(level=levels.get(level, logging.INFO),
                        format="%(levelname)s %(name)s: %(message)s")


def _set_dotted(cfg: dict, key: str, value):
    parts = key.split(".")
    node = cfg
    for p in parts[:-1]:
        node = node.setdefault(p, {})
    node[parts[-1]] = value


def _apply_overrides(cfg: dict, overrides):
    for item in overrides or []:
        if "=" not in item:
            raise SystemExit(f"--set expects key=value, got {item!r}")
        key, raw = item.split("=", 1)
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        _set_dotted(cfg, key, value)
    return cfg


def _merged(defaults: dict, cfg: dict) -> dict:
    """defaults overridden by cfg; a sub-config that both give as a dict is
    merged key by key, so cfg need only name what it changes."""
    out = dict(defaults)
    for key, value in cfg.items():
        if isinstance(value, dict) and isinstance(out.get(key), dict):
            value = _merged(out[key], value)
        out[key] = value
    return out


def _build(cls, fields):
    """cls(**fields); ConfigError names any key cls does not know."""
    known = sorted(f.name for f in dataclasses.fields(cls))
    unknown = sorted(set(fields) - set(known))
    if unknown:
        raise ConfigError(f"unknown {cls.__name__} key(s) {unknown}; known "
                          f"keys: {known}")
    return cls(**fields)


def _load_config(path):
    if path is None:
        return {}
    with open(path) as f:
        return json.load(f)


def _write_json(path, obj):
    with open(path, "w") as f:
        json.dump(obj, f, indent=2, sort_keys=True)
        f.write("\n")


def _outdir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _dataset_from_config(cfg: dict):
    """Return (train, test, val_or_none, extras) from a dataset config."""
    if "path" in cfg:
        train = datagen.load_dataset(Path(cfg["path"]) / "train.csv")
        test = datagen.load_dataset(Path(cfg["path"]) / "test.csv")
        val_path = Path(cfg["path"]) / "val.csv"
        val = datagen.load_dataset(val_path) if val_path.exists() else None
        return train, test, val, {}
    kind = cfg.get("type", "mixture")
    if kind == "mixture":
        spec = _build(MixtureSpec, cfg.get("spec", {}))
        train, test, theta_hat, z = gen_mixture(spec)
        return train, test, None, {"theta_hat": theta_hat, "clusters": z,
                                   "spec": spec}
    if kind == "corruption":
        spec = _build(CorruptionSpec, cfg.get("spec", {}))
        train, clean_mask, test, val = gen_corrupted(spec)
        return train, test, val, {"clean_mask": clean_mask, "spec": spec}
    raise ConfigError(f"unknown dataset type {kind!r}")


def _model_from_config(cfg: dict, train):
    kind = cfg.get("model", "ridge" if train.kind == "regression" else "logistic")
    mu = cfg.get("mu")
    if kind == "ridge":
        return RidgeLeastSquares(0.0 if mu is None else mu)
    if kind == "logistic":
        return RegularizedMultinomialLogistic(1e-2 if mu is None else mu)
    raise ConfigError(f"unknown model {kind!r}")


def _summarize(trace, wall: float) -> dict:
    r = trace.final
    return {
        "final_entropy": r.entropy,
        "support_size": r.support_size,
        "outer_loss": r.outer_loss,
        "theta_err": r.theta_err,
        "wall_time_s": wall,
        "halted": trace.halted,
    }


# ---------------------------------------------------------------- generate

def cmd_generate(args) -> int:
    out = _outdir(args)
    with open(args.spec) as f:
        spec_cfg = json.load(f)
    _apply_overrides(spec_cfg, args.set)
    fields = dict(spec_cfg.get("spec", {}))
    if args.seed is not None:
        fields["seed"] = args.seed
    resolved = {"type": spec_cfg.get("type", "mixture"), "spec": fields}
    train, test, val, extras = _dataset_from_config(resolved)
    seed = extras["spec"].seed
    for name, data in (("train", train), ("test", test), ("val", val)):
        if data is not None:
            datagen.save_dataset(data, out / f"{name}.csv", seed=seed)
    if "clean_mask" in extras:
        meta = {"clean_mask": extras["clean_mask"].tolist()}
    else:
        meta = {"theta_hat": extras["theta_hat"].theta.tolist(),
                "clusters": extras["clusters"].tolist()}
    _write_json(out / "meta.json", meta)
    _write_json(out / "resolved-config.json", resolved)
    log.info("wrote datasets to %s", out)
    return 0


# ------------------------------------------------------------------- solve

def _run_solver(cfg: dict, train, test, extras):
    model = _model_from_config(cfg, train)
    solver_cfg = dict(cfg.get("solver", {}))
    kind = solver_cfg.pop("kind", "exact")
    scfg = _build(SolverConfig, solver_cfg)
    n = train.n
    w0 = SimplexWeights.uniform(n)
    theta_ref = extras.get("theta_hat")
    p = model.n_params(train)
    theta0 = ModelParams(np.zeros(p))
    start = time.monotonic()
    if kind == "exact":
        trace = exact_bilevel(model, train, test, w0, scfg, theta_ref=theta_ref)
    elif kind == "warm":
        trace = warm_started(model, train, test, theta0, w0, scfg,
                             theta_ref=theta_ref)
    elif kind == "soba":
        trace = soba(model, train, test, theta0, w0, np.zeros(p), scfg,
                     theta_ref=theta_ref)
    elif kind == "softmax":
        trace = softmax_reparam(model, train, test, theta0, np.zeros(n), scfg,
                                theta_ref=theta_ref)
    else:
        raise ConfigError(f"unknown solver kind {kind!r}")
    wall = time.monotonic() - start
    return trace, _summarize(trace, wall)


def cmd_solve(args) -> int:
    out = _outdir(args)
    cfg = _apply_overrides(_load_config(args.config), args.set)
    if args.seed is not None:
        _set_dotted(cfg, "dataset.spec.seed", args.seed)
    train, test, val, extras = _dataset_from_config(cfg.get("dataset", {}))
    trace, summary = _run_solver(cfg, train, test, extras)
    trace.to_jsonl(out / "trace.jsonl")
    _write_json(out / "summary.json", summary)
    _write_json(out / "resolved-config.json", cfg)
    return 0


# -------------------------------------------------------------------- flow

def _fig3_field(n: int, p: int, seed: int) -> FrozenField:
    rng = np.random.Generator(np.random.Philox(key=np.uint64(seed)))
    return FrozenField.ridge_like(rng, n, p, 0.1)


def cmd_flow(args) -> int:
    out = _outdir(args)
    cfg = _apply_overrides(_load_config(args.config), args.set)
    if args.seed is not None:
        cfg["seed"] = args.seed
    preset = cfg.get("preset", "fig3")
    fcfg = _build(FlowConfig, cfg.get("flow", {}))
    seed = cfg.get("seed", 0)
    if preset == "fig3":
        field = _fig3_field(cfg.get("n", 5), cfg.get("p", 3), seed)
        gamma = field.gamma
    elif preset == "constant":
        rng = np.random.Generator(np.random.Philox(key=np.uint64(seed)))
        phi = np.asarray(cfg.get("phi", rng.standard_normal(cfg.get("n", 5))))
        field = ConstantField(phi)
        gamma = None
    else:
        raise ConfigError(f"unknown flow preset {preset!r}")
    n = field.phi.size if isinstance(field, ConstantField) else field.n
    w0 = SimplexWeights.uniform(n)
    trace = integrate_mirror_flow(field, w0, fcfg)
    trace.to_jsonl(out / "trace.jsonl")
    result = omega_from_trace(trace, w0, fcfg)
    report = is_stationary(result.w, field,
                           tol=max(10 * fcfg.stationarity_tol, 1e-6))
    if report.is_stationary:
        report = stability_check(result.w, field,
                                 tol=max(10 * fcfg.stationarity_tol, 1e-6))
    rep_dict = report.to_json_dict()
    rep_dict["converged"] = result.converged
    rep_dict["oscillating"] = result.oscillating
    if gamma is not None:
        member, _ = sparsity_certificate(result.w, gamma, tol=1e-6,
                                         support_tol=1e-6)
        rep_dict["in_I_lp"] = member
    if isinstance(field, ConstantField):
        closed = constant_field_solution(w0, field.phi, fcfg.t_max)
        err = float(np.max(np.abs(trace.final.w.values - closed.values)))
        rep_dict["closed_form_error"] = err
        print(f"closed-form comparison error: {err:.3e}")
    _write_json(out / "stationary_report.json", rep_dict)
    _write_json(out / "resolved-config.json", cfg)
    if result.oscillating:
        log.info("flow did not converge (oscillation detected)")
    return 0


# -------------------------------------------------------------- experiment

def _write_table(path, rows):
    if not rows:
        return
    keys = list(dict.fromkeys(k for row in rows for k in row))
    with open(path, "w", newline="") as f:
        writer = csv.DictWriter(f, fieldnames=keys, restval="")
        writer.writeheader()
        writer.writerows(rows)


def _exp_toy_mixture(cfg: dict, out: Path, jobs: int) -> list:
    spec = _build(MixtureSpec, cfg["spec"])
    train, test, theta_hat, z = gen_mixture(spec)
    model = RidgeLeastSquares(cfg["mu"])
    n = train.n
    w_uniform = SimplexWeights.uniform(n)
    w_optimal = SimplexWeights.from_unnormalized((z == 1).astype(float))
    rows = []

    def static_row(name, w):
        theta = closed_form_inner_quadratic(train, w, model.mu)
        wrong = float(w.values[z == 2].sum())
        return {
            "run": name,
            "final_entropy": entropy(w),
            "support_size": int(support(w).size),
            "outer_loss": outer_loss(model, test, theta),
            "theta_err": float(np.linalg.norm(theta.theta - theta_hat.theta)),
            "wrong_cluster_mass": wrong,
        }

    rows.append(static_row("uniform", w_uniform))
    rows.append(static_row("optimal", w_optimal))

    exact_cfg = _build(SolverConfig, cfg["exact"])
    warm_cfg = _build(SolverConfig, cfg["warm"])
    t0 = time.monotonic()
    tr_exact = exact_bilevel(model, train, test, w_uniform, exact_cfg,
                             theta_ref=theta_hat)
    tr_exact.to_jsonl(out / "trace-exact.jsonl")
    r = tr_exact.final
    rows.append({"run": "exact", "final_entropy": r.entropy,
                 "support_size": r.support_size, "outer_loss": r.outer_loss,
                 "theta_err": r.theta_err,
                 "wrong_cluster_mass": float(r.w.values[z == 2].sum()),
                 "wall_time_s": time.monotonic() - t0})
    t0 = time.monotonic()
    theta0 = ModelParams(np.zeros(train.d))
    tr_warm = warm_started(model, train, test, theta0, w_uniform, warm_cfg,
                           theta_ref=theta_hat)
    tr_warm.to_jsonl(out / "trace-warm.jsonl")
    r = tr_warm.final
    rows.append({"run": "warm", "final_entropy": r.entropy,
                 "support_size": r.support_size, "outer_loss": r.outer_loss,
                 "theta_err": r.theta_err,
                 "wrong_cluster_mass": float(r.w.values[z == 2].sum()),
                 "wall_time_s": time.monotonic() - t0})
    return rows


def _exp_ratio_sweep(cfg: dict, out: Path, jobs: int) -> list:
    spec = _build(CorruptionSpec, cfg["spec"])
    train, clean_mask, test, val = gen_corrupted(spec)
    model = RegularizedMultinomialLogistic(cfg["mu"])
    ratios = cfg["ratios"]
    iterations = cfg["iterations"]
    p = model.n_params(train)
    n = train.n

    # clean-oracle baseline: fit on clean samples only
    w_clean = SimplexWeights.from_unnormalized(clean_mask.astype(float))
    theta_clean = solve_inner(model, train, w_clean, ModelParams(np.zeros(p)),
                              tol=1e-8)
    oracle_acc = accuracy(model, val, theta_clean)

    def run_one(r):
        eta = min(r * RHO_MAX, ETA_MAX)
        rho = eta / r
        scfg = SolverConfig(eta=eta, rho=rho, iterations=iterations,
                            record_every=max(1, iterations // 50))
        t0 = time.monotonic()
        trace = soba(model, train, val, ModelParams(np.zeros(p)),
                     SimplexWeights.uniform(n), np.zeros(p), scfg)
        wall = time.monotonic() - t0
        rec = trace.final
        theta = ModelParams(rec.theta)
        return {
            "ratio": r, "eta": eta, "rho": rho,
            "val_accuracy": accuracy(model, val, theta),
            "test_accuracy": accuracy(model, test, theta),
            "final_entropy": rec.entropy,
            "support_size": rec.support_size,
            "oracle_accuracy": oracle_acc,
            "wall_time_s": wall,
        }, trace

    rows = []
    if jobs > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(run_one, ratios))
    else:
        results = [run_one(r) for r in ratios]
    for (row, trace), r in zip(results, ratios):
        trace.to_jsonl(out / f"trace-ratio-{r:g}.jsonl", include_weights=False)
        rows.append(row)
    rows.sort(key=lambda row: row["ratio"])
    return rows


def _exp_softmax_toy(cfg: dict, out: Path, jobs: int) -> list:
    spec = _build(MixtureSpec, cfg["spec"])
    train, test, theta_hat, z = gen_mixture(spec)
    model = RidgeLeastSquares(cfg["mu"])
    scfg = _build(SolverConfig, cfg["solver"])
    trace = softmax_reparam(model, train, test, ModelParams(np.zeros(train.d)),
                            np.zeros(train.n), scfg, theta_ref=theta_hat,
                            record_resolve_err=True)
    trace.to_jsonl(out / "trace.jsonl")
    rows = []
    for r in trace.records:
        rows.append({"k": r.k, "entropy": r.entropy,
                     "outer_loss": r.outer_loss, "theta_err": r.theta_err,
                     "resolve_err": (r.extra or {}).get("resolve_err")})
    return rows


def _exp_frozen_flow(cfg: dict, out: Path, jobs: int) -> list:
    n, p, seed = cfg["n"], cfg["p"], cfg["seed"]
    fcfg = _build(FlowConfig, cfg["flow"])
    field = _fig3_field(n, p, seed)
    w0 = SimplexWeights.uniform(n)
    trace = integrate_mirror_flow(field, w0, fcfg)
    trace.to_jsonl(out / "trace.jsonl")
    result = omega_from_trace(trace, w0, fcfg)
    member = None
    if result.converged:
        member, _ = sparsity_certificate(result.w, field.gamma, tol=1e-6,
                                         support_tol=1e-6)
    return [{
        "seed": seed, "converged": result.converged,
        "oscillating": result.oscillating,
        "support_size": int(support(result.w, 1e-6).size),
        "support_leq_p": int(support(result.w, 1e-6).size) <= p,
        "in_I_lp": member,
    }]


def _exp_regime_check(cfg: dict, out: Path, jobs: int) -> list:
    spec = _build(MixtureSpec, cfg["spec"])
    train, test, theta_hat, z = gen_mixture(spec)
    model = RidgeLeastSquares(cfg["mu"])
    T = cfg["horizon"]
    n = train.n
    w0 = SimplexWeights.uniform(n)
    t_grid = np.linspace(0.0, T, cfg["checkpoints"] + 1)

    oracle_field = ExactHypergradField(model, train, test)
    ref = integrate_mirror_flow(oracle_field, w0,
                                FlowConfig(dt=cfg["dt"], t_max=T),
                                record_times=t_grid)
    ref_w = np.stack([r.w.values for r in ref.records])

    theta_star = closed_form_inner_quadratic(train, w0, model.mu)
    rows = []
    for beta in cfg["betas"]:
        # the joint flow runs for T / beta units of fast time; dt_joint is
        # its first trial step
        fcfg = FlowConfig(alpha=1.0, beta=beta, dt=cfg["dt_joint"],
                          t_max=T / beta)
        tr = integrate_joint_flow(model, train, test, theta_star, w0, fcfg,
                                  record_times=t_grid / beta)
        ws = np.stack([r.w.values for r in tr.records])
        gap = float(np.max(np.linalg.norm(ws - ref_w, axis=1)))
        rows.append({"beta": beta, "trajectory_gap": gap})
    return rows


# name -> (run, default config, dotted key of the data seed). A run's config
# is the default merged with the user's (see _merged).
EXPERIMENTS = {
    "toy-mixture": (_exp_toy_mixture, {
        "spec": {}, "mu": 1e-4,
        "exact": {"eta": 0.12, "iterations": 2000, "record_every": 50},
        "warm": {"eta": 0.05, "rho": 5e-5, "iterations": 1000,
                 "record_every": 50}}, "spec.seed"),
    "frozen-flow": (_exp_frozen_flow, {
        "n": 5, "p": 3, "seed": 0,
        "flow": {"dt": 1e-2, "t_max": 500.0, "stationarity_tol": 1e-9}},
        "seed"),
    "ratio-sweep": (_exp_ratio_sweep, {
        "spec": {}, "mu": 1e-2, "ratios": RATIO_GRID, "iterations": 4000},
        "spec.seed"),
    "softmax-toy": (_exp_softmax_toy, {
        "spec": {}, "mu": 0.0,
        "solver": {"eta": 100.0, "rho": 1e-3, "iterations": 5000,
                   "record_every": 100}}, "spec.seed"),
    "regime-check": (_exp_regime_check, {
        "spec": {"n": 60, "m": 30, "seed": 0}, "mu": 1e-4, "horizon": 1.0,
        "betas": [1e-1, 1e-2, 1e-3], "checkpoints": 20, "dt": 1e-3,
        "dt_joint": 1e-2}, "spec.seed"),
}


def cmd_experiment(args) -> int:
    if args.name not in EXPERIMENTS:
        print(f"unknown experiment {args.name!r}; choose from "
              f"{sorted(EXPERIMENTS)}", file=sys.stderr)
        return 2
    run, defaults, seed_key = EXPERIMENTS[args.name]
    cfg = _apply_overrides(_load_config(args.config), args.set)
    if args.seed is not None:
        _set_dotted(cfg, seed_key, args.seed)
    if cfg.get("experiment") == args.name:  # a resolved-config.json
        del cfg["experiment"]
    unknown = sorted(set(cfg) - set(defaults))
    if unknown:
        raise ConfigError(f"unknown config key(s) {unknown} for experiment "
                          f"{args.name!r}; known keys: {sorted(defaults)}")
    cfg = _merged(copy.deepcopy(defaults), cfg)
    out = _outdir(args)
    start = time.monotonic()
    if args.profile:
        import cProfile  # on demand: importing it adds 0.13 MB to peak RSS
        profiler = cProfile.Profile()
        rows = profiler.runcall(run, cfg, out, args.jobs)
        profiler.dump_stats(out / "profile.pstats")
    else:
        rows = run(cfg, out, args.jobs)
    wall = time.monotonic() - start
    _write_table(out / "table.csv", rows)
    _write_json(out / "summary.json", {"experiment": args.name,
                                       "rows": rows, "wall_time_s": wall})
    _write_json(out / "resolved-config.json",
                {"experiment": args.name, **cfg})
    log.info("experiment %s finished in %.1fs", args.name, wall)
    return 0


# -------------------------------------------------------------------- main

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bilevel-reweight",
        description="Data reweighting as bilevel optimization")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", default=None, help="JSON config path")
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--set", action="append", metavar="KEY=VALUE",
                       help="dotted-path config override")

    g = sub.add_parser("generate", help="write synthetic datasets")
    g.add_argument("--spec", required=True, help="dataset spec JSON")
    common(g)
    g.set_defaults(func=cmd_generate)

    s = sub.add_parser("solve", help="run one solver")
    common(s)
    s.set_defaults(func=cmd_solve)

    f = sub.add_parser("flow", help="integrate a mirror flow and certify it")
    common(f)
    f.set_defaults(func=cmd_flow)

    e = sub.add_parser("experiment", help="run a named experiment preset")
    e.add_argument("name", help="|".join(sorted(EXPERIMENTS)))
    e.add_argument("--profile", action="store_true",
                   help="write cProfile stats to profile.pstats in --out")
    e.add_argument("--jobs", type=int, default=1,
                   help="ratio-sweep: ratios run at a time")
    common(e)
    e.set_defaults(func=cmd_experiment)
    return parser


def main(argv=None) -> int:
    _setup_logging()
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:  # a config value or kind that is rejected
        print(exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
