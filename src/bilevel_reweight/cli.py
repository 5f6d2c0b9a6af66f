"""Command-line surface: generate datasets, run solvers, and drive named
reproducible experiments, the flows among them.

Subcommands: generate, solve, experiment. Each resolves its JSON
config (--spec for generate, --config otherwise) in _resolve: --set
key=value overrides dotted paths, --seed sets the data seed, and the result
is checked and merged into the defaults in COMMANDS or EXPERIMENTS. A run
that is not rejected leaves it in its directory, so re-running reproduces it.
"""

from __future__ import annotations

import argparse
import contextlib
import copy
import csv
import dataclasses
import json
import logging
import os
import sys
import time
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
    omega_from_trace,
    sparsity_certificate,
    stability_check,
)
from .errors import ConfigError, DatasetFormatError, _check_number
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
    """cfg[a][b]... = value for key a.b...; ConfigError, as in _merged, if
    a path prefix holds something other than an object."""
    parts = key.split(".")
    node = cfg
    for i, p in enumerate(parts[:-1], 1):
        node = node.setdefault(p, {})
        if not isinstance(node, dict):
            raise ConfigError(f"{'.'.join(parts[:i])} must be a JSON object, "
                              f"got {node!r}")
    node[parts[-1]] = value


def _merged(defaults: dict, cfg: dict, prefix: str = "") -> dict:
    """defaults overridden by cfg; a sub-config that defaults gives as a dict
    must be a dict in cfg too, and is merged key by key, so cfg need only name
    what it changes."""
    out = dict(defaults)
    for key, value in cfg.items():
        if isinstance(out.get(key), dict):
            if not isinstance(value, dict):
                raise ConfigError(f"{prefix}{key} must be a JSON object, got "
                                  f"{value!r}")
            value = _merged(out[key], value, f"{prefix}{key}.")
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


def _write_json(path, obj):
    with open(path, "w") as f:
        json.dump(obj, f, indent=2, sort_keys=True)
        f.write("\n")


def _resolve(args, defaults: dict, seed_key: str, name=None) -> dict:
    """Every subcommand's config: the config file with --set applied and
    --seed put at seed_key, merged into defaults. ConfigError on an
    unreadable config file or an unknown top-level key."""
    try:
        cfg = {} if args.config is None else json.loads(
            Path(args.config).read_text())
    except OSError as exc:
        raise ConfigError(f"cannot read {args.config}: {exc.strerror}")
    except ValueError as exc:  # not JSON, or not UTF-8
        raise ConfigError(f"{args.config} is not JSON: {exc}")
    if not isinstance(cfg, dict):
        raise ConfigError(f"{args.config} does not hold a JSON object")
    for item in args.set or []:
        if "=" not in item:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        key, raw = item.split("=", 1)
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        _set_dotted(cfg, key, value)
    if args.seed is not None:
        _set_dotted(cfg, seed_key, args.seed)
    if name is not None and cfg.get("experiment") == name:
        del cfg["experiment"]  # a resolved-config.json
    unknown = sorted(set(cfg) - set(defaults))
    if unknown:
        raise ConfigError(f"unknown {args.command} config key(s) {unknown}; "
                          f"known keys: {sorted(defaults)}")
    cfg = _merged(copy.deepcopy(defaults), cfg)
    signs = {"seed": "nonnegative", "mu": "nonnegative", "phi": "any"}
    for key, default in defaults.items():
        if isinstance(default, (int, float, list)):
            _check_number(key, cfg[key], default, signs.get(key, "positive"))
    return cfg


@contextlib.contextmanager
def _run_dir(path, resolved: dict):
    """The run directory path, made if missing. A run that ends in a
    ConfigError or DatasetFormatError leaves path as it found it: every
    rejection comes before a run's first write, so what was made is empty
    and removed. Any other end writes resolved to resolved-config.json."""
    out = Path(path)
    made = [p for p in (out, *out.parents) if not p.exists()]
    out.mkdir(parents=True, exist_ok=True)
    try:
        yield out
    except (ConfigError, DatasetFormatError):
        for p in made:
            p.rmdir()
        raise
    except BaseException:  # a halt (exit 1) or a crash
        _write_json(out / "resolved-config.json", resolved)
        raise
    _write_json(out / "resolved-config.json", resolved)


def _dataset_from_config(cfg: dict):
    """Return (train, test, val_or_none, extras) from a dataset config."""
    unknown = sorted(set(cfg) - {"type", "spec", "path"})
    if unknown:
        raise ConfigError(f"unknown dataset key(s) {unknown}; known keys: "
                          f"type and spec, or path")
    if "path" in cfg:
        train = datagen.load_dataset(Path(cfg["path"]) / "train.csv")
        test = _load_split_like(train, Path(cfg["path"]) / "test.csv")
        val_path = Path(cfg["path"]) / "val.csv"
        val = _load_split_like(train, val_path) if val_path.exists() else None
        return train, test, val, {}
    kind = cfg["type"]
    if kind == "mixture":
        spec = _build(MixtureSpec, cfg["spec"])
        train, test, theta_hat, z = gen_mixture(spec)
        return train, test, None, {"theta_hat": theta_hat, "clusters": z,
                                   "spec": spec}
    if kind == "corruption":
        spec = _build(CorruptionSpec, cfg["spec"])
        train, clean_mask, test, val = gen_corrupted(spec)
        return train, test, val, {"clean_mask": clean_mask, "spec": spec}
    raise ConfigError(f"unknown dataset type {kind!r}")


def _load_split_like(train, path: Path):
    """load_dataset(path), refused with a DatasetFormatError naming path
    unless its kind, feature count and class count match train's."""
    data = datagen.load_dataset(path)
    for what, ours, theirs in [("kind", data.kind, train.kind),
                               ("feature count", data.d, train.d),
                               ("class count", data.n_classes,
                                train.n_classes)]:
        if ours != theirs:
            raise DatasetFormatError(f"{path} has {what} {ours!r}, but "
                                     f"train.csv has {theirs!r}")
    return data


def _model_from_config(cfg: dict, train):
    kind = cfg["model"] or ("ridge" if train.kind == "regression"
                            else "logistic")
    mu = cfg["mu"]
    if kind == "ridge":
        return RidgeLeastSquares(0.0 if mu is None else mu)
    if kind == "logistic":
        if train.kind != "classification":
            raise ConfigError(f"model logistic needs a classification "
                              f"dataset, got a {train.kind} one")
        return RegularizedMultinomialLogistic(1e-2 if mu is None else mu)
    raise ConfigError(f"unknown model {kind!r}")


# ---------------------------------------------------------------- generate

def _generate(cfg: dict, out: Path):
    train, test, val, extras = _dataset_from_config(cfg)
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
    log.info("wrote datasets to %s", out)


# ------------------------------------------------------------------- solve

def _run_solver(kind: str, model, train, test, scfg, theta_ref):
    """Run solver kind from the uniform weights and theta = 0. Returns the
    trace and its summary, solve's summary.json and toy-mixture's rows, whose
    theta_err is the final theta's distance to theta_ref (None without)."""
    n = train.n
    w0 = SimplexWeights.uniform(n)
    p = model.n_params(train)
    theta0 = ModelParams(np.zeros(p))
    start = time.monotonic()
    if kind == "exact":
        trace = exact_bilevel(model, train, test, w0, scfg)
    elif kind == "warm":
        trace = warm_started(model, train, test, theta0, w0, scfg)
    elif kind == "soba":
        trace = soba(model, train, test, theta0, w0, np.zeros(p), scfg)
    elif kind == "softmax":
        trace = softmax_reparam(model, train, test, theta0, np.zeros(n), scfg)
    else:
        raise ConfigError(f"unknown solver kind {kind!r}")
    wall = time.monotonic() - start
    r = trace.final
    return trace, {
        "final_entropy": r.entropy,
        "support_size": r.support_size,
        "outer_loss": r.outer_loss,
        "theta_err": None if theta_ref is None else float(
            np.linalg.norm(r.theta - theta_ref.theta)),
        "wall_time_s": wall,
    }


def _solver_config(kind: str, fields: dict) -> SolverConfig:
    """SolverConfig of solver kind from its config; ConfigError names rho
    under kind exact, which re-solves the inner problem and never reads it."""
    if kind == "exact" and "rho" in fields:
        raise ConfigError("rho is not read by solver kind exact; remove it")
    return _build(SolverConfig, fields)


def _solve(cfg: dict, out: Path):
    train, test, _, extras = _dataset_from_config(cfg["dataset"])
    model = _model_from_config(cfg, train)
    solver_cfg = dict(cfg["solver"])
    kind = solver_cfg.pop("kind")
    theta_hat = extras.get("theta_hat")
    trace, summary = _run_solver(kind, model, train, test,
                                 _solver_config(kind, solver_cfg), theta_hat)
    trace.to_jsonl(out / "trace.jsonl", theta_ref=theta_hat)
    _write_json(out / "summary.json", {**summary, "halted": trace.halted})


# command -> (run, default config, dotted key of the data seed), as in
# EXPERIMENTS. A null model or mu follows the data (ridge with mu 0 for
# regression, logistic with mu 1e-2 otherwise).
COMMANDS = {
    "generate": (_generate, {"type": "mixture", "spec": {}}, "spec.seed"),
    "solve": (_solve, {
        "dataset": {"type": "mixture", "spec": {}}, "model": None,
        "mu": None, "solver": {"kind": "exact"}}, "dataset.spec.seed"),
}


def cmd_run(args) -> int:
    """Run generate or solve into --out."""
    run, defaults, seed_key = COMMANDS[args.command]
    cfg = _resolve(args, defaults, seed_key)
    with _run_dir(args.out, cfg) as out:
        run(cfg, out)
    return 0


# -------------------------------------------------------------- experiment

def _write_table(path, rows):
    keys = list(dict.fromkeys(k for row in rows for k in row))
    with open(path, "w", newline="") as f:
        writer = csv.DictWriter(f, fieldnames=keys, restval="")
        writer.writeheader()
        writer.writerows(rows)


def _exp_toy_mixture(cfg: dict, out: Path) -> list:
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

    scfgs = {kind: _solver_config(kind, cfg[kind])
             for kind in ("exact", "warm")}
    for kind, scfg in scfgs.items():
        trace, summary = _run_solver(kind, model, train, test, scfg, theta_hat)
        trace.to_jsonl(out / f"trace-{kind}.jsonl", theta_ref=theta_hat)
        wrong = float(trace.final.w.values[z == 2].sum())
        rows.append({"run": kind, **summary, "wrong_cluster_mass": wrong})
    return rows


def _exp_ratio_sweep(cfg: dict, out: Path) -> list:
    spec = _build(CorruptionSpec, cfg["spec"])
    train, clean_mask, test, val = gen_corrupted(spec)
    model = RegularizedMultinomialLogistic(cfg["mu"])
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
        trace.to_jsonl(out / f"trace-ratio-{r:g}.jsonl", include_weights=False)
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
        }

    return sorted(map(run_one, cfg["ratios"]), key=lambda row: row["ratio"])


def _exp_softmax_toy(cfg: dict, out: Path) -> list:
    spec = _build(MixtureSpec, cfg["spec"])
    train, test, theta_hat, z = gen_mixture(spec)
    model = RidgeLeastSquares(cfg["mu"])
    scfg = _build(SolverConfig, cfg["solver"])
    trace = softmax_reparam(model, train, test, ModelParams(np.zeros(train.d)),
                            np.zeros(train.n), scfg)
    err = lambda theta: float(np.linalg.norm(theta - theta_hat.theta))
    rows = []
    for r in trace.records:
        # a cold-start re-solve at the record's weights
        r.extra = {"resolve_err": err(solve_inner(
            model, train, r.w, ModelParams(np.zeros_like(r.theta)),
            tol=1e-8).theta)}
        rows.append({"k": r.k, "entropy": r.entropy,
                     "outer_loss": r.outer_loss, "theta_err": err(r.theta),
                     **r.extra})
    trace.to_jsonl(out / "trace.jsonl", theta_ref=theta_hat)
    return rows


def _mirror_flow(field, n: int, fcfg: FlowConfig, out: Path):
    """Integrate field's mirror flow from the n uniform weights into
    out/trace.jsonl. Returns the trace and Omega read off it."""
    w0 = SimplexWeights.uniform(n)
    trace = integrate_mirror_flow(field, w0, fcfg)
    trace.to_jsonl(out / "trace.jsonl")
    return trace, omega_from_trace(trace, w0, fcfg)


def _write_report(out: Path, field, result, fcfg: FlowConfig, **extra):
    """out/stationary_report.json: stability_check's report on Omega's
    limit at tol max(10 stationarity_tol, 1e-6), one evaluation of the field
    and, only where the limit is stationary, one of its Jacobian, with
    Omega's converged and oscillating, and extra."""
    report = stability_check(result.w, field,
                             tol=max(10 * fcfg.stationarity_tol, 1e-6))
    _write_json(out / "stationary_report.json", {
        **report.to_json_dict(), "converged": result.converged,
        "oscillating": result.oscillating, **extra})


def _exp_frozen_flow(cfg: dict, out: Path) -> list:
    """The mirror flow of the ridge-like FrozenField drawn from n, p and
    seed. Only a limit is certified: in_I_lp, whether Omega's support is in
    I_l^p (sparsity_certificate at tol 1e-6), is None unless Omega
    converged."""
    fcfg = _build(FlowConfig, cfg["flow"])
    field = FrozenField.ridge_like(datagen._rng(cfg["seed"]), cfg["n"],
                                   cfg["p"], 0.1)
    _, result = _mirror_flow(field, cfg["n"], fcfg, out)
    member = None
    if result.converged:
        member, _ = sparsity_certificate(result.w, field.gamma, tol=1e-6,
                                         support_tol=1e-6)
    _write_report(out, field, result, fcfg, in_I_lp=member)
    size = int(support(result.w, 1e-6).size)
    return [{
        "seed": cfg["seed"], "converged": result.converged,
        "oscillating": result.oscillating, "support_size": size,
        "support_leq_p": size <= cfg["p"],
        "in_I_lp": member,
    }]


def _exp_constant_flow(cfg: dict, out: Path) -> list:
    """The mirror flow of ConstantField(phi); closed_form_error is its
    largest weight's distance at t_max to constant_field_solution."""
    fcfg = _build(FlowConfig, cfg["flow"])
    field = ConstantField(cfg["phi"])
    n = field.phi.size
    trace, result = _mirror_flow(field, n, fcfg, out)
    closed = constant_field_solution(SimplexWeights.uniform(n), field.phi,
                                     fcfg.t_max)
    err = float(np.max(np.abs(trace.final.w.values - closed.values)))
    # a constant field has no Gamma whose support could be certified
    _write_report(out, field, result, fcfg, closed_form_error=err,
                  in_I_lp=None)
    return [{"closed_form_error": err, "converged": result.converged,
             "oscillating": result.oscillating}]


# DOP853 tolerance of regime-check's joint legs. Their reader is the gap, the
# largest distance to the oracle flow over the record times, read to three
# digits (criterion 5 prints .2e); it was at least 5e-4 at every config
# tried, so it needs about 5e-7 absolute. At rtol 1e-6 the gaps agree with
# rtol 1e-12 to 2.8e-9 relative at the benchmark's config (data seeds 0-15)
# and with rtol 1e-10 to 5.5e-9 at the defaults, and the legs make half the
# forward passes of rtol 1e-10 or fewer. The oracle flow keeps FlowConfig's
# 1e-10: it is the reference the gap is measured against.
_JOINT_GAP_RTOL = 1e-6


def _require_whole(trace, flow: str):
    """Exit 1, naming flow and its halt reason, if the trace halted: a gap
    is measured between whole flows, so regime-check then writes no table."""
    if trace.halted is not None:
        raise SystemExit(f"regime-check: {flow} halted: {trace.halted}")


def _exp_regime_check(cfg: dict, out: Path) -> list:
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
    _require_whole(ref, "the oracle flow")
    ref_w = np.stack([r.w.values for r in ref.records])

    theta_star = closed_form_inner_quadratic(train, w0, model.mu)
    rows = []
    for beta in cfg["betas"]:
        # the joint flow runs for T / beta units of fast time; dt_joint is
        # its first trial step
        fcfg = FlowConfig(dt=cfg["dt_joint"], t_max=T / beta,
                          rtol=_JOINT_GAP_RTOL)
        tr = integrate_joint_flow(model, train, test, theta_star, w0, fcfg,
                                  record_times=t_grid / beta, beta=beta)
        _require_whole(tr, f"the joint leg at beta = {beta:g}")
        ws = np.stack([r.w.values for r in tr.records])
        gap = float(np.max(np.linalg.norm(ws - ref_w, axis=1)))
        rows.append({"beta": beta, "trajectory_gap": gap})
    return rows


# name -> (run, default config, dotted key of the data seed). A run's config
# is the default merged with the user's (see _merged). constant-flow has no
# data seed, so --seed there is an unknown key.
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
    "constant-flow": (_exp_constant_flow, {
        "phi": [0.0, 1.0, 2.0], "flow": {}}, "seed"),
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
    run, defaults, seed_key = EXPERIMENTS[args.name]
    cfg = _resolve(args, defaults, seed_key, args.name)
    with _run_dir(args.out, {"experiment": args.name, **cfg}) as out:
        start = time.monotonic()
        if args.profile:
            import cProfile  # on demand: importing it adds 0.13 MB to peak RSS
            profiler = cProfile.Profile()
            rows = profiler.runcall(run, cfg, out)
            profiler.dump_stats(out / "profile.pstats")
        else:
            rows = run(cfg, out)
        wall = time.monotonic() - start
        _write_table(out / "table.csv", rows)
        _write_json(out / "summary.json", {"experiment": args.name,
                                           "rows": rows, "wall_time_s": wall})
    log.info("experiment %s finished in %.1fs", args.name, wall)
    return 0


# -------------------------------------------------------------------- main

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bilevel-reweight",
        description="Data reweighting as bilevel optimization")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, help, func=cmd_run):
        p = sub.add_parser(name, help=help)
        p.add_argument("--spec" if name == "generate" else "--config",
                       dest="config", required=name == "generate",
                       help="JSON config path")
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--set", action="append", metavar="KEY=VALUE",
                       help="dotted-path config override")
        p.set_defaults(func=func)
        return p

    command("generate", "write synthetic datasets")
    command("solve", "run one solver")
    e = command("experiment", "run a named experiment preset", cmd_experiment)
    e.add_argument("name", choices=sorted(EXPERIMENTS))
    e.add_argument("--profile", action="store_true",
                   help="write cProfile stats to profile.pstats in --out")
    # Parse-only: ratios run in series, but the benchmark's Preset.argv
    # still passes --jobs 1; ROADMAP item 1 drops it there and this flag here.
    e.add_argument("--jobs", choices=["1"], help=argparse.SUPPRESS)
    return parser


def main(argv=None) -> int:
    _setup_logging()
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, DatasetFormatError) as exc:
        print(exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
