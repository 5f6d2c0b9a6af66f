#!/usr/bin/env python3
"""Benchmark of the `bilevel-reweight experiment` presets.

    python3 perfbench/run.py --workload {sweep,flows,toy} --seed N \
        --seconds S --trace {0,1}

Run from the repository root. One workload runs per process, in a closed
loop with one client: the workload's preset calls run back to back through
`bilevel_reweight.cli.main`, pass after pass, until S seconds are used. Every
call is checked (see workloads.py); a call that raises, halts, or fails a
check counts as failed.

The process is pinned to one CPU, and a host speed probe (hostspeed.py)
runs on it right before and right after every call. The end-to-end times
are the measured times divided by the probe's slowdown, in seconds at
reference host speed; the measured ones are per-layer metrics (`raw.*`).

--trace 0 prints the end-to-end metrics (medians over passes). --trace 1
spends half the time on untraced passes and half on traced passes, and
prints the per-layer metrics. The last line of standard output is the
result as one JSON object; the lines before it are a readable report. The
full result, with provenance and the span aggregates, is written under
.perfbench_out/.
"""

import os
import time

T_START = time.perf_counter()

# Pin every BLAS to one thread before NumPy can be imported.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"
os.environ["BILEVEL_REWEIGHT_LOG"] = "error"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import List, Optional, Tuple  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
sys.path.insert(0, str(HERE))

import hostspeed  # noqa: E402
from layers import BYTES, CALLS, INCL_S, LAYERS, SELF_S, Instrument  # noqa: E402
from workloads import (  # noqa: E402
    PRESETS,
    WORKLOADS,
    check_call,
    data_seed,
    load_references,
    output_digest,
)

SETUP_PROBES = 5
PROBE_TIMEOUT_S = 120

# Per-layer metric groups (span names, see layers.py) and what each reports.
LAYER_METRICS = [
    ("simplex.mirror_step", ("calls", "self_s")),
    ("simplex.SimplexWeights", ("calls", "self_s")),
    ("simplex.entropy", ("self_s",)),
    ("simplex.support", ("self_s",)),
    ("losses.sample_grads", ("calls", "self_s", "mb")),
    ("losses.fit_grads", ("calls", "self_s", "mb")),
    ("losses.weighted_hess_apply", ("calls", "self_s")),
    ("losses.weighted_hess", ("calls", "self_s")),
    ("losses.sample_hessians", ("calls", "self_s", "mb")),
    ("losses.fit_losses", ("calls", "self_s")),
    ("hypergrad.hypergrad", ("calls", "self_s")),
    ("hypergrad.solve_inner_system", ("calls", "self_s")),
    ("hypergrad.closed_form_inner_quadratic", ("calls", "self_s")),
    ("hypergrad.FrozenField", ("calls", "self_s")),
    ("solvers.solve_inner", ("calls", "self_s")),
    ("solvers.estimate_lipschitz", ("self_s",)),
    ("solvers.soba", ("self_s",)),
    ("solvers.exact_bilevel", ("self_s",)),
    ("solvers.warm_started", ("self_s",)),
    ("solvers.softmax_reparam", ("self_s",)),
    ("solvers.FlowTrace.to_jsonl", ("self_s", "mb")),
    ("dynamics.integrate_mirror_flow", ("self_s",)),
    ("dynamics.integrate_joint_flow", ("self_s",)),
    ("dynamics.omega_limit", ("self_s",)),
    ("dynamics.ExactHypergradField", ("calls", "self_s")),
    ("dynamics.stability_check", ("self_s",)),
    ("datagen.gen_mixture", ("self_s",)),
    ("datagen.gen_corrupted", ("self_s",)),
    ("cli.cmd_experiment", ("self_s",)),
]
INTEGRATORS = ("dynamics.integrate_mirror_flow", "dynamics.integrate_joint_flow",
               "dynamics.omega_limit")
FIELD_CALLS = ("hypergrad.FrozenField", "dynamics.ExactHypergradField",
               "dynamics.ConstantField", "hypergrad.hypergrad",
               "losses.inner_grad")
UNITS = {"calls": "count", "self_s": "s", "mb": "MB"}


@dataclass
class Call:
    preset: str
    data_seed: int
    wall: float
    cpu: float
    slowdown: float  # host speed probe around the call / its reference
    bytes_written: int
    failure: Optional[str]
    digest: Optional[str] = None

    @property
    def wall_adj(self) -> float:
        return self.wall / self.slowdown

    @property
    def cpu_adj(self) -> float:
        return self.cpu / self.slowdown


# ------------------------------------------------------------------ set-up

def import_package():
    """Import NumPy, SciPy and the package from this checkout's src/."""
    sys.path.insert(0, str(SRC))
    import numpy  # noqa: F401
    import scipy.linalg  # noqa: F401
    from bilevel_reweight import cli

    where = Path(cli.__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise SystemExit(f"bilevel_reweight imported from {where}, not {SRC}")
    return cli


def warm_up(cli, workload):
    preset = workload.presets[0]
    out = OUT / workload.name / "warmup"
    shutil.rmtree(out, ignore_errors=True)
    if cli.main(preset.argv(workload.warmup, out)) != 0:
        raise SystemExit(f"warm-up call of {preset.name} failed")


def setup_probe(workload) -> float:
    """Import plus warm-up, timed in this (fresh) process."""
    warm_up(import_package(), workload)
    return time.perf_counter() - T_START


def probe_setup_times(workload) -> List[Tuple[float, float]]:
    """(seconds, host slowdown) of SETUP_PROBES set-up probes. The child
    inherits the pinned CPU; the `interp` kernel, which is most like
    importing, samples the host right before and right after it."""
    probe = hostspeed.Probe("interp")
    out = []
    before = probe.sample()
    for _ in range(SETUP_PROBES):
        done = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload.name,
             "--setup-probe"],
            capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True,
            cwd=ROOT)
        after = probe.sample()
        out.append((float(done.stdout.strip().splitlines()[-1]),
                    probe.slowdown(before, after)))
        before = after
    return out


# ------------------------------------------------------------------- calls

def pin_to_one_cpu() -> int:
    """Keep the process, and the probe with it, on one CPU: the host's
    speed states are per CPU."""
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def run_call(cli, inst, preset, seed, ref, digests, probe, before):
    """One timed preset call at data seed `seed`, and the host speed probe
    right after it. `before` is the probe sample taken right before it.
    Returns the call and the sample after it."""
    cfg = preset.config(seed)
    out = OUT / "calls" / preset.name
    shutil.rmtree(out, ignore_errors=True)
    inst.halts.clear()
    failure = digest = None
    t0, c0 = time.perf_counter(), time.process_time()
    try:
        code = cli.main(preset.argv(cfg, out))
    except (Exception, SystemExit) as exc:  # a failed call is counted, not fatal
        code = None
        failure = f"raised {type(exc).__name__}: {exc}"
    wall, cpu = time.perf_counter() - t0, time.process_time() - c0
    after = probe.sample()
    slowdown = probe.slowdown(before, after)
    if failure is None and code != 0:
        failure = f"exit code {code}"
    if failure is None and inst.halts:
        failure = "halted: " + "; ".join(inst.halts)
    if failure is None:
        failure, rows = check_call(preset, cfg, out, ref)
        if failure is None:
            digest = output_digest(out, rows)
            if digests.setdefault((preset.name, seed), digest) != digest:
                failure = "outputs differ from the first call's"
    written = sum(f.stat().st_size for f in out.rglob("*") if f.is_file()) \
        if out.exists() else 0
    return Call(preset.name, seed, wall, cpu, slowdown, written, failure,
                digest), after


def run_passes(cli, inst, workload, seed, refs, seconds, digests, probe):
    """Whole passes over the workload's presets until `seconds` is used;
    a pass is not started if the previous one would not fit. Pass i runs
    data seed `data_seed(seed + i)`, so a run's median pass does not hang
    on how costly one data seed happens to be. `refs` maps each data seed
    to its reference tables."""
    t_end = time.perf_counter() + seconds
    passes = []
    sample = probe.sample()
    while True:
        t0 = time.perf_counter()
        ds = data_seed(seed + len(passes))
        calls = []
        for p in workload.presets:
            call, sample = run_call(cli, inst, p, ds,
                                    refs.get(str(ds), {}).get(p.name), digests,
                                    probe, sample)
            calls.append(call)
        passes.append(calls)
        if time.perf_counter() + (time.perf_counter() - t0) > t_end:
            return passes


# ----------------------------------------------------------------- metrics

def median_pass(passes, attr) -> float:
    return statistics.median(sum(getattr(c, attr) for c in calls)
                             for calls in passes)


def preset_medians(passes, attr="wall_adj") -> dict:
    walls = {}
    for calls in passes:
        for c in calls:
            walls.setdefault(c.preset, []).append(getattr(c, attr))
    return {name: statistics.median(w) for name, w in walls.items()}


def layer_metrics(inst, untraced, traced, setup) -> dict:
    """Per-layer metrics, per traced pass, as {name: (value, unit)}."""
    k = len(traced)
    fields = {"calls": CALLS, "self_s": SELF_S, "mb": BYTES}
    m = {}
    for group, kinds in LAYER_METRICS:
        for kind in kinds:
            value = inst.total(fields[kind], name=group) / k
            m[f"{group}.{kind}"] = (value / 1e6 if kind == "mb" else value,
                                    UNITS[kind])
    m["solvers.solve_inner.grad_evals"] = (inst.total(
        CALLS, name="losses.inner_grad", parent="solvers.solve_inner") / k, "count")
    for integrator in INTEGRATORS:
        m[f"{integrator}.field_calls"] = (inst.total(
            CALLS, name=FIELD_CALLS, parent=integrator) / k, "count")
    m["solvers.records"] = (inst.total(CALLS, name="solvers.FlowTrace.append") / k,
                            "count")
    m["cli.bytes_written"] = (sum(c.bytes_written for calls in traced
                                  for c in calls) / k, "bytes")
    for layer in LAYERS:
        m[f"layer.{layer}.self_s"] = (inst.total(SELF_S, prefix=layer + ".") / k, "s")
    m["trace.span_share"] = (inst.total(SELF_S) / sum(c.wall for calls in traced
                                                       for c in calls), "share")
    m["trace.overhead_s"] = (median_pass(traced, "wall_adj")
                             - median_pass(untraced, "wall_adj"), "s")
    lh = dyn = 0.0
    for prefix in ("losses.", "hypergrad."):
        lh += inst.total(SELF_S, prefix=prefix)
        dyn += inst.total(SELF_S, prefix=prefix, top_prefix="dynamics.")
    m["trace.losses_hypergrad_under_dynamics"] = (dyn / lh if lh else 0.0, "share")
    presets = preset_medians(untraced)
    for p in PRESETS:
        m[f"preset.{p.name}_s"] = (presets.get(p.name, 0.0), "s")
    m["raw.wall_s"] = (median_pass(untraced, "wall"), "s")
    m["raw.cpu_s"] = (median_pass(untraced, "cpu"), "s")
    m["raw.setup_s"] = (statistics.median(t for t, _ in setup), "s")
    m["host.slowdown"] = (statistics.median(c.slowdown for calls in untraced
                                            for c in calls), "ratio")
    return m


def figures(inst) -> dict:
    """Per-call costs of the hot primitives named in the ROADMAP baseline,
    from inclusive span times (seconds per call)."""
    def per_call(name, parent=None):
        calls = inst.total(CALLS, name=name, parent=parent)
        return inst.total(INCL_S, name=name, parent=parent) / calls if calls else None

    out = {
        "gamma_v_s": per_call("losses.gradient_matrix", "solvers.soba"),
        "inner_grad_soba_s": per_call("losses.inner_grad", "solvers.soba"),
        "hvp_soba_s": per_call("losses.inner_hess_apply", "solvers.soba"),
        "solve_inner_s": per_call("solvers.solve_inner", "cli.cmd_experiment"),
        "hypergrad_s": per_call("hypergrad.hypergrad"),
        "mirror_step_s": per_call("simplex.mirror_step"),
        "simplex_weights_s": per_call("simplex.SimplexWeights"),
    }
    mirror = inst.total(CALLS, name="simplex.mirror_step", parent="solvers.soba")
    if mirror:
        out["soba_step_s"] = inst.total(INCL_S, name="solvers.soba") / mirror
    derivs = inst.total(CALLS, name="losses.inner_grad",
                        parent="dynamics.integrate_joint_flow")
    if derivs:
        out["joint_rk4_step_s"] = inst.total(
            INCL_S, name="dynamics.integrate_joint_flow") / (derivs / 4)
    return {k: v for k, v in out.items() if v is not None}


# -------------------------------------------------------------- provenance

def provenance() -> dict:
    import numpy
    import scipy

    git_sha = None
    try:
        done = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                              cwd=ROOT, capture_output=True, text=True, timeout=30)
        top, sha = (done.stdout.split() + ["", ""])[:2]
        if done.returncode == 0 and Path(top).resolve() == ROOT:
            git_sha = sha
    except (OSError, subprocess.SubprocessError):
        pass
    h = hashlib.sha256()
    for f in sorted(SRC.rglob("*.py")):
        h.update(str(f.relative_to(SRC)).encode())
        h.update(f.read_bytes())
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_sha": git_sha,
        "src_sha256": h.hexdigest(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "machine": platform.machine(),
    }


# -------------------------------------------------------------------- main

def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help="internal: time import plus warm-up, print it, exit")
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    workload = WORKLOADS[args.workload]
    if not (SRC / "bilevel_reweight" / "cli.py").is_file():
        print(f"no package source at {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    if args.setup_probe:
        print(setup_probe(workload))
        return 0

    cpus = len(os.sched_getaffinity(0))
    cpu = pin_to_one_cpu()
    cli = import_package()
    warm_up(cli, workload)
    probe = hostspeed.Probe(workload.probe)
    setup = probe_setup_times(workload)
    seed = data_seed(args.seed)
    refs = load_references(HERE / "references.json")[workload.name]
    prov = dict(provenance(), affinity=cpus, pinned_cpu=cpu)
    digests = {}

    budget = args.seconds / 2 if args.trace else args.seconds
    with Instrument(spans=False) as watch:
        untraced = run_passes(cli, watch, workload, seed, refs, budget, digests,
                              probe)
    traced, inst = [], None
    if args.trace:
        with Instrument(spans=True) as inst:
            traced = run_passes(cli, inst, workload, seed, refs, budget,
                                digests, probe)

    calls = [c for calls in untraced + traced for c in calls]
    failures = [f"{c.preset}: {c.failure}" for c in calls if c.failure]
    if args.trace:
        metrics = layer_metrics(inst, untraced, traced, setup)
    else:
        metrics = {
            "setup_s": (statistics.median(t / k for t, k in setup), "s"),
            "wall_s": (median_pass(untraced, "wall_adj"), "s"),
            "cpu_s": (median_pass(untraced, "cpu_adj"), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                            / 1024, "MB"),
        }
    result = {
        "correct": not failures,
        "attempted": len(calls),
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }

    print(f"# workload {workload.name}: seed {args.seed} -> data seeds from {seed}, "
           f"{len(untraced)} untraced + {len(traced)} traced passes")
    print(f"# provenance {json.dumps(prov, sort_keys=True)}")
    print(f"# setup probes (s, raw / host slowdown): "
          f"{', '.join(f'{t:.3f} / {k:.3f}' for t, k in setup)}")
    raw = preset_medians(untraced, "wall")
    for name, wall in preset_medians(untraced).items():
        print(f"# preset {name}: median {wall:.4f} s untraced at reference "
              f"speed, {raw[name]:.4f} s raw")
    print(f"# pass medians: wall {median_pass(untraced, 'wall'):.4f} s, "
          f"cpu {median_pass(untraced, 'cpu'):.4f} s raw; host slowdown "
          f"{statistics.median(c.slowdown for p in untraced for c in p):.3f}")
    for f in failures[:20]:
        print(f"# FAILED {f}")
    detail = {"workload": workload.name, "seed": args.seed, "data_seed": seed,
              "trace": args.trace, "provenance": prov, "setup_probes": setup,
              "probe": {"kernel": probe.kernel,
                        "reference_s": probe.reference_s},
              "passes": {"untraced": [[vars(c) for c in p] for p in untraced],
                         "traced": [[vars(c) for c in p] for p in traced]},
              "result": result}
    if inst is not None:
        fig = figures(inst)
        for name, value in fig.items():
            print(f"# figure {name}: {value * 1e3:.4f} ms per call")
        detail["figures_s"] = fig
        detail["spans"] = inst.spans_json()
    OUT.mkdir(parents=True, exist_ok=True)
    with open(OUT / f"result-{workload.name}-seed{args.seed}-trace{args.trace}.json",
              "w") as f:
        json.dump(detail, f, indent=1)
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
