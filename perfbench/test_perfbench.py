"""Tests of the benchmark itself; they are not part of the package's suite.

    python3 -m pytest perfbench/test_perfbench.py

Each workload runs one untraced and one traced pass at one seed.
"""

import json
import shutil
import subprocess
import sys

import pytest

import hostspeed
import run
from layers import CALLS, SELF_S, Instrument
from workloads import (
    BETAS,
    PRESETS,
    REGIME_CHECK,
    WORKLOADS,
    _gap_falls,
    compare_table,
    data_seed,
    load_references,
)

SEED = 19  # data seed 3
# Share of the traced pass wall time that spans must account for.
SPAN_SHARE = 0.95


@pytest.fixture(scope="module")
def cli():
    return run.import_package()


@pytest.fixture(scope="module", params=sorted(WORKLOADS))
def passes(request, cli):
    workload = WORKLOADS[request.param]
    seed = data_seed(SEED)
    refs = load_references(run.HERE / "references.json")[workload.name]
    digests = {}
    probe = hostspeed.Probe(workload.probe)
    with Instrument(spans=False) as watch:
        untraced = run.run_passes(cli, watch, workload, seed, refs, 0, digests,
                                  probe)
    configs = {p.name: json.loads((run.OUT / "calls" / p.name /
                                   "resolved-config.json").read_text())
               for p in workload.presets}
    with Instrument(spans=True) as inst:
        traced = run.run_passes(cli, inst, workload, seed, refs, 0, digests,
                                probe)
    return workload, untraced, traced, inst, configs


def test_calls_pass_their_checks(passes):
    _, untraced, traced, _, _ = passes
    assert [c.failure for p in untraced + traced for c in p] == \
        [None] * (len(untraced) + len(traced)) * len(untraced[0])


def test_traced_outputs_are_bit_identical(passes):
    _, untraced, traced, _, _ = passes
    assert [c.digest for c in traced[0]] == [c.digest for c in untraced[0]]
    assert all(c.digest for c in traced[0])


def test_resolved_config_holds_sizes_betas_and_seed(passes):
    workload, _, _, _, configs = passes
    s = data_seed(SEED)
    for name, cfg in configs.items():
        assert cfg["experiment"] == name
        if name == "ratio-sweep":
            assert (cfg["spec"]["n"], cfg["spec"]["seed"]) == (800, s)
            assert len(cfg["ratios"]) == 8
        elif name == "regime-check":
            assert (cfg["spec"]["n"], cfg["spec"]["seed"]) == (60, s)
            assert cfg["betas"] == BETAS
        elif name == "frozen-flow":
            assert (cfg["n"], cfg["p"], cfg["seed"]) == (5, 3, s)
            assert cfg["flow"]["t_max"] == 100.0
        else:
            assert (cfg["spec"]["n"], cfg["spec"]["seed"]) == (2000, s)


def test_spans_cover_the_traced_wall_time(passes):
    _, _, traced, inst, _ = passes
    wall = sum(c.wall for c in traced[0])
    assert inst.total(SELF_S) >= SPAN_SHARE * wall


def test_workload_design(passes):
    workload, untraced, traced, inst, _ = passes
    dynamics_calls = inst.total(CALLS, prefix="dynamics.")
    if workload.name == "sweep":
        assert dynamics_calls == 0
        assert inst.total(CALLS, prefix="hypergrad.") == 0
        assert inst.total(SELF_S, prefix="losses.") > 0.5 * sum(
            c.wall for c in traced[0])
    elif workload.name == "toy":
        assert dynamics_calls == 0
    else:
        outside = sorted((key[0], rec[CALLS]) for key, rec in inst.agg.items()
                         if key[0].startswith(("losses.", "hypergrad."))
                         and not (key[2] or "").startswith("dynamics."))
        # regime-check's start point is the only library call outside a
        # flow, apart from the oracle field asking the model for its size
        assert outside == [("hypergrad.closed_form_inner_quadratic", 1),
                           ("losses.n_params", 1)]
        metrics = run.layer_metrics(inst, untraced, traced, [(1.0, 1.0)])
        assert metrics["trace.losses_hypergrad_under_dynamics"][0] >= 0.99


def test_presets_never_get_the_bare_seed_flag(tmp_path):
    for preset in PRESETS:
        assert "--seed" not in preset.argv(preset.config(7), tmp_path)


def test_reference_check_catches_drift():
    ref = [{"beta": "0.1", "trajectory_gap": "0.05"},
           {"beta": "0.01", "trajectory_gap": "0.005"}]
    assert compare_table(ref, ref) is None
    near = [dict(ref[0], trajectory_gap="0.0500000001"), ref[1]]
    assert compare_table(near, ref) is None
    far = [dict(ref[0], trajectory_gap="0.0501"), ref[1]]
    assert "trajectory_gap" in compare_table(far, ref)
    assert compare_table(ref[:1], ref) is not None
    cfg = REGIME_CHECK.config(0)
    assert _gap_falls(cfg, ref) is None
    rising = [ref[0], dict(ref[1], trajectory_gap="0.06")]
    assert "does not fall" in _gap_falls(cfg, rising)


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(run.HERE, tmp_path / run.HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, f"{run.HERE.name}/run.py", "--workload", "toy",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert "correct" not in done.stdout
