import csv
import importlib.util
import json
import os
import pickle
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

import bilevel_reweight
from bilevel_reweight import (
    FlowConfig,
    FrozenField,
    OmegaResult,
    SimplexWeights,
    cli,
    datagen,
    load_dataset,
)
from bilevel_reweight.cli import main

# the benchmark's workload definitions; the module imports only the stdlib
_spec = importlib.util.spec_from_file_location(
    "perfbench_workloads",
    Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py")
workloads = sys.modules[_spec.name] = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(workloads)


def read_jsonl(path):
    return [json.loads(line) for line in path.read_text().splitlines()]


@pytest.fixture()
def mixture_spec_file(tmp_path):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({
        "type": "mixture",
        "spec": {"n": 40, "m": 10, "seed": 3},
    }))
    return path


class TestGenerate:
    def test_writes_datasets_and_meta(self, tmp_path, mixture_spec_file):
        out = tmp_path / "data"
        rc = main(["generate", "--spec", str(mixture_spec_file),
                   "--out", str(out)])
        assert rc == 0
        train = load_dataset(out / "train.csv")
        test = load_dataset(out / "test.csv")
        assert train.n == 40 and test.n == 10
        meta = json.loads((out / "meta.json").read_text())
        assert len(meta["clusters"]) == 40
        assert len(meta["theta_hat"]) == 2
        resolved = json.loads((out / "resolved-config.json").read_text())
        assert resolved["spec"]["seed"] == 3

    def test_seed_flag_overrides_spec(self, tmp_path, mixture_spec_file):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        main(["generate", "--spec", str(mixture_spec_file),
              "--out", str(out_a), "--seed", "7"])
        main(["generate", "--spec", str(mixture_spec_file),
              "--out", str(out_b), "--seed", "7"])
        assert ((out_a / "train.csv").read_text()
                == (out_b / "train.csv").read_text())
        main(["generate", "--spec", str(mixture_spec_file),
              "--out", str(out_a), "--seed", "8"])
        assert ((out_a / "train.csv").read_text()
                != (out_b / "train.csv").read_text())

    def test_corruption_spec_writes_val_split(self, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({
            "type": "corruption",
            "spec": {"n": 30, "classes": 3, "d": 4, "n_test": 10,
                     "n_val": 10, "seed": 0},
        }))
        out = tmp_path / "data"
        assert main(["generate", "--spec", str(spec), "--out", str(out)]) == 0
        val = load_dataset(out / "val.csv")
        assert val.n == 10 and val.kind == "classification"
        meta = json.loads((out / "meta.json").read_text())
        assert len(meta["clean_mask"]) == 30

    def test_unknown_type_exits_nonzero(self, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"type": "images"}))
        rc = main(["generate", "--spec", str(spec),
                   "--out", str(tmp_path / "o")])
        assert rc == 2

    def test_rejected_spec_exits_2_naming_the_field(self, tmp_path, capsys,
                                                    mixture_spec_file):
        rc = main(["generate", "--spec", str(mixture_spec_file),
                   "--out", str(tmp_path / "o"), "--set", "spec.sigma=-1"])
        assert rc == 2
        assert capsys.readouterr().err.strip() == (
            "sigma must be nonnegative and finite")

    def test_takes_its_config_as_spec_only(self, tmp_path, capsys,
                                           mixture_spec_file):
        with pytest.raises(SystemExit) as exc:
            main(["generate", "--spec", str(mixture_spec_file),
                  "--config", str(mixture_spec_file),
                  "--out", str(tmp_path / "o")])
        assert exc.value.code == 2
        assert "--config" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_unknown_spec_key_exits_2_naming_it(self, tmp_path, capsys,
                                                mixture_spec_file):
        rc = main(["generate", "--spec", str(mixture_spec_file),
                   "--out", str(tmp_path / "o"), "--set", "spec.sigmaa=1"])
        assert rc == 2
        err = capsys.readouterr().err.strip()
        assert err.startswith("unknown MixtureSpec key(s) ['sigmaa']; known "
                              "keys: [")
        assert "'sigma'" in err


class TestSolve:
    def solve_config(self, tmp_path, **solver):
        cfg = {
            "dataset": {"type": "mixture",
                        "spec": {"n": 30, "m": 10, "seed": 1}},
            "mu": 1e-4,
            "solver": {"kind": "exact", "eta": 0.1, "iterations": 20,
                       "record_every": 5, **solver},
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        return path

    def test_exact_solver_outputs(self, tmp_path):
        cfg = self.solve_config(tmp_path)
        out = tmp_path / "run"
        assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 0
        rows = read_jsonl(out / "trace.jsonl")
        assert [r["k"] for r in rows] == [0, 5, 10, 15, 20]
        summary = json.loads((out / "summary.json").read_text())
        assert summary["support_size"] >= 1
        assert summary["halted"] is None
        assert (out / "resolved-config.json").exists()

    def test_reproducible(self, tmp_path):
        cfg = self.solve_config(tmp_path)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        main(["solve", "--config", str(cfg), "--out", str(out_a)])
        main(["solve", "--config", str(cfg), "--out", str(out_b)])
        assert ((out_a / "trace.jsonl").read_text()
                == (out_b / "trace.jsonl").read_text())

    def test_set_override_changes_run(self, tmp_path):
        cfg = self.solve_config(tmp_path)
        out = tmp_path / "run"
        main(["solve", "--config", str(cfg), "--out", str(out),
              "--set", "solver.iterations=8"])
        rows = read_jsonl(out / "trace.jsonl")
        assert rows[-1]["k"] == 8
        resolved = json.loads((out / "resolved-config.json").read_text())
        assert resolved["solver"]["iterations"] == 8

    def test_warm_solver_kind(self, tmp_path):
        cfg = self.solve_config(tmp_path, kind="warm", rho=1e-4)
        out = tmp_path / "run"
        assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 0
        rows = read_jsonl(out / "trace.jsonl")
        assert len(rows) == 5

    @pytest.mark.parametrize("override, message", [
        ({"dataset": {"type": "images"}}, "unknown dataset type 'images'"),
        ({"model": "svm"}, "unknown model 'svm'"),
        ({"solver": {"kind": "newton"}}, "unknown solver kind 'newton'")])
    def test_unknown_config_kind_exits_2(self, tmp_path, capsys, override,
                                         message):
        cfg = {"dataset": {"type": "mixture",
                           "spec": {"n": 30, "m": 10, "seed": 1}},
               **override}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        rc = main(["solve", "--config", str(path), "--out", str(tmp_path / "x")])
        assert rc == 2
        assert capsys.readouterr().err.strip() == message

    def test_rejected_config_exits_2_naming_the_field(self, tmp_path, capsys):
        cfg = self.solve_config(tmp_path)
        rc = main(["solve", "--config", str(cfg), "--out", str(tmp_path / "x"),
                   "--set", "solver.eta=-1"])
        assert rc == 2
        assert capsys.readouterr().err.strip() == (
            "eta must be nonnegative and finite")

    def test_unknown_solver_key_exits_2_naming_it(self, tmp_path, capsys):
        cfg = self.solve_config(tmp_path)
        rc = main(["solve", "--config", str(cfg), "--out", str(tmp_path / "x"),
                   "--set", "solver.etaa=1"])
        assert rc == 2
        assert capsys.readouterr().err.strip() == (
            "unknown SolverConfig key(s) ['etaa']; known keys: ['eta', "
            "'iterations', 'record_every', 'rho']")

    def test_out_of_range_mu_exits_2(self, tmp_path, capsys):
        cfg = self.solve_config(tmp_path)
        rc = main(["solve", "--config", str(cfg), "--out", str(tmp_path / "x"),
                   "--set", "mu=-1"])
        assert rc == 2
        assert capsys.readouterr().err.strip() == (
            "mu must be nonnegative and finite")

    @pytest.mark.parametrize("sets, message", [
        (["--set", "solver=3", "--set", "solver.eta=1"],
         "solver must be a JSON object, got 3"),
        (["--set", "dataset=3", "--seed", "1"],
         "dataset must be a JSON object, got 3")],
        ids=["set", "seed"])
    def test_override_through_a_non_object_exits_2(self, tmp_path, capsys,
                                                   sets, message):
        out = tmp_path / "x"
        assert main(["solve", "--out", str(out), *sets]) == 2
        assert capsys.readouterr().err.strip() == message
        assert not out.exists()

    def test_unknown_dataset_key_exits_2_naming_it(self, tmp_path, capsys):
        cfg = self.solve_config(tmp_path)
        rc = main(["solve", "--config", str(cfg), "--out", str(tmp_path / "x"),
                   "--set", "dataset.typ=corruption"])
        assert rc == 2
        assert capsys.readouterr().err.strip() == (
            "unknown dataset key(s) ['typ']; known keys: type and spec, or "
            "path")

    def test_trace_and_summary_measure_theta_against_theta_hat(self,
                                                               tmp_path):
        cfg = self.solve_config(tmp_path)
        out = tmp_path / "run"
        assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 0
        theta_hat = np.array([1.0, -1.0])  # MixtureSpec's theta1_hat
        summary = json.loads((out / "summary.json").read_text())
        final = read_jsonl(out / "trace.jsonl")[-1]
        assert summary["theta_err"] == final["theta_err"]
        assert 0 < final["theta_err"] < np.linalg.norm(theta_hat)

    def test_malformed_override_exits(self, tmp_path, capsys):
        cfg = self.solve_config(tmp_path)
        out = tmp_path / "x"
        assert main(["solve", "--config", str(cfg), "--out", str(out),
                     "--set", "novalue"]) == 2
        assert capsys.readouterr().err.strip() == (
            "--set expects key=value, got 'novalue'")
        assert not out.exists()


# stationary_report.json's keys as README lists them; constant-flow adds
# closed_form_error
REPORT_KEYS = {"w", "is_stationary", "support", "proportionality_residual",
               "offsupport_margin", "tangent_eigenvalues", "is_stable",
               "in_I_lp", "converged", "oscillating"}

FROZEN = ["experiment", "frozen-flow"]
CONSTANT = ["experiment", "constant-flow"]


def _report(out):
    return json.loads((out / "stationary_report.json").read_text())


def _rows(out):
    return json.loads((out / "summary.json").read_text())["rows"]


class TestFlow:
    """The flow presets, frozen-flow and constant-flow, also write the
    certificate of their limit to stationary_report.json."""

    def test_constant_preset_reports_closed_form_error(self, tmp_path):
        out = tmp_path / "flow"
        rc = main([*CONSTANT, "--out", str(out),
                   "--set", "phi=[0.0,1.0,2.0]",
                   "--set", "flow.dt=0.001", "--set", "flow.t_max=10.0"])
        assert rc == 0
        report = _report(out)
        assert set(report) == REPORT_KEYS | {"closed_form_error"}
        assert report["in_I_lp"] is None
        assert report["closed_form_error"] <= 1e-4
        (row,) = _rows(out)
        assert row == {key: report[key] for key in
                       ("closed_form_error", "converged", "oscillating")}
        # the limit concentrates on the argmin of phi
        w = np.array(report["w"])
        assert w.argmax() == 0

    def test_constant_preset_takes_phi_of_any_sign(self, tmp_path):
        out = tmp_path / "flow"
        assert main([*CONSTANT, "--out", str(out),
                     "--set", "phi=[-1.0,0.5,2.0]"]) == 0
        assert _resolved(out)["phi"] == [-1.0, 0.5, 2.0]
        assert np.array(_report(out)["w"]).argmax() == 0

    def test_constant_preset_refuses_the_seed_flag(self, tmp_path, capsys):
        out = tmp_path / "flow"
        assert main([*CONSTANT, "--out", str(out), "--seed", "0"]) == 2
        assert capsys.readouterr().err.startswith(
            "unknown experiment config key(s) ['seed']")
        assert not out.exists()

    def test_fig3_preset_certifies_sparse_limit(self, tmp_path):
        out = tmp_path / "flow"
        rc = main([*FROZEN, "--out", str(out), "--seed", "0",
                   "--set", "flow.dt=0.01", "--set", "flow.t_max=300.0",
                   "--set", "flow.stationarity_tol=1e-9"])
        assert rc == 0
        report = _report(out)
        assert set(report) == REPORT_KEYS
        assert report["converged"] is True
        assert report["is_stationary"] is True
        assert len(report["support"]) <= 3
        assert report["in_I_lp"] is True
        rows = read_jsonl(out / "trace.jsonl")
        assert len(rows) > 1

    @pytest.mark.parametrize("w, jacobians", [
        (SimplexWeights.one_hot(5, 2), 1), (SimplexWeights.uniform(5), 0)])
    def test_report_evaluates_the_field_once(self, tmp_path, w, jacobians):
        # the Jacobian only where the limit is stationary
        field = mock.Mock(wraps=FrozenField.ridge_like(5, 5, 3, 0.5))
        cli._write_report(tmp_path, field, OmegaResult(w, True, False, 0.0),
                          FlowConfig())
        assert (field.call_count, field.jacobian.call_count) == (1, jacobians)
        assert _report(tmp_path)["is_stationary"] is bool(jacobians)

    def test_unknown_preset_exits_nonzero(self, tmp_path):
        # the flow presets are experiment names; there is no preset key
        rc = main([*FROZEN, "--out", str(tmp_path / "f"),
                   "--set", "preset=spiral"])
        assert rc == 2

    def test_rejected_config_exits_2_naming_the_field(self, tmp_path, capsys):
        rc = main([*FROZEN, "--out", str(tmp_path / "f"),
                   "--set", "flow.dt=null"])
        assert rc == 2
        assert capsys.readouterr().err.strip() == (
            "dt must be a real number, got None")

    def test_unknown_flow_key_exits_2_naming_it(self, tmp_path, capsys):
        rc = main([*FROZEN, "--out", str(tmp_path / "f"),
                   "--set", "flow.dtt=0.1"])
        assert rc == 2
        err = capsys.readouterr().err.strip()
        assert err.startswith("unknown FlowConfig key(s) ['dtt']; known "
                              "keys: [")
        assert "'dt'" in err

    def test_flow_is_not_a_subcommand(self, tmp_path, capsys):
        out = tmp_path / "f"
        with pytest.raises(SystemExit) as exc:
            main(["flow", "--out", str(out)])
        assert exc.value.code == 2
        assert "invalid choice: 'flow'" in capsys.readouterr().err
        assert not out.exists()


class TestExperiment:
    def test_unknown_name_exits_nonzero(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["experiment", "nope", "--out", str(tmp_path / "e")])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "invalid choice: 'nope'" in err
        assert all(f"'{name}'" in err for name in cli.EXPERIMENTS)
        assert not (tmp_path / "e").exists()

    def test_rejected_config_exits_2_naming_the_field(self, tmp_path, capsys):
        rc = main(["experiment", "toy-mixture", "--out", str(tmp_path / "e"),
                   "--set", "exact.iterations=2.5"])
        assert rc == 2
        assert capsys.readouterr().err.strip() == (
            "iterations must be an integer, got 2.5")

    def test_unknown_sub_config_key_exits_2_naming_it(self, tmp_path, capsys):
        rc = main(["experiment", "toy-mixture", "--out", str(tmp_path / "e"),
                   "--set", "warm.rhoo=1"])
        assert rc == 2
        err = capsys.readouterr().err.strip()
        assert err.startswith("unknown SolverConfig key(s) ['rhoo']; known "
                              "keys: [")
        assert "'rho'" in err

    def test_out_of_range_mu_exits_2(self, tmp_path, capsys):
        rc = main(["experiment", "toy-mixture", "--out", str(tmp_path / "e"),
                   "--set", "mu=-1"])
        assert rc == 2
        assert capsys.readouterr().err.strip() == (
            "mu must be nonnegative and finite")

    def test_toy_mixture_small(self, tmp_path):
        out = tmp_path / "exp"
        rc = main([
            "experiment", "toy-mixture", "--out", str(out),
            "--set", "spec.n=40", "--set", "spec.m=20", "--set", "spec.seed=2",
            "--set", 'exact={"eta":0.1,"iterations":50,"record_every":10}',
            "--set", 'warm={"eta":0.05,"rho":5e-5,"iterations":50,'
                     '"record_every":10}',
        ])
        assert rc == 0
        with open(out / "table.csv", newline="") as f:
            rows = list(csv.DictReader(f))
        assert [r["run"] for r in rows] == ["uniform", "optimal", "exact",
                                            "warm"]
        optimal = next(r for r in rows if r["run"] == "optimal")
        assert float(optimal["wrong_cluster_mass"]) == 0.0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["experiment"] == "toy-mixture"
        assert (out / "trace-exact.jsonl").exists()
        assert (out / "trace-warm.jsonl").exists()

    def test_softmax_toy_traces_the_table_resolve_err(self, tmp_path):
        out = tmp_path / "exp"
        assert main([
            "experiment", "softmax-toy", "--out", str(out),
            "--set", "spec.n=30", "--set", "spec.m=10",
            "--set", 'solver={"eta":50.0,"rho":0.001,"iterations":40,'
                     '"record_every":10}']) == 0
        with open(out / "table.csv", newline="") as f:
            table = list(csv.DictReader(f))
        trace = read_jsonl(out / "trace.jsonl")
        assert len(table) == len(trace) == 5
        for row, rec in zip(table, trace):
            assert float(row["resolve_err"]) == rec["extra"]["resolve_err"]
            assert float(row["theta_err"]) == rec["theta_err"]

    def test_frozen_flow_small(self, tmp_path):
        out = tmp_path / "exp"
        rc = main([
            "experiment", "frozen-flow", "--out", str(out),
            "--set", "n=5", "--set", "p=3", "--set", "seed=1",
            "--set", 'flow={"dt":0.01,"t_max":300.0,'
                     '"stationarity_tol":1e-9}',
        ])
        assert rc == 0
        with open(out / "table.csv", newline="") as f:
            rows = list(csv.DictReader(f))
        assert rows[0]["converged"] == "True"
        assert rows[0]["support_leq_p"] == "True"

    def test_frozen_flow_limit_is_a_separate_omega_limit(self, tmp_path,
                                                         monkeypatch):
        # the preset reads Omega off the mirror trace it writes; the result
        # is the bytes of an omega_limit call on the same field
        from bilevel_reweight import cli, dynamics

        got = []

        def capture(*args):
            got.append(dynamics.omega_from_trace(*args))
            return got[-1]

        monkeypatch.setattr(cli, "omega_from_trace", capture)
        flow = cli.EXPERIMENTS["frozen-flow"][1]["flow"]
        cfg = dynamics.FlowConfig(**flow)
        for seed in range(16):
            assert main(["experiment", "frozen-flow", "--out",
                         str(tmp_path / str(seed)), "--set",
                         f"seed={seed}"]) == 0
            field = FrozenField.ridge_like(datagen._rng(seed), 5, 3, 0.1)
            want = dynamics.omega_limit(field,
                                        dynamics.SimplexWeights.uniform(5),
                                        cfg)
            assert pickle.dumps(got[-1]) == pickle.dumps(want)

    @pytest.mark.parametrize("seed, t_max, converged", [
        (0, 300.0, True), (3, 5.0, False)])
    def test_frozen_flow_report_agrees_with_its_row(self, tmp_path, seed,
                                                    t_max, converged):
        out = tmp_path / "exp"
        assert main([*FROZEN, "--out", str(out), "--set", f"seed={seed}",
                     "--set", f'flow={{"dt":0.01,"t_max":{t_max},'
                              f'"stationarity_tol":1e-9}}']) == 0
        report = _report(out)
        assert set(report) == REPORT_KEYS
        (row,) = _rows(out)
        assert row["converged"] is report["converged"] is converged
        assert row["oscillating"] is report["oscillating"]
        # only a limit that converged is certified
        assert row["in_I_lp"] is report["in_I_lp"]
        assert (report["in_I_lp"] is None) is not converged

    def test_flow_withholds_the_certificate_of_an_unconverged_limit(
            self, tmp_path):
        # at stationarity_tol 1e-9 this limit passes is_stationary at the
        # report's tol 1e-6, and its support [0, 3] is in I_l^p; but it did
        # not converge, so it is not certified
        out = tmp_path / "flow"
        assert main([*FROZEN, "--seed", "3", "--set", "flow.t_max=5.0",
                     "--set", "flow.dt=0.01", "--set",
                     "flow.stationarity_tol=1e-9", "--out", str(out)]) == 0
        report = _report(out)
        assert report["converged"] is False
        assert report["is_stationary"] is True
        assert report["in_I_lp"] is None


class TestRegimeCheckFlows:
    """regime-check integrates its joint legs at cli._JOINT_GAP_RTOL, which
    its gaps need, keeps the oracle flow at FlowConfig's rtol, and measures
    a gap between whole flows only."""

    SMALL = ["--set", "spec.m=10", "--set", "horizon=0.01",
             "--set", "betas=[0.1,0.01]", "--set", "checkpoints=4"]

    @pytest.mark.parametrize("flow, name", [
        ("integrate_mirror_flow", "the oracle flow"),
        ("integrate_joint_flow", "the joint leg at beta = 0.01")])
    @pytest.mark.parametrize("kept", [1, 3])
    def test_halted_flow_exits_naming_it(self, tmp_path, monkeypatch, flow,
                                         name, kept):
        # a partial trace with a halt reason, as a failed step leaves it;
        # the joint leg at beta = 0.1 runs whole
        run = getattr(cli, flow)
        reason = "adaptive step size fell to 1e-15 at t = 0"

        def halted(*args, **kwargs):
            trace = run(*args, **kwargs)
            if kwargs.get("beta", 0.01) == 0.01:  # the oracle, or that leg
                del trace.records[kept:]
                trace.halted = reason
            return trace

        monkeypatch.setattr(cli, flow, halted)
        out = tmp_path / "exp"
        with pytest.raises(SystemExit) as exc:
            main(["experiment", "regime-check", "--out", str(out),
                  *self.SMALL])
        assert exc.value.code == f"regime-check: {name} halted: {reason}"
        assert not (out / "table.csv").exists()
        assert not (out / "summary.json").exists()
        # a halted run, unlike a rejected one, leaves its config
        assert _resolved(out)["horizon"] == 0.01

    @pytest.mark.parametrize("seed", [0, 5, None])
    def test_gaps_hold_at_a_hundredth_of_the_joint_rtol(self, tmp_path,
                                                        monkeypatch, seed):
        # the benchmark's config on two data seeds, and the defaults' two
        # faster legs (seed None), whose gap at beta = 0.1 rtol 1e-3 would
        # move by 1.6e-2 relative
        (preset,) = [p for p in workloads.PRESETS if p.name == "regime-check"]

        def gaps(out):
            argv = ["experiment", "regime-check", "--set", "betas=[0.1,0.01]",
                    "--out", str(out)]
            if seed is not None:
                argv = preset.argv(preset.config(seed), out)
            assert main(argv) == 0
            rows = json.loads((out / "summary.json").read_text())["rows"]
            return np.array([r["trajectory_gap"] for r in rows])

        budget = gaps(tmp_path / "budget")
        monkeypatch.setattr(cli, "_JOINT_GAP_RTOL", cli._JOINT_GAP_RTOL / 100)
        np.testing.assert_allclose(budget, gaps(tmp_path / "finer"),
                                   rtol=1e-6, atol=0)

    def test_only_the_joint_legs_loosen_their_rtol(self, tmp_path,
                                                   monkeypatch):
        # the oracle flow and frozen-flow's Omega keep FlowConfig's rtol,
        # which Omega's stop rule needs
        seen = {"integrate_mirror_flow": [], "integrate_joint_flow": []}
        for name, got in seen.items():
            def spy(*args, _run=getattr(cli, name), _got=got, **kwargs):
                _got.append(args[-1])
                return _run(*args, **kwargs)

            monkeypatch.setattr(cli, name, spy)
        assert main(["experiment", "regime-check", *self.SMALL,
                     "--out", str(tmp_path / "regime")]) == 0
        assert main(["experiment", "frozen-flow", "--set", "flow.t_max=5.0",
                     "--out", str(tmp_path / "frozen")]) == 0
        default = cli.FlowConfig().rtol
        assert [c.rtol for c in seen["integrate_mirror_flow"]] == [default] * 2
        assert [c.rtol for c in seen["integrate_joint_flow"]] == [
            cli._JOINT_GAP_RTOL] * 2
        assert cli._JOINT_GAP_RTOL > default


def _resolved(out):
    return json.loads((out / "resolved-config.json").read_text())


def _table(out):
    return (out / "table.csv").read_text()


class TestExperimentConfig:
    """A preset's config is its default merged with the user's: --seed
    reaches every preset's data seed, and a dotted --set changes one key."""

    def test_seed_flag_keeps_regime_check_defaults(self, tmp_path):
        base = ["experiment", "regime-check", "--set", "horizon=0.02",
                "--set", "betas=[0.1]", "--set", "checkpoints=2"]
        assert main(base + ["--seed", "3", "--out", str(tmp_path / "a")]) == 0
        assert _resolved(tmp_path / "a")["spec"] == {"n": 60, "m": 30, "seed": 3}
        assert main(base + ["--set", "spec.seed=3",
                            "--out", str(tmp_path / "b")]) == 0
        assert _table(tmp_path / "a") == _table(tmp_path / "b")
        assert main(base + ["--out", str(tmp_path / "c")]) == 0
        assert _table(tmp_path / "a") != _table(tmp_path / "c")

    def test_seed_flag_reaches_frozen_flow(self, tmp_path):
        out = tmp_path / "exp"
        assert main(["experiment", "frozen-flow", "--out", str(out),
                     "--seed", "4", "--set", "flow.t_max=5.0"]) == 0
        with open(out / "table.csv", newline="") as f:
            (row,) = list(csv.DictReader(f))
        assert row["seed"] == "4"
        resolved = _resolved(out)
        assert resolved["seed"] == 4
        assert resolved["flow"] == {"dt": 1e-2, "t_max": 5.0,
                                    "stationarity_tol": 1e-9}

    @pytest.mark.parametrize("name, sets, key, expected", [
        ("toy-mixture", ["exact.iterations=3", "warm.iterations=2"], "exact",
         {"eta": 0.12, "iterations": 3, "record_every": 50}),
        ("toy-mixture", ["exact.iterations=3", "warm.iterations=2"], "warm",
         {"eta": 0.05, "rho": 5e-5, "iterations": 2, "record_every": 50}),
        ("softmax-toy", ["solver.iterations=3"], "solver",
         {"eta": 100.0, "rho": 1e-3, "iterations": 3, "record_every": 100}),
        ("regime-check", ["spec.m=10", "horizon=0.01", "betas=[0.1]",
                          "checkpoints=1"], "spec",
         {"n": 60, "m": 10, "seed": 0}),
    ])
    def test_dotted_set_changes_one_key(self, tmp_path, name, sets, key,
                                        expected):
        argv = ["experiment", name, "--out", str(tmp_path / "exp")]
        if name != "regime-check":
            argv += ["--set", "spec.n=30", "--set", "spec.m=10"]
        for item in sets:
            argv += ["--set", item]
        assert main(argv) == 0
        assert _resolved(tmp_path / "exp")[key] == expected

    def test_full_config_resolves_to_itself(self, tmp_path):
        cfg = {"spec": {"n": 30, "m": 10, "sigma": 0.1, "seed": 1},
               "mu": 0.0,
               "solver": {"eta": 50.0, "rho": 1e-3, "iterations": 4,
                          "record_every": 2}}
        argv = ["experiment", "softmax-toy", "--out", str(tmp_path / "exp")]
        for key, value in cfg.items():
            argv += ["--set", f"{key}={json.dumps(value)}"]
        assert main(argv) == 0
        assert _resolved(tmp_path / "exp") == {"experiment": "softmax-toy",
                                               **cfg}

    def test_resolved_config_names_its_experiment(self, tmp_path):
        cfg_path = tmp_path / "resolved.json"
        cfg_path.write_text(json.dumps({"experiment": "frozen-flow",
                                        "flow": {"t_max": 1.0}}))
        assert main(["experiment", "frozen-flow", "--config", str(cfg_path),
                     "--out", str(tmp_path / "a")]) == 0
        assert main(["experiment", "softmax-toy", "--config", str(cfg_path),
                     "--out", str(tmp_path / "b")]) == 2


def _argv(command, config, out, sets):
    """command's argv with its config file flag (--spec for generate)."""
    flag = "--spec" if command[0] == "generate" else "--config"
    argv = [*command, flag, str(config), "--out", str(out)]
    for item in sets:
        argv += ["--set", item]
    return argv


@pytest.mark.parametrize("command, item, key", [
    (["generate"], "typ=corruption", "typ"),
    (["solve"], "solverr.iterations=3", "solverr"),
    (CONSTANT, "flw.t_max=1", "flw"),
    (["experiment", "ratio-sweep"], "jobs=4", "jobs")],
    ids=["generate", "solve", "constant-flow", "experiment"])
def test_unknown_top_level_key_exits_and_names_it(tmp_path, capsys, command,
                                                  item, key):
    config = tmp_path / "cfg.json"
    config.write_text("{}")
    out = tmp_path / "out"
    assert main(_argv(command, config, out, [item])) == 2
    assert f"'{key}'" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, sets", [
    (["experiment", "softmax-toy"],
     ["spec.n=30", "spec.m=10",
      'solver={"eta":50.0,"rho":0.001,"iterations":40,"record_every":10}']),
    (["generate"], ["spec.n=30", "spec.m=10", "spec.seed=2"]),
    (["solve"], ["dataset.spec.n=30", "dataset.spec.m=10", "mu=1e-4",
                 "solver.iterations=10", "solver.record_every=5"]),
    (FROZEN, ["flow.dt=0.01", "flow.t_max=5.0"]),
    (CONSTANT, ["flow.dt=0.01", "flow.t_max=5.0"])],
    ids=["experiment", "generate", "solve", "frozen-flow", "constant-flow"])
def test_resolved_config_reruns_identically(tmp_path, command, sets):
    empty = tmp_path / "empty.json"
    empty.write_text("{}")
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(_argv(command, empty, out_a, sets)) == 0
    resolved = out_a / "resolved-config.json"
    # the resolved config holds every default, not only what was given
    defaults = (cli.EXPERIMENTS[command[1]] if command[0] == "experiment"
                else cli.COMMANDS[command[0]])[1]
    assert set(json.loads(resolved.read_text())) - {"experiment"} == set(
        defaults)
    assert main(_argv(command, resolved, out_b, [])) == 0
    names = sorted(f.name for f in out_a.iterdir())
    assert names == sorted(f.name for f in out_b.iterdir())
    for name in names:
        if name != "summary.json":  # holds wall-clock times
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


REJECTED = [
    # a sub-config that is not an object
    (["solve"], "solver=3", "solver must be a JSON object, got 3"),
    (["solve"], "dataset=3", "dataset must be a JSON object, got 3"),
    (["solve"], "dataset.spec=3", "dataset.spec must be a JSON object, got 3"),
    (["experiment", "toy-mixture"], "exact=3",
     "exact must be a JSON object, got 3"),
    # a top-level number
    (["experiment", "frozen-flow"], "n=abc", "n must be an integer, got 'abc'"),
    (["experiment", "frozen-flow"], "n=true", "n must be an integer, got True"),
    (["experiment", "frozen-flow"], "seed=-1",
     "seed must be nonnegative and finite"),
    (["experiment", "regime-check"], "horizon=abc",
     "horizon must be a real number, got 'abc'"),
    (["experiment", "regime-check"], "betas=[0]",
     "betas must be positive and finite"),
    (["experiment", "regime-check"], "betas=0.1",
     "betas must be a list, got 0.1"),
    (["experiment", "ratio-sweep"], "ratios=[0]",
     "ratios must be positive and finite"),
    # an empty sweep
    (["experiment", "ratio-sweep"], "ratios=[]",
     "ratios must be a non-empty list"),
    (["experiment", "regime-check"], "betas=[]",
     "betas must be a non-empty list"),
    (["experiment", "toy-mixture"], "mu=NaN",
     "mu must be nonnegative and finite"),
    (CONSTANT, "phi=[true]", "phi must be a real number, got True")]


@pytest.mark.parametrize("command, item, message", [
    *(pytest.param(c, item, message, id=f"{c[-1]}-{item}")
      for c, item, message in REJECTED),
    # the n=abc that the retired flow command refused as a malformed integer:
    # constant-flow reads no n, so it refuses the key before its value
    pytest.param(CONSTANT, "n=abc", "unknown experiment config key(s) ['n']; "
                 "known keys: ['flow', 'phi']", id="flow-n=abc")])
def test_rejected_top_level_value_exits_2_naming_it(tmp_path, capsys, command,
                                                    item, message):
    out = tmp_path / "out"
    assert main([*command, "--out", str(out), "--set", item]) == 2
    assert capsys.readouterr().err.strip() == message
    assert not out.exists()


# a value that a config class, a dataset spec or the model refuses once the
# run builds it, after the run directory exists; the run removes it again
CORRUPTION = ["generate", "--set", "type=corruption"]
REJECTED_BY_THE_RUN = [
    (["generate"], "spec.n=true", "n must be an integer, got True"),
    (["solve"], "solver.iterations=true",
     "iterations must be an integer, got True"),
    (FROZEN, "flow.dt=true", "dt must be a real number, got True"),
    (["generate"], 'spec.mu1="ab"', "mu1 must be a list, got 'ab'"),
    (["generate"], "spec.mu1=[NaN,0]", "mu1 must be finite"),
    (["generate"], "spec.sigma=Infinity",
     "sigma must be nonnegative and finite"),
    (CORRUPTION, "spec.separation=NaN",
     "separation must be nonnegative and finite"),
    (CORRUPTION, "spec.n_test=0", "n_test must be positive and finite"),
    (CORRUPTION, "spec.n_val=-1", "n_val must be positive and finite"),
    (["solve"], "model=\"logistic\"",
     "model logistic needs a classification dataset, got a regression one")]


@pytest.mark.parametrize("command, item, message", REJECTED_BY_THE_RUN,
                         ids=[f"{c[0]}-{item}"
                              for c, item, _ in REJECTED_BY_THE_RUN])
def test_value_the_run_rejects_exits_2_naming_it(tmp_path, capsys, command,
                                                 item, message):
    config = tmp_path / "cfg.json"
    config.write_text("{}")
    out = tmp_path / "out" / "run"
    assert main(_argv(command, config, out, [item])) == 2
    assert capsys.readouterr().err.strip() == message
    assert not out.parent.exists()


def test_rejected_rerun_leaves_an_earlier_run_as_it_was(tmp_path, capsys):
    out = tmp_path / "d"
    sets = ["--set", "dataset.spec.n=30", "--set", "dataset.spec.m=10",
            "--set", "solver.iterations=5"]
    assert main(["solve", "--out", str(out), *sets]) == 0
    before = {f.name: f.read_bytes() for f in out.iterdir()}
    assert sorted(before) == ["resolved-config.json", "summary.json",
                              "trace.jsonl"]
    assert main(["solve", "--out", str(out), *sets,
                 "--set", "solver.iterations=true"]) == 2
    assert "iterations must be an integer" in capsys.readouterr().err
    assert {f.name: f.read_bytes() for f in out.iterdir()} == before


# an input file that is missing, unreadable, holds a value Dataset refuses,
# or is a split that disagrees with train.csv; paths are relative to the
# test's working directory, which holds the files the test writes
UNREADABLE = [
    (["solve", "--set", 'dataset={"path":"no-sidecar"}'],
     "missing dataset file no-sidecar/train.csv.json"),
    (["solve", "--set", 'dataset={"path":"no-csv"}'],
     "missing dataset file no-csv/train.csv"),
    (["solve", "--set", 'dataset={"path":"empty-csv"}'],
     "empty-csv/train.csv: empty dataset file (line 1)"),
    (["solve", "--set", 'dataset={"path":"bad-sidecar"}'],
     "bad-sidecar/train.csv.json is not JSON"),
    (["solve", "--set", 'dataset={"path":"list-sidecar"}'],
     "list-sidecar/train.csv.json has unknown kind None"),
    (["solve", "--set", 'dataset={"path":"not-utf8"}'],
     "not-utf8/train.csv is not UTF-8"),
    (["solve", "--set", 'dataset={"path":"nan-entry"}'],
     "nan-entry/train.csv: non-finite entry (line 3)"),
    (["solve", "--set", 'dataset={"path":"label-7"}'],
     "label-7/train.csv: class label 7 outside 0..2 (line 2)"),
    (["solve", "--set", 'dataset={"path":"null-C"}'],
     "null-C/train.csv.json: classification needs an integer C >= 2, "
     "got None"),
    (["solve", "--set", 'dataset={"path":"string-C"}'],
     "string-C/train.csv.json: classification needs an integer C >= 2, "
     "got '3'"),
    (["solve", "--set", 'dataset={"path":"test-d3"}'],
     "test-d3/test.csv has feature count 3, but train.csv has 1"),
    (["solve", "--set", 'dataset={"path":"test-C5"}'],
     "test-C5/test.csv has class count 5, but train.csv has 3"),
    (["solve", "--set", 'dataset={"path":"test-kind"}',
      "--set", 'model="ridge"'],
     "test-kind/test.csv has kind 'classification', but train.csv has "
     "'regression'"),
    (["solve", "--set", 'dataset={"path":"val-d3"}'],
     "val-d3/val.csv has feature count 3, but train.csv has 1"),
    (["solve", "--set", 'dataset={"path":"short-csv"}'],
     "short-csv/train.csv has n = 1, but short-csv/train.csv.json has n = 2"),
    (["solve", "--set", 'dataset={"path":"narrow-csv"}'],
     "narrow-csv/train.csv has d = 1, but narrow-csv/train.csv.json has "
     "d = 2"),
    (["solve", "--set", 'dataset={"path":"no-n"}'],
     "no-n/train.csv.json: n must be a positive integer, got None"),
    (["solve", "--set", 'dataset={"path":"bool-d"}'],
     "bool-d/train.csv.json: d must be a positive integer, got True"),
    (["solve", "--config", "nope.json"],
     "cannot read nope.json: No such file or directory"),
    (["solve", "--config", "empty-csv"],
     "cannot read empty-csv: Is a directory"),
    (["solve", "--config", "not-json.json"],
     "not-json.json is not JSON: Expecting value: line 1 column 1 (char 0)"),
    ([*CONSTANT, "--config", "number.json"],
     "number.json does not hold a JSON object")]


@pytest.mark.parametrize("argv, message", UNREADABLE,
                         ids=["no-sidecar", "no-csv", "empty-csv",
                              "non-json-sidecar", "non-object-sidecar",
                              "non-utf8-csv", "non-finite-entry",
                              "class-label-out-of-range",
                              "null-class-count", "string-class-count",
                              "test-feature-count", "test-class-count",
                              "test-kind", "val-feature-count",
                              "sidecar-row-count", "sidecar-feature-count",
                              "sidecar-missing-n", "sidecar-bool-d",
                              "missing-config", "directory-config",
                              "non-json-config", "non-object-config"])
def test_unreadable_input_file_exits_2_naming_it(tmp_path, monkeypatch,
                                                 capsys, argv, message):
    monkeypatch.chdir(tmp_path)
    table, table_d3 = "f0,target\n1.0,2.0\n", "f0,f1,f2,target\n1,2,3,4\n"
    labels = "f0,target\n1.0,0\n"

    def sidecar(kind="regression", **meta):
        return json.dumps({"kind": kind, "n": 1, "d": 1, **meta})

    def classes(c):
        return sidecar("classification", C=c)
    regression, regression_d3 = sidecar(), sidecar(d=3)
    for name, files in [
            ("no-sidecar", {"train.csv": table}),
            ("no-csv", {"train.csv.json": regression}),
            ("empty-csv", {"train.csv.json": regression, "train.csv": ""}),
            ("bad-sidecar", {"train.csv.json": "{", "train.csv": table}),
            ("list-sidecar", {"train.csv.json": "[1]", "train.csv": table}),
            ("not-utf8", {"train.csv.json": regression,
                          "train.csv": b"f0,target\n\xff,1\n"}),
            ("nan-entry", {"train.csv.json": sidecar(n=2),
                           "train.csv": table + "nan,2.0\n"}),
            ("label-7", {"train.csv.json": classes(3),
                         "train.csv": "f0,target\n1.0,7\n"}),
            ("null-C", {"train.csv.json": classes(None), "train.csv": labels}),
            ("string-C", {"train.csv.json": classes("3"),
                          "train.csv": labels}),
            ("test-d3", {"train.csv.json": regression, "train.csv": table,
                         "test.csv.json": regression_d3,
                         "test.csv": table_d3}),
            ("test-C5", {"train.csv.json": classes(3), "train.csv": labels,
                         "test.csv.json": classes(5), "test.csv": labels}),
            ("test-kind", {"train.csv.json": regression, "train.csv": table,
                           "test.csv.json": classes(3), "test.csv": labels}),
            ("val-d3", {"train.csv.json": regression, "train.csv": table,
                        "test.csv.json": regression, "test.csv": table,
                        "val.csv.json": regression_d3, "val.csv": table_d3}),
            ("short-csv", {"train.csv.json": sidecar(n=2), "train.csv": table}),
            ("narrow-csv", {"train.csv.json": sidecar(d=2),
                            "train.csv": table}),
            ("no-n", {"train.csv.json": json.dumps({"kind": "regression",
                                                    "d": 1}),
                      "train.csv": table}),
            ("bool-d", {"train.csv.json": sidecar(d=True),
                        "train.csv": table})]:
        Path(name).mkdir()
        for file, text in files.items():
            if isinstance(text, bytes):
                Path(name, file).write_bytes(text)
            else:
                Path(name, file).write_text(text)
    Path("not-json.json").write_text("not json")
    Path("number.json").write_text("3")
    assert main([*argv, "--out", "out"]) == 2
    assert capsys.readouterr().err.strip() == message
    assert not Path("out").exists()


@pytest.mark.parametrize("command, item", [
    (["generate"], "spec.seed=-1"),
    (["solve"], "dataset.spec.seed=18446744073709551616"),
    # frozen-flow's --seed flag reaches the same check as its --set seed=
    ([*FROZEN, "--seed", "18446744073709551616"], None),
    (FROZEN, "seed=18446744073709551616")],
    ids=["generate", "solve", "flow", "experiment"])
def test_seed_outside_the_philox_key_range_exits_2(tmp_path, capsys, command,
                                                   item):
    config = tmp_path / "cfg.json"
    config.write_text("{}")
    seed = command[-1] if item is None else item.split("=")[1]
    sets = [] if item is None else [item]
    assert main(_argv(command, config, tmp_path / "out", sets)) == 2
    assert capsys.readouterr().err.strip() == (
        f"seed must lie in [0, 2**64), got {seed}")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command, item, config", [
    (CONSTANT, "flow.alpha=7", "FlowConfig"),
    (FROZEN, "flow.beta=2", "FlowConfig"),
    (CONSTANT, "flow.oscillation_window=5", "FlowConfig"),
    (["solve"], "solver.rho_v=0.3", "SolverConfig"),
    (["solve"], "solver.inner_tol=1e-3", "SolverConfig")],
    ids=["flow-alpha", "frozen-flow-beta", "flow-oscillation_window",
         "solve-rho_v", "solve-inner_tol"])
def test_removed_config_key_exits_2_naming_it(tmp_path, capsys, command, item,
                                              config):
    key = item.split("=")[0].split(".")[1]
    assert main([*command, "--out", str(tmp_path / "out"), "--set", item]) == 2
    assert capsys.readouterr().err.strip().startswith(
        f"unknown {config} key(s) ['{key}']; known keys: [")


UNREAD_BY_EXACT = "rho is not read by solver kind exact; remove it"
UNKNOWN = "unknown experiment config key(s) "


@pytest.mark.parametrize("command, sets, message", [
    (["solve"], ["solver.rho=5"], UNREAD_BY_EXACT),
    (["experiment", "toy-mixture"], ["exact.rho=0.01"], UNREAD_BY_EXACT),
    (FROZEN, ["phi=[1.0,2.0]"], UNKNOWN + "['phi']"),
    (CONSTANT, ["p=4"], UNKNOWN + "['p']"),
    (CONSTANT, ["phi=[1.0,2.0]", "n=7"], UNKNOWN + "['n']"),
    (CONSTANT, ["seed=0"], UNKNOWN + "['seed']"),
    (CONSTANT, ["preset=constant"], UNKNOWN + "['preset']"),
    (CONSTANT, ["phi=[NaN,0,0]"], "phi must be finite"),
    (CONSTANT, ["phi=[Infinity,0,0]"], "phi must be finite"),
    (CONSTANT, ["phi=[]"], "phi must be a non-empty list"),
    (CONSTANT, ["phi=[[1,2],[3,4]]"], "phi must be a real number, got [1, 2]"),
    (CONSTANT, ["phi=abc"], "phi must be a list, got 'abc'")],
    ids=["solve-exact-rho", "toy-mixture-exact-rho", "fig3-phi", "constant-p",
         "constant-phi-n", "constant-seed", "constant-preset",
         "constant-phi-nan", "constant-phi-inf", "constant-phi-empty",
         "constant-phi-matrix", "constant-phi-string"])
def test_key_the_run_does_not_read_exits_2_naming_it(tmp_path, capsys,
                                                     command, sets, message):
    argv = [*command, "--out", str(tmp_path / "out")]
    for item in sets:
        argv += ["--set", item]
    assert main(argv) == 2
    assert capsys.readouterr().err.strip().startswith(message)
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("preset", workloads.PRESETS, ids=lambda p: p.name)
def test_benchmark_configs_resolve_to_themselves(tmp_path, preset):
    # the check perfbench's check_call makes of every benchmark call, here
    # without running the preset
    _, defaults, seed_key = cli.EXPERIMENTS[preset.name]
    for seed in range(workloads.DATA_SEEDS):
        cfg = preset.config(seed)
        out = tmp_path / str(seed)
        args = cli.build_parser().parse_args(preset.argv(cfg, out))
        merged = cli._resolve(args, defaults, seed_key, args.name)
        with cli._run_dir(args.out, {"experiment": args.name, **merged}):
            pass
        resolved = json.loads((out / "resolved-config.json").read_text())
        assert resolved == json.loads(json.dumps({"experiment": preset.name,
                                                  **cfg}))
        assert sorted(p.name for p in out.iterdir()) == [
            "resolved-config.json"]


class TestProfile:
    ARGS = ["experiment", "ratio-sweep", "--set", "ratios=[1.0,100.0]",
            "--set", "iterations=4",
            "--set", 'spec={"n":60,"classes":3,"d":4,"n_test":30,'
                     '"n_val":30,"seed":1}']

    def test_writes_stats_and_leaves_outputs_unchanged(self, tmp_path):
        import pstats

        plain, profiled = tmp_path / "plain", tmp_path / "profiled"
        assert main(self.ARGS + ["--out", str(plain)]) == 0
        assert main(self.ARGS + ["--out", str(profiled), "--profile"]) == 0
        assert not (plain / "profile.pstats").exists()
        stats = pstats.Stats(str(profiled / "profile.pstats"))
        assert any(name == "soba" for _, _, name in stats.stats)
        assert _untimed_table(profiled) == _untimed_table(plain)
        traces = sorted(p.name for p in plain.glob("trace*.jsonl"))
        assert len(traces) == 2
        assert traces == sorted(p.name for p in profiled.glob("trace*.jsonl"))
        for name in traces:
            assert (plain / name).read_bytes() == (profiled / name).read_bytes()


def _untimed_table(out):
    """out/table.csv's rows without their wall-clock column."""
    with open(out / "table.csv", newline="") as f:
        return [{k: v for k, v in row.items() if k != "wall_time_s"}
                for row in csv.DictReader(f)]


class TestJobs:
    """Ratios run in series; experiment parses the benchmark's --jobs 1
    and refuses every other count, and no other command takes the flag."""

    SOLVE = ["solve"]

    @pytest.mark.parametrize("argv, jobs", [
        (TestProfile.ARGS, "0"), (TestProfile.ARGS, "-3"),
        (TestProfile.ARGS, "2"), (TestProfile.ARGS, "4"),
        (SOLVE, "4"), (SOLVE, "1")],
        ids=["experiment-0", "experiment--3", "experiment-2", "experiment-4",
             "solve-4", "solve-1"])
    def test_refuses_all_but_experiments_1(self, tmp_path, capsys, argv,
                                           jobs):
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--jobs", jobs, "--out", str(out)])
        assert exc.value.code == 2
        assert "--jobs" in capsys.readouterr().err
        assert not out.exists()

    def test_experiment_takes_1_as_if_it_were_absent(self, tmp_path):
        plain, one = tmp_path / "plain", tmp_path / "one"
        assert main(TestProfile.ARGS + ["--out", str(plain)]) == 0
        assert main(TestProfile.ARGS + ["--jobs", "1", "--out", str(one)]) == 0
        names = sorted(f.name for f in plain.iterdir())
        assert names == sorted(f.name for f in one.iterdir())
        assert len([n for n in names if n.startswith("trace-ratio-")]) == 2
        assert _untimed_table(one) == _untimed_table(plain)
        for name in names:
            if name not in ("summary.json", "table.csv"):  # wall-clock times
                assert (plain / name).read_bytes() == (one / name).read_bytes()


def _strict_jsonl(path):
    """The rows of a JSON-lines file, refusing NaN and the infinities,
    which JSON does not have."""
    def refuse(name):
        raise ValueError(f"{name} is not JSON")

    return [json.loads(line, parse_constant=refuse)
            for line in path.read_text().splitlines()]


@pytest.mark.parametrize("argv", [
    [*FROZEN, "--set", "flow.t_max=1.0", "--set", "flow.dt=0.01"],
    [*CONSTANT, "--set", "flow.t_max=1.0", "--set", "flow.dt=0.01"],
    [*FROZEN, "--set", "flow.t_max=5.0"]],
    ids=["flow-fig3", "constant-flow", "frozen-flow"])
def test_mirror_flow_traces_are_strict_json_with_null_losses(tmp_path, argv):
    out = tmp_path / "out"
    assert main([*argv, "--out", str(out)]) == 0
    rows = _strict_jsonl(out / "trace.jsonl")
    assert len(rows) > 1
    for row in rows:
        assert row["inner_loss"] is None and row["outer_loss"] is None
        assert row["theta_err"] is None


def test_cli_import_leaves_heavy_scipy_modules_unloaded():
    # scipy.optimize, scipy.sparse and scipy.integrate add start-up time and
    # memory to every run; the package needs none of them
    src = str(Path(bilevel_reweight.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = ("import sys, bilevel_reweight.cli; print(sorted({'scipy.optimize', "
            "'scipy.sparse', 'scipy.integrate'} & set(sys.modules)))")
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "[]"
