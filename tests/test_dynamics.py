import re
import sys
import warnings
from unittest import mock

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bilevel_reweight import (
    AssumptionViolationError,
    ConfigError,
    ConstantField,
    CorruptionSpec,
    Dataset,
    ExactHypergradField,
    FlowConfig,
    FrozenField,
    MixtureSpec,
    ModelParams,
    NoConvergenceError,
    OmegaResult,
    PreconditionError,
    RegularizedMultinomialLogistic,
    RidgeLeastSquares,
    SimplexWeights,
    closed_form_inner_quadratic,
    constant_field_solution,
    frozen_field,
    gen_corrupted,
    gen_mixture,
    hypergrad,
    hypergrad_at,
    integrate_joint_flow,
    integrate_mirror_flow,
    integrate_sparse_reference,
    is_stationary,
    membership_I,
    omega_limit,
    solve_inner,
    sparsity_certificate,
    stability_check,
    support,
)
from bilevel_reweight import dynamics, losses


def softmax(u):
    e = np.exp(u - u.max())
    return e / e.sum()


def raw_phi(field, values):
    """A FrozenField's phi = -Gamma H(v)^{-1} grad F at raw coordinates v,
    off the simplex too, from its gamma, sample_hessians and grad_outer."""
    H = np.einsum("i,ijk->jk", values, field.sample_hessians)
    return -(field.gamma @ np.linalg.solve(H, field.grad_outer))


def fd_jacobian(field, w):
    """Central differences of raw_phi at w, step 1e-6 per weight."""
    return np.column_stack([raw_phi(field, w.values + e)
                            - raw_phi(field, w.values - e)
                            for e in 1e-6 * np.eye(w.n)]) / 2e-6


def rk4(deriv, y, t, steps):
    """y(t) for y' = deriv(y) from y(0) = y by classical RK4 in equal
    steps: a fixed-step reference independent of the package's integrator."""
    h = t / steps
    for _ in range(steps):
        k1 = deriv(y)
        k2 = deriv(y + h / 2 * k1)
        k3 = deriv(y + h / 2 * k2)
        k4 = deriv(y + h * k3)
        y = y + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
    return y


@pytest.fixture(scope="module")
def sparse_limit():
    # an instance whose mirror-flow limit keeps three active coordinates;
    # at rtol 1e-10 the checkpoint changes stay above 1e-11, so the
    # stationarity_tol of 1e-12 needs the tighter rtol
    field = FrozenField.ridge_like(3, 5, 3, 0.5)
    cfg = FlowConfig(dt=1e-2, t_max=300.0, stationarity_tol=1e-12, rtol=1e-12)
    res = omega_limit(field, SimplexWeights.uniform(5), cfg)
    assert res.converged
    return field, res


class TestMirrorFlow:
    def test_matches_constant_field_closed_form(self):
        rng = np.random.default_rng(0)
        w0 = SimplexWeights.from_unnormalized(rng.random(6) + 0.1)
        phi = rng.standard_normal(6)
        times = [0.5, 1.0, 2.0, 5.0, 10.0]
        trace = integrate_mirror_flow(ConstantField(phi), w0,
                                      FlowConfig(dt=1e-3, t_max=10.0),
                                      record_times=times)
        for rec, t in zip(trace.records[1:], times):
            exact = constant_field_solution(w0, phi, t)
            assert np.max(np.abs(rec.w.values - exact.values)) <= 1e-10

    def test_record_grid_includes_time_zero(self):
        w0 = SimplexWeights.uniform(3)
        trace = integrate_mirror_flow(ConstantField(np.zeros(3)), w0,
                                      FlowConfig(dt=1e-2, t_max=1.0),
                                      record_times=[1.0])
        assert trace.records[0].k == 0.0
        assert np.allclose(trace.records[0].w.values, w0.values)

    def test_weights_stay_on_simplex(self):
        field = FrozenField.ridge_like(1, 5, 3, 0.5)
        trace = integrate_mirror_flow(field, SimplexWeights.uniform(5),
                                      FlowConfig(dt=1e-2, t_max=5.0))
        for r in trace.records:
            assert np.all(r.w.values >= 0)
            assert abs(r.w.values.sum() - 1.0) <= 1e-12

    def test_rejects_boundary_start(self):
        w0 = SimplexWeights(np.array([1.0, 0.0]))
        with pytest.raises(ValueError):
            integrate_mirror_flow(ConstantField(np.zeros(2)), w0,
                                  FlowConfig(dt=1e-2, t_max=1.0))

    @pytest.mark.parametrize("times", [
        [0.1, np.nan], [], [0.5, 0.2, 1.0], [-0.5, 0.5], [0.5, 0.5],
        [0.5, 10.5], [0.5, np.inf]],
        ids=["nan", "empty", "decreasing", "negative", "repeated",
             "past-t_max", "inf"])
    def test_rejects_bad_record_times_before_integrating(self, times):
        field = FrozenField.ridge_like(3, 5, 3, 0.5)
        calls = []

        def counting(w):
            calls.append(1)
            return field(w)

        with pytest.raises(ValueError, match="record_times"):
            integrate_mirror_flow(counting, SimplexWeights.uniform(5),
                                  FlowConfig(), record_times=times)
        assert not calls

    def test_exact_field_decreases_value_function(self):
        spec = MixtureSpec(n=40, m=20, sigma=0.1, seed=11)
        train, test, _, _ = gen_mixture(spec)
        model = RidgeLeastSquares(1e-3)
        field = ExactHypergradField(model, train, test)
        w0 = SimplexWeights.uniform(train.n)
        trace = integrate_mirror_flow(field, w0,
                                      FlowConfig(dt=1e-2, t_max=2.0),
                                      record_times=[0.5, 1.0, 2.0])

        def h(w):
            from bilevel_reweight import outer_loss
            theta = closed_form_inner_quadratic(train, w, model.mu)
            return outer_loss(model, test, theta)

        vals = [h(r.w) for r in trace.records]
        assert all(b < a for a, b in zip(vals[:-1], vals[1:]))


class TestExactHypergradField:
    def test_builds_one_weighted_gram_per_call(self, monkeypatch):
        # the package attribute bilevel_reweight.hypergrad is the function
        hg_module = sys.modules["bilevel_reweight.hypergrad"]
        builds = []
        gram = losses._weighted_gram

        def counted(data, w):
            builds.append(w)
            return gram(data, w)

        monkeypatch.setattr(losses, "_weighted_gram", counted)
        monkeypatch.setattr(hg_module, "_weighted_gram", counted)
        train, test, _, _ = gen_mixture(MixtureSpec(n=60, m=30, seed=2))
        field = ExactHypergradField(RidgeLeastSquares(1e-4), train, test)
        rng = np.random.default_rng(0)
        for _ in range(10):
            field(SimplexWeights.from_unnormalized(rng.random(train.n)))
        assert len(builds) == 10

    @pytest.mark.parametrize("kind", ["ridge", "ridge-mu0", "logistic"])
    def test_equals_inner_solve_then_hypergrad(self, kind):
        if kind == "logistic":
            train, _, test, _ = gen_corrupted(CorruptionSpec(
                n=40, classes=3, d=4, n_test=20, n_val=5, seed=1))
            model = RegularizedMultinomialLogistic(1e-2)
        else:
            train, test, _, _ = gen_mixture(MixtureSpec(n=40, m=20, seed=3))
            model = RidgeLeastSquares(0.0 if kind == "ridge-mu0" else 1e-3)
        field = ExactHypergradField(model, train, test)
        theta0 = ModelParams(np.zeros(model.n_params(train)))
        rng = np.random.default_rng(5)
        for share in (0.0, 0.0, 0.5, 0.5):
            mass = rng.random(train.n) * (rng.random(train.n) >= share)
            mass[:4] += 0.1
            w = SimplexWeights.from_unnormalized(mass)
            theta = solve_inner(model, train, w, theta0, tol=1e-12)
            want = hypergrad(model, train, test, theta, w)
            assert field(w).tobytes() == want.tobytes()


class TestAdaptiveSteps:
    """DOP853 steps under the tolerance FlowConfig.rtol."""

    def test_matches_constant_field_closed_form(self):
        rng = np.random.default_rng(0)
        w0 = SimplexWeights.from_unnormalized(rng.random(6) + 0.1)
        phi = rng.standard_normal(6)
        times = [0.5, 1.0, 2.0, 5.0, 10.0]
        trace = integrate_mirror_flow(
            ConstantField(phi), w0, FlowConfig(dt=1e-3, t_max=10.0, rtol=1e-10),
            record_times=times)
        for rec, t in zip(trace.records[1:], times):
            exact = constant_field_solution(w0, phi, t)
            assert np.max(np.abs(rec.w.values - exact.values)) <= 1e-8

    def test_error_falls_with_rtol(self):
        field = FrozenField.ridge_like(2, 5, 3, 0.5)
        w0 = SimplexWeights.uniform(5)
        ref = softmax(rk4(lambda u: -field(SimplexWeights(softmax(u))),
                          np.log(w0.values), 1.0, 10_000))
        errs = []
        for rtol in (1e-6, 1e-8, 1e-10):
            got = integrate_mirror_flow(
                field, w0, FlowConfig(dt=1e-2, t_max=1.0, rtol=rtol),
                record_times=[1.0]).final.w.values
            errs.append(np.max(np.abs(got - ref)))
        assert errs[0] > errs[1] > errs[2]
        assert errs[2] <= 1e-10

    def test_lands_on_every_grid_time(self):
        field = FrozenField.ridge_like(3, 5, 3, 0.5)
        times = np.sort(np.random.default_rng(1).uniform(0.0, 7.0, 9))
        trace = integrate_mirror_flow(
            field, SimplexWeights.uniform(5),
            FlowConfig(dt=0.3, t_max=7.0, rtol=1e-8), record_times=times)
        assert [r.k for r in trace.records] == [0.0] + list(times)

    def test_fewer_calls_than_rk4_on_the_frozen_flow_grid(self):
        # RK4 steps of dt on this grid would make 8000 field calls
        calls = []

        class CountingField(ConstantField):
            def __call__(self, w):
                calls.append(1)
                return self.phi

        integrate_mirror_flow(CountingField(np.arange(5.0)),
                              SimplexWeights.uniform(5),
                              FlowConfig(dt=0.05, t_max=100.0, rtol=1e-10))
        assert len(calls) < 8000

    def test_interior_grid_times_add_three_calls_per_step(self, monkeypatch):
        # the steps are the controller's alone; the grid times inside an
        # accepted step are read off its dense output, whose 3 extra stages
        # are all they cost
        blocks = []
        dense_output = dynamics._dense_output

        def counting(*args):
            blocks.append(1)
            return dense_output(*args)

        monkeypatch.setattr(dynamics, "_dense_output", counting)
        runs = []
        for n_times in (2, 1001):
            states = []

            def deriv(y):
                states.append(y.tobytes())
                return -y

            grid = np.linspace(0.0, 10.0, n_times)
            blocks.clear()
            values = list(dynamics._path(deriv, np.ones(1), grid, 0.1,
                                         rtol=1e-11))
            runs.append((states, len(blocks), values))
        (few, no_blocks, ends), (many, n_blocks, values) = runs
        assert no_blocks == 0 and n_blocks > 0
        assert len(many) == len(few) + 3 * n_blocks
        # every state the two-time run evaluated, each step's end included,
        # comes in the same order and bits in the 1,001-time run
        rest = iter(many)
        assert all(state in rest for state in few)
        assert ends[-1][1].tobytes() == values[-1][1].tobytes()
        assert [t for t, _ in values] == list(grid)
        for t, y in values:
            assert abs(y[0] - np.exp(-t)) <= 1e-9 * np.exp(-t)

    def test_never_evaluates_past_the_horizon(self):
        # y[0] is the time; its derivative is 1
        seen = []

        def deriv(y):
            seen.append(y[0])
            return np.array([1.0, np.cos(y[0]) - y[1]])

        grid = np.concatenate([np.linspace(0.0, 7.3, 40), [7.31]])
        t, y = list(dynamics._path(deriv, np.zeros(2), grid, 0.05,
                                   rtol=1e-8))[-1]
        assert t == 7.31 and y[0] == pytest.approx(7.31, abs=1e-12)
        assert max(seen) <= 7.31 + 1e-12

    def test_nan_derivative_raises_instead_of_looping(self):
        path = dynamics._path(lambda y: np.full_like(y, np.nan), np.zeros(3),
                              np.array([0.0, 1.0]), 0.1, rtol=1e-8)
        with pytest.raises(NoConvergenceError, match="at t = 0.0"):
            list(path)

    @pytest.mark.parametrize("rtol", [0.0, -1e-8, np.inf, np.nan, None])
    def test_rejects_nonpositive_or_nonfinite_rtol(self, rtol):
        with pytest.raises(ValueError):
            FlowConfig(rtol=rtol)


@pytest.mark.parametrize("field,value", [
    ("dt", np.nan), ("stationarity_tol", np.nan), ("t_max", np.inf),
    ("stationarity_tol", np.inf)])
def test_flow_config_rejects_invalid_value_naming_the_field(field, value):
    with pytest.raises(ValueError, match=field):
        FlowConfig(**{field: value})


@pytest.mark.parametrize("field,value", [
    (field, value)
    for field in ("dt", "t_max", "stationarity_tol", "rtol")
    for value in (None, "1", True)])
def test_flow_config_rejects_wrong_type_naming_the_field(field, value):
    with pytest.raises(ConfigError, match=field):
        FlowConfig(**{field: value})


@pytest.fixture(scope="module")
def joint_toy():
    spec = MixtureSpec(n=30, m=15, sigma=0.1, seed=5)
    train, test, theta_hat, _ = gen_mixture(spec)
    return RidgeLeastSquares(1e-3), train, test, theta_hat


class TestJointFlow:
    @pytest.mark.parametrize("rate,value", [
        (rate, value) for rate in ("alpha", "beta")
        for value in (None, "1", -1.0, np.nan, np.inf, True)])
    def test_rejects_invalid_rate_naming_it(self, joint_toy, rate, value):
        model, train, test, _ = joint_toy
        with pytest.raises(ConfigError, match=rate):
            integrate_joint_flow(model, train, test, ModelParams(np.zeros(2)),
                                 SimplexWeights.uniform(train.n),
                                 FlowConfig(dt=1e-3, t_max=1.0),
                                 **{rate: value})

    def test_beta_zero_reduces_to_inner_gradient_flow(self, joint_toy):
        model, train, test, _ = joint_toy
        w0 = SimplexWeights.uniform(train.n)
        cfg = FlowConfig(dt=1e-3, t_max=20.0)
        trace = integrate_joint_flow(model, train, test,
                                     ModelParams(np.zeros(2)), w0, cfg,
                                     record_times=[20.0], beta=0.0)
        for r in trace.records:
            assert np.max(np.abs(r.w.values - w0.values)) <= 1e-12
        theta_star = closed_form_inner_quadratic(train, w0, model.mu)
        assert np.linalg.norm(trace.final.theta - theta_star.theta) <= 1e-6

    def test_alpha_zero_reduces_to_frozen_mirror_flow(self, joint_toy):
        model, train, test, _ = joint_toy
        theta0 = ModelParams(np.array([0.3, -0.2]))
        w0 = SimplexWeights.uniform(train.n)
        cfg = FlowConfig(dt=1e-3, t_max=1.0)
        joint = integrate_joint_flow(model, train, test, theta0, w0, cfg,
                                     record_times=[1.0], alpha=0.0)
        assert np.allclose(joint.final.theta, theta0.theta)
        field = frozen_field(model, train, test, theta0)
        mirror = integrate_mirror_flow(field, w0, cfg, record_times=[1.0])
        assert np.max(np.abs(joint.final.w.values
                             - mirror.final.w.values)) <= 1e-8

    def test_rejects_both_rates_zero(self, joint_toy):
        model, train, test, _ = joint_toy
        with pytest.raises(ValueError):
            integrate_joint_flow(model, train, test, ModelParams(np.zeros(2)),
                                 SimplexWeights.uniform(train.n),
                                 FlowConfig(dt=1e-3, t_max=1.0), alpha=0.0,
                                 beta=0.0)

    def test_derivative_makes_one_train_and_one_test_pass(self, joint_toy,
                                                          monkeypatch):
        # one hypergrad_at call per derivative, which takes 2 passes, plus
        # 2 records of 2 passes each
        model, train, test, _ = joint_toy
        calls, derivs = [], []

        class CountingRidge(RidgeLeastSquares):
            def forward(self, theta, data):
                calls.append(1)
                return super().forward(theta, data)

        def counting_hypergrad_at(*args):
            derivs.append(1)
            return hypergrad_at(*args)

        monkeypatch.setattr(dynamics, "hypergrad_at", counting_hypergrad_at)
        integrate_joint_flow(CountingRidge(model.mu), train, test,
                             ModelParams(np.zeros(2)),
                             SimplexWeights.uniform(train.n),
                             FlowConfig(dt=0.1, t_max=1.0), record_times=[1.0])
        assert len(derivs) >= 13  # at least one DOP853 step
        assert len(calls) == 2 * len(derivs) + 4

    def test_adaptive_matches_fine_rk4(self, joint_toy):
        model, train, test, _ = joint_toy
        w0 = SimplexWeights.uniform(train.n)
        theta0 = ModelParams(np.zeros(2))
        cfg = FlowConfig(dt=1e-2, t_max=0.5, rtol=1e-10)
        trace = integrate_joint_flow(model, train, test, theta0, w0, cfg,
                                     record_times=[0.25, 0.5])

        def deriv(s):
            theta, w = ModelParams(s[:2]), SimplexWeights(softmax(s[2:]))
            return np.concatenate([
                -model.forward(theta.theta, train).gamma_T_apply(w.values),
                -hypergrad(model, train, test, theta, w)])

        states = [np.concatenate([theta0.theta, np.log(w0.values)])]
        for _ in range(2):  # RK4 steps of 1e-4 to t = 0.25, then to 0.5
            states.append(rk4(deriv, states[-1], 0.25, 2500))
        assert [r.k for r in trace.records] == [0.0, 0.25, 0.5]
        for rec, s in zip(trace.records, states):
            assert np.max(np.abs(rec.w.values - softmax(s[2:]))) <= 1e-7
            assert np.max(np.abs(rec.theta - s[:2])) <= 1e-7

    def test_theta_stays_bounded(self, joint_toy):
        model, train, test, _ = joint_toy
        cfg = FlowConfig(dt=1e-3, t_max=5.0)
        trace = integrate_joint_flow(model, train, test,
                                     ModelParams(np.zeros(2)),
                                     SimplexWeights.uniform(train.n), cfg,
                                     record_times=np.linspace(0.5, 5.0, 10))
        norms = [np.linalg.norm(r.theta) for r in trace.records]
        assert all(np.isfinite(norms))
        assert max(norms) <= 100.0


def ridge_instance(seed, n, scale, integer_features=False):
    """A ridge problem with mu = 0: n training samples with p = 2 features
    and 4 test samples, targets of size scale."""
    rng = np.random.default_rng(seed)
    X = (rng.integers(-3, 4, (n, 2)).astype(float) if integer_features
         else rng.standard_normal((n, 2)))
    train = Dataset(X, scale * rng.standard_normal(n))
    test = Dataset(rng.standard_normal((4, 2)), scale * rng.standard_normal(4))
    return RidgeLeastSquares(0.0), train, test


def assert_partial_trace(trace, grid):
    """A halted trace: a reason, and finite records on the simplex at the
    first grid times."""
    assert trace.halted
    assert 1 <= len(trace.records) < len(grid)
    assert [r.k for r in trace.records] == list(grid[:len(trace.records)])
    for r in trace.records:
        assert r.theta is None or np.all(np.isfinite(r.theta))
        assert np.all(r.w.values >= 0)
        assert abs(r.w.values.sum() - 1.0) <= 1e-12


class TestFlowsHalt:
    """With mu = 0 the inner Hessian is singular once the weights collapse
    below the design's rank. Both flows then stop, as the solvers do, with
    the records up to the last grid time reached and the reason, instead of
    raising; so does a flow whose step size underflows."""

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(3, 12),
           flow=st.sampled_from(["joint", "mirror"]))
    def test_collapse_halts_with_partial_trace(self, seed, n, flow):
        # beta (joint) or the first trial step (mirror) is scaled so that
        # the first step's second stage moves the log-weights apart by 2e3
        # times the gap between the two smallest hypergradient entries, and
        # every weight but one underflows to 0. The features are integers,
        # so the one-hot Gram x x^T is exact and its Cholesky factorization
        # meets an exact zero pivot: the halt is certain. A flow left to
        # itself can settle on a face of rank 2 and never collapse.
        model, train, test = ridge_instance(seed, n, 100.0, True)
        assume(np.linalg.matrix_rank(train.features) == 2)
        theta0, w0 = ModelParams(np.zeros(2)), SimplexWeights.uniform(n)
        psi = np.sort(hypergrad(model, train, test, theta0, w0))
        assume(psi[1] > psi[0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            if flow == "joint":
                cfg = FlowConfig(dt=1e-2, t_max=1.0)
                trace = integrate_joint_flow(
                    model, train, test, theta0, w0, cfg,
                    beta=1e4 / (1e-2 * (psi[1] - psi[0])))
            else:
                field = frozen_field(model, train, test, theta0)
                phi = np.sort(field(w0))
                assume(phi[1] > phi[0])
                dt = 1e4 / (phi[1] - phi[0])
                cfg = FlowConfig(dt=dt, t_max=10 * dt)
                trace = integrate_mirror_flow(field, w0, cfg)
        assert_partial_trace(trace, np.linspace(0.0, cfg.t_max, 501))
        assert "not positive definite" in trace.halted

    @pytest.mark.parametrize("seed, scale, beta, dt, rtol, reason, size", [
        # six samples with targets of size 100 and beta = 50: the first
        # step's stages collapse the weights
        (0, 100.0, 50.0, 1e-2, 1e-10, "not positive definite", 1),
        # from the uniform weights the flow collapses later; seed 59's
        # Hessian is refused at lambda_min / lambda_max = 4.8e-13, where the
        # flow would otherwise stiffen until its step size underflowed
        (33, 1.0, 200.0, 1e-3, 1e-6, "not positive definite", 173),
        (59, 1.0, 200.0, 1e-3, 1e-6, "not positive definite", 103)])
    def test_joint_flow_halts_on_six_samples(self, seed, scale, beta, dt, rtol,
                                             reason, size):
        model, train, test = ridge_instance(seed, 6, scale)
        cfg = FlowConfig(dt=dt, t_max=2.0, rtol=rtol)
        trace = integrate_joint_flow(model, train, test,
                                     ModelParams(np.zeros(2)),
                                     SimplexWeights.uniform(6), cfg,
                                     beta=beta)
        assert_partial_trace(trace, np.linspace(0.0, 2.0, 501))
        assert reason in trace.halted and len(trace.records) == size

    def test_mirror_flow_halts_on_six_samples(self):
        # the frozen field of the same six samples at theta*(w0)
        model, train, test = ridge_instance(0, 6, 100.0)
        w0 = SimplexWeights.uniform(6)
        field = frozen_field(model, train, test,
                             closed_form_inner_quadratic(train, w0))
        trace = integrate_mirror_flow(field, w0,
                                      FlowConfig(dt=1e-2, t_max=10.0))
        assert_partial_trace(trace, np.linspace(0.0, 10.0, 501))
        assert "not positive definite" in trace.halted

    def test_mirror_flow_halts_when_the_step_size_underflows(self):
        # stiffness 1e14: an explicit step must be shorter than 1e-12
        class Stiff:
            def __call__(self, w):
                return 1e14 * (w.values - 1.0 / w.n)

        trace = integrate_mirror_flow(Stiff(),
                                      SimplexWeights(np.array([0.2, 0.3, 0.5])),
                                      FlowConfig(dt=1e-2, t_max=1.0))
        assert_partial_trace(trace, np.linspace(0.0, 1.0, 501))
        assert "adaptive step size fell" in trace.halted

    @pytest.mark.parametrize("flow", ["joint", "mirror"])
    def test_nan_log_weights_halt(self, flow, joint_toy, monkeypatch):
        # a NaN hypergradient makes the next stage's log-weights NaN, and
        # the guard on them halts the flow after its first record
        model, train, test, _ = joint_toy
        w0 = SimplexWeights.uniform(train.n)
        cfg = FlowConfig(dt=1e-2, t_max=1.0)
        nan = np.full(train.n, np.nan)
        if flow == "mirror":
            trace = integrate_mirror_flow(lambda w: nan, w0, cfg)
        else:
            monkeypatch.setattr(dynamics, "hypergrad_at", lambda *args: nan)
            trace = integrate_joint_flow(model, train, test,
                                         ModelParams(np.zeros(2)), w0, cfg)
        assert_partial_trace(trace, np.linspace(0.0, 1.0, 501))
        assert trace.halted == "log-weights overflowed to a non-finite value"

    def test_overflowing_theta_halts_the_joint_flow(self, joint_toy):
        # alpha = 1e308 overflows theta's derivative, and the guard on the
        # next stage's theta halts the flow after its first record
        model, train, test, _ = joint_toy
        trace = integrate_joint_flow(model, train, test,
                                     ModelParams(np.zeros(2)),
                                     SimplexWeights.uniform(train.n),
                                     FlowConfig(dt=1e-2, t_max=1.0),
                                     alpha=1e308)
        assert_partial_trace(trace, np.linspace(0.0, 1.0, 501))
        assert trace.halted == ("model parameters overflowed to a non-finite "
                                "value")


class TestStationarity:
    def test_one_hot_is_stationary_for_any_field(self):
        field = FrozenField.ridge_like(4, 5, 3, 0.5)
        rep = is_stationary(SimplexWeights.one_hot(5, 2), field)
        assert rep.is_stationary
        assert rep.proportionality_residual == 0.0
        assert list(rep.support) == [2]

    def test_uniform_with_constant_field(self):
        rep = is_stationary(SimplexWeights.uniform(4),
                            ConstantField(np.full(4, 2.5)))
        assert rep.is_stationary

    def test_uniform_with_generic_field_is_not(self):
        field = FrozenField.ridge_like(5, 5, 3, 0.5)
        rep = is_stationary(SimplexWeights.uniform(5), field)
        assert not rep.is_stationary
        assert rep.proportionality_residual > 1e-3

    def test_omega_limit_is_stationary(self, sparse_limit):
        field, res = sparse_limit
        rep = is_stationary(res.w, field, tol=1e-6)
        assert rep.is_stationary
        assert rep.support.size <= 3  # at most p active weights

    def test_report_serializes(self, sparse_limit):
        field, res = sparse_limit
        rep = stability_check(res.w, field, tol=1e-6)
        d = rep.to_json_dict()
        assert d["is_stationary"] is True
        assert d["is_stable"] is True
        assert all(isinstance(pair, list) and len(pair) == 2
                   for pair in d["tangent_eigenvalues"])


class TestJacobians:
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 8),
           p=st.integers(1, 5), ridge=st.floats(0.1, 2.0), data=st.data())
    def test_analytic_matches_finite_difference(self, seed, n, p, ridge,
                                                data):
        field = FrozenField.ridge_like(seed, n, p, ridge)
        w = SimplexWeights.from_unnormalized(data.draw(st.lists(
            st.floats(0.2, 1.0), min_size=n, max_size=n)))
        Ja = field.jacobian(w)
        Jf = fd_jacobian(field, w)
        assert np.max(np.abs(Ja - Jf)) <= 1e-6 * (1 + np.abs(Ja).max())

    def test_constant_field_jacobian_is_zero(self):
        J = ConstantField(np.arange(4.0)).jacobian(SimplexWeights.uniform(4))
        assert np.array_equal(J, np.zeros((4, 4)))

    def test_analytic_mode_requires_frozen_field(self):
        # a field with no jacobian method is refused, not differenced,
        # whether w is stationary for it (one-hot) or not (uniform)
        for w in (SimplexWeights.one_hot(3, 1), SimplexWeights.uniform(3)):
            with pytest.raises(PreconditionError, match="no jacobian"):
                stability_check(w, lambda w: np.arange(3.0))


class TestStability:
    def test_sparse_limit_is_stable(self, sparse_limit):
        field, res = sparse_limit
        rep = stability_check(res.w, field, tol=1e-6)
        assert rep.is_stable
        assert np.all(rep.offsupport_margin > 0)
        assert np.all(rep.tangent_eigenvalues.real > 0)
        assert sparsity_certificate(res.w, field.gamma)[0]

    def test_non_stationary_point_gets_no_verdict(self):
        # is_stationary's report as it is, the Jacobian never evaluated
        frozen = FrozenField.ridge_like(5, 5, 3, 0.5)
        field = mock.Mock(wraps=frozen)
        w = SimplexWeights.uniform(5)
        rep = stability_check(w, field)
        assert rep.is_stationary is False
        assert rep.is_stable is None and rep.tangent_eigenvalues is None
        assert rep.to_json_dict() == is_stationary(w, frozen).to_json_dict()
        assert (field.call_count, field.jacobian.call_count) == (1, 0)

    def test_vertex_has_no_tangent_eigenvalues(self):
        field = FrozenField.ridge_like(42, 5, 3, 0.5)
        cfg = FlowConfig(dt=1e-2, t_max=300.0, stationarity_tol=1e-12)
        res = omega_limit(field, SimplexWeights.uniform(5), cfg)
        assert res.converged
        rep = stability_check(res.w, field, tol=1e-6)
        if rep.support.size == 1:
            assert rep.tangent_eigenvalues.size == 0
        assert rep.is_stable


class TestMembership:
    def test_wide_matrices_always_belong(self):
        # l <= p: full-row-rank Z has the ones vector in its range
        rng = np.random.default_rng(12)
        for l in (1, 2, 3):
            member, cert = membership_I(rng.standard_normal((l, 3)))
            assert member
            assert cert["kind"] == "ones"

    def test_ones_in_range(self):
        Z = np.array([[1.0, 0.0], [0.0, 1.0], [0.5, 0.5]])
        member, cert = membership_I(Z)
        assert member and cert["kind"] == "ones"

    def test_rank_deficient_tall_matrix(self):
        Z = np.array([[1.0, 1.0], [2.0, 2.0], [3.0, 3.0], [0.0, 0.0]])
        member, cert = membership_I(Z)
        assert member and cert["kind"] == "null"

    def test_generic_tall_matrix_fails(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            member, _ = membership_I(rng.standard_normal((5, 2)))
            assert not member

    def test_a_z_with_no_columns_is_refused(self):
        with pytest.raises(PreconditionError, match=r"^Z has no columns"):
            membership_I(np.zeros((3, 0)))
        with pytest.raises(PreconditionError, match=r"^Z has no columns"):
            sparsity_certificate(SimplexWeights.uniform(3), np.zeros((3, 0)))

    def test_sparsity_certificate_dichotomy(self, sparse_limit):
        field, res = sparse_limit
        member, _ = sparsity_certificate(res.w, field.gamma)
        assert member
        # a generic weight vector supported on all n > p samples fails
        rng = np.random.default_rng(14)
        w_full = SimplexWeights.from_unnormalized(rng.random(5) + 0.2)
        member_full, _ = sparsity_certificate(w_full, field.gamma)
        assert not member_full


class TestOmegaLimit:
    def test_converges_on_random_instances(self):
        for seed in (0, 1, 2):
            field = FrozenField.ridge_like(seed, 5, 3, 0.5)
            cfg = FlowConfig(dt=1e-2, t_max=300.0, stationarity_tol=1e-10)
            res = omega_limit(field, SimplexWeights.uniform(5), cfg)
            assert res.converged and not res.oscillating
            assert (res.w.values > 1e-8).sum() <= 3

    def test_one_hot_start_is_immediate(self):
        field = FrozenField.ridge_like(15, 5, 3, 0.5)
        res = omega_limit(field, SimplexWeights.one_hot(5, 1),
                          FlowConfig(dt=1e-2, t_max=10.0))
        assert res.converged and res.t == 0.0

    def test_nonconvergence_is_a_value(self):
        # constant field with distinct entries: the vertex is approached but
        # the per-checkpoint change cannot reach an extreme tolerance in time
        field = ConstantField(np.array([0.0, 1.0, 2.0]))
        cfg = FlowConfig(dt=1e-2, t_max=2.0, stationarity_tol=1e-15)
        res = omega_limit(field, SimplexWeights.uniform(3), cfg)
        assert isinstance(res, OmegaResult)
        assert not res.converged and not res.oscillating
        assert res.t == pytest.approx(2.0)
        assert len(res.checkpoint_changes) == 500

    def test_time_is_the_checkpoint_grid_time(self):
        field = ConstantField(np.array([0.0, 1.0, 2.0]))
        cfg = FlowConfig(dt=1e-2, t_max=2.0, stationarity_tol=1e-15)
        res = omega_limit(field, SimplexWeights.uniform(3), cfg)
        assert type(res.t) is float
        assert res.t == 2.0
        assert len(res.checkpoint_changes) == 500

    def test_detects_oscillation(self):
        # rotation generated in dual coordinates: w(t) is exactly periodic,
        # so checkpoints revisit earlier states without the change shrinking
        t1 = np.array([1.0, -1.0, 0.0]) / np.sqrt(2)
        t2 = np.array([1.0, 1.0, -2.0]) / np.sqrt(6)
        period = 0.8
        S = (2 * np.pi / period) * (np.outer(t1, t2) - np.outer(t2, t1))

        class LogRotField:
            def __call__(self, w):
                return S @ np.log(w.values)

        w0 = SimplexWeights.from_unnormalized(np.array([0.5, 0.3, 0.2]))
        cfg = FlowConfig(dt=1e-3, t_max=20.0, stationarity_tol=1e-10)
        res = omega_limit(LogRotField(), w0, cfg)
        assert res.oscillating and not res.converged
        assert res.t < 20.0


class TestSparseReference:
    def test_tracks_sparse_support_and_descends(self):
        spec = MixtureSpec(n=20, m=10, sigma=0.1, seed=21)
        train, test, _, _ = gen_mixture(spec)
        model = RidgeLeastSquares(1e-3)
        cfg = FlowConfig(dt=1e-3, t_max=1.0)
        omega_cfg = FlowConfig(dt=1e-2, t_max=100.0, stationarity_tol=1e-9)
        trace = integrate_sparse_reference(
            model, train, test, ModelParams(np.zeros(2)),
            SimplexWeights.uniform(train.n), cfg,
            record_times=[0.25, 0.5, 1.0], omega_cfg=omega_cfg)
        ks = [r.k for r in trace.records]
        assert ks == sorted(ks)
        # the held weights are sharply sparsified relative to uniform
        assert trace.final.support_size <= train.n // 2
        assert trace.final.entropy <= 1.0
        assert trace.final.outer_loss < trace.records[0].outer_loss

    def test_records_only_record_times_and_refreshes_on_schedule(
            self, monkeypatch):
        spec = MixtureSpec(n=10, m=5, sigma=0.1, seed=2)
        train, test, _, _ = gen_mixture(spec)
        refreshed = []

        def counting_omega_limit(*args, **kwargs):
            refreshed.append(1)
            return omega_limit(*args, **kwargs)

        monkeypatch.setattr(dynamics, "omega_limit", counting_omega_limit)
        trace = integrate_sparse_reference(
            RidgeLeastSquares(1e-3), train, test, ModelParams(np.zeros(2)),
            SimplexWeights.uniform(train.n), FlowConfig(dt=1e-2, t_max=0.1),
            record_times=[0.05, 0.1], refresh_dt=0.02,
            omega_cfg=FlowConfig(dt=5e-2, t_max=5.0, stationarity_tol=1e-2))
        assert [r.k for r in trace.records] == [0.0, 0.05, 0.1]
        # at t = 0, 0.02, 0.04, 0.06 and 0.08; not at the end
        assert len(refreshed) == 5

    def test_a_failed_refresh_halts_with_the_records_so_far(self,
                                                            monkeypatch):
        train, test, _, _ = gen_mixture(MixtureSpec(n=10, m=5, sigma=0.1,
                                                    seed=2))
        refreshed = []

        def failing_second_omega_limit(*args, **kwargs):
            refreshed.append(1)
            if len(refreshed) == 2:
                raise AssumptionViolationError(
                    "inner Hessian is not positive definite")
            return omega_limit(*args, **kwargs)

        monkeypatch.setattr(dynamics, "omega_limit",
                            failing_second_omega_limit)
        trace = integrate_sparse_reference(
            RidgeLeastSquares(1e-3), train, test, ModelParams(np.zeros(2)),
            SimplexWeights.uniform(train.n), FlowConfig(dt=1e-2, t_max=0.1),
            record_times=[0.05, 0.1], refresh_dt=0.06,
            omega_cfg=FlowConfig(dt=5e-2, t_max=5.0, stationarity_tol=1e-2))
        # the second refresh, at t = 0.06, ends the flow
        assert len(refreshed) == 2
        assert trace.halted == "inner Hessian is not positive definite"
        assert [r.k for r in trace.records] == [0.0, 0.05]
        for r in trace.records:
            assert np.all(np.isfinite(r.theta))
            assert r.extra["omega_converged"]

    def test_an_overflowing_theta_halts_naming_it(self, monkeypatch):
        # Gamma^T w = -sum_i w_i y_i x_i overflows at theta = 0 with targets
        # of 1e308 and features of 10; Omega is held at w0
        n = 4
        train = Dataset(np.full((n, 2), 10.0), np.full(n, 1e308))
        test = Dataset(np.ones((2, 2)), np.ones(2))
        w0 = SimplexWeights.uniform(n)
        monkeypatch.setattr(dynamics, "frozen_field", lambda *args: None)
        monkeypatch.setattr(dynamics, "omega_limit", lambda *args: OmegaResult(
            w0, True, False, 0.0, []))
        trace = integrate_sparse_reference(
            RidgeLeastSquares(1e-3), train, test, ModelParams(np.zeros(2)),
            w0, FlowConfig(dt=1e-2, t_max=0.1), record_times=[0.05, 0.1])
        assert trace.halted == ("model parameters overflowed to a non-finite "
                                "value")
        assert [r.k for r in trace.records] == [0.0]

    def test_refresh_acts_exactly_from_its_time(self, monkeypatch):
        # Omega_A on [0, 0.1), Omega_B after it: theta follows the closed-form
        # ridge gradient flow theta* + expm(-H t)(theta0 - theta*) piecewise
        train, test, _, _ = gen_mixture(MixtureSpec(n=20, m=10, sigma=0.1,
                                                    seed=4))
        model = RidgeLeastSquares(1e-3)
        omegas = [SimplexWeights.from_unnormalized(np.r_[1.0, 2.0, [0.0] * 18]),
                  SimplexWeights.from_unnormalized(np.r_[[0.0] * 17, 1, 1, 1])]
        results = [OmegaResult(omegas[0], True, False, 3.0, [1e-10]),
                   OmegaResult(omegas[1], True, False, 5.0, [2e-6])]
        monkeypatch.setattr(dynamics, "omega_limit",
                            lambda field, w0, cfg: results.pop(0))

        def closed_form(w, theta0, t):
            X = train.features
            H = X.T @ (w.values[:, None] * X) + model.mu * np.eye(2)
            star = closed_form_inner_quadratic(train, w, model.mu).theta
            return star + scipy.linalg.expm(-H * t) @ (theta0 - star)

        theta0 = np.array([0.4, -0.3])
        trace = integrate_sparse_reference(
            model, train, test, ModelParams(theta0),
            SimplexWeights.uniform(train.n),
            FlowConfig(dt=1e-3, t_max=0.15, rtol=1e-12),
            record_times=[0.099, 0.101, 0.15], refresh_dt=0.1)
        assert not results
        at_refresh = closed_form(omegas[0], theta0, 0.1)
        want = [theta0, closed_form(omegas[0], theta0, 0.099),
                closed_form(omegas[1], at_refresh, 0.001),
                closed_form(omegas[1], at_refresh, 0.05)]
        assert [r.k for r in trace.records] == [0.0, 0.099, 0.101, 0.15]
        for rec, theta, w in zip(trace.records, want, omegas[:1] * 2
                                 + omegas[1:] * 2):
            assert np.max(np.abs(rec.theta - theta)) <= 1e-8
            assert rec.w is w
        assert trace.records[1].extra == {
            "omega_converged": True, "omega_oscillating": False,
            "omega_t": 3.0, "omega_change": 1e-10}
        assert trace.records[3].extra == {
            "omega_converged": True, "omega_oscillating": False,
            "omega_t": 5.0, "omega_change": 2e-6}

    @pytest.mark.parametrize("oscillating, why", [
        (False, "by t_max"), (True, "(it oscillates)")])
    def test_an_unconverged_refresh_halts_naming_it(self, monkeypatch,
                                                    oscillating, why):
        # the reference holds limits only: Omega at t = 0.06 did not
        # converge, so the run ends with the records before it, and the
        # same at the first refresh, which has none to keep, raises
        train, test, _, _ = gen_mixture(MixtureSpec(n=10, m=5, sigma=0.1,
                                                    seed=2))
        w0 = SimplexWeights.uniform(train.n)
        unconverged = OmegaResult(w0, False, oscillating, 7.0, [1e-3])
        results = [OmegaResult(w0, True, False, 3.0, [1e-10]), unconverged]
        monkeypatch.setattr(dynamics, "omega_limit",
                            lambda field, w0, cfg: results.pop(0))

        def run():
            return integrate_sparse_reference(
                RidgeLeastSquares(1e-3), train, test, ModelParams(np.zeros(2)),
                w0, FlowConfig(dt=1e-2, t_max=0.1), record_times=[0.05, 0.1],
                refresh_dt=0.06)

        trace = run()
        assert not results
        assert trace.halted == ("Omega refreshed at t = 0.06 did not converge "
                                f"{why}")
        assert [r.k for r in trace.records] == [0.0, 0.05]
        assert all(r.extra["omega_converged"] for r in trace.records)
        results.append(unconverged)
        with pytest.raises(NoConvergenceError, match="^Omega refreshed at "
                           f"t = 0 did not converge {re.escape(why)}$"):
            run()

    def test_refresh_at_a_record_time_takes_no_extra_step(self, monkeypatch):
        # criterion 6's grid: k * 0.01 for k = 5, 10, 20, 25 lies one ulp
        # off a record time of linspace(0, 0.3, 7); each is merged into it,
        # so the 30 segments meet end to end and no two times are a
        # rounding error apart
        grids, refreshed = [], []
        path = dynamics._path

        def recording_path(deriv, y, grid, *args):
            grids.append(grid)
            return path(deriv, y, grid, *args)

        def held_omega_limit(field, w0, cfg):
            refreshed.append(1)
            return OmegaResult(w0, True, False, 0.0)

        monkeypatch.setattr(dynamics, "_path", recording_path)
        monkeypatch.setattr(dynamics, "omega_limit", held_omega_limit)
        train, test, _, _ = gen_mixture(MixtureSpec(n=20, m=10, sigma=0.1,
                                                    seed=0))
        dt = 1e-3
        trace = integrate_sparse_reference(
            RidgeLeastSquares(1e-4), train, test, ModelParams(np.zeros(2)),
            SimplexWeights.uniform(train.n), FlowConfig(dt=dt, t_max=0.3),
            record_times=np.linspace(0.0, 0.3, 7), refresh_dt=0.01)
        assert len(grids) == 30
        assert all(a[-1] == b[0] for a, b in zip(grids, grids[1:]))
        times = np.concatenate([grids[0][:1]] + [g[1:] for g in grids])
        assert np.all(np.diff(times) > 1e-9 * dt)
        # once at t = 0, then at k * 0.01 for k = 1 .. 29
        assert len(refreshed) == 1 + 29
        assert [r.k for r in trace.records] == list(np.linspace(0.0, 0.3, 7))


def _tolerance_calls():
    """name -> (argument, call of the public function with that argument):
    every tolerance a caller sets, each refused when NaN or nonpositive
    rather than answering as if the test had failed."""
    one_hot = SimplexWeights.one_hot(3, 0)
    field = ConstantField([1.0, 2.0, 3.0])
    gamma = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    train, test, _, _ = gen_mixture(MixtureSpec(n=10, m=5, sigma=0.1, seed=2))
    clf, _, _, _ = gen_corrupted(CorruptionSpec(
        n=40, classes=3, d=4, n_test=20, n_val=5, seed=1))
    logistic = RegularizedMultinomialLogistic(1e-2)
    uniform = SimplexWeights.uniform(train.n)
    return {
        "support": ("tol", lambda v: support(one_hot, v)),
        "is_stationary": ("tol", lambda v: is_stationary(one_hot, field, v)),
        "stability_check": ("tol",
                            lambda v: stability_check(one_hot, field, v)),
        "membership_I": ("tol", lambda v: membership_I(gamma, v)),
        "sparsity_certificate": ("tol", lambda v: sparsity_certificate(
            SimplexWeights.uniform(3), gamma, tol=v)),
        "sparsity_certificate-support_tol": (
            "support_tol", lambda v: sparsity_certificate(
                SimplexWeights.uniform(3), gamma, support_tol=v)),
        "integrate_sparse_reference": (
            "refresh_dt", lambda v: integrate_sparse_reference(
                RidgeLeastSquares(1e-3), train, test,
                ModelParams(np.zeros(2)), uniform,
                FlowConfig(dt=1e-2, t_max=0.1), refresh_dt=v)),
        "solve_inner": ("tol", lambda v: solve_inner(
            logistic, clf, SimplexWeights.uniform(clf.n),
            ModelParams(np.zeros(logistic.n_params(clf))), tol=v)),
    }


TOLERANCE_CALLS = _tolerance_calls()


@pytest.mark.parametrize("value", [float("nan"), 0.0, -1.0])
@pytest.mark.parametrize("name", sorted(TOLERANCE_CALLS))
def test_tolerance_must_be_positive_and_finite(name, value):
    arg, call = TOLERANCE_CALLS[name]
    with pytest.raises(ConfigError,
                       match=f"^{arg} must be positive and finite$"):
        call(value)
