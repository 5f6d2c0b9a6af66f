import sys

import numpy as np
import pytest
import scipy.linalg

from bilevel_reweight import (
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
    TangentVector,
    closed_form_inner_quadratic,
    constant_field_solution,
    frozen_field,
    full_flow_jacobian,
    gen_corrupted,
    gen_mixture,
    hypergrad,
    hypergrad_at,
    integrate_joint_flow,
    integrate_mirror_flow,
    integrate_sparse_reference,
    is_stationary,
    jacobian_field,
    linearized_trajectory,
    membership_I,
    omega_limit,
    project_tangent,
    solve_inner,
    sparsity_certificate,
    stability_check,
)
from bilevel_reweight import dynamics, losses


def softmax(u):
    e = np.exp(u - u.max())
    return e / e.sum()


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
    """Dormand-Prince 5(4) steps under the tolerance FlowConfig.rtol."""

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

    def test_interior_grid_times_add_no_derivative_calls(self):
        # the steps are the controller's alone; grid times inside a step are
        # read off its dense output
        counts, values = [], []
        for n_times in (2, 1001):
            calls = []

            def deriv(y):
                calls.append(1)
                return -y

            grid = np.linspace(0.0, 10.0, n_times)
            values = list(dynamics._path(deriv, np.ones(1), grid, 0.1,
                                         rtol=1e-11))
            counts.append(len(calls))
        assert counts[0] == counts[1]
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
    ("alpha", np.nan), ("beta", np.nan), ("dt", np.nan),
    ("stationarity_tol", np.nan), ("t_max", np.inf), ("alpha", -1.0),
    ("stationarity_tol", np.inf)])
def test_flow_config_rejects_invalid_value_naming_the_field(field, value):
    with pytest.raises(ValueError, match=field):
        FlowConfig(**{field: value})


@pytest.mark.parametrize("field,value", [
    (field, value)
    for field in ("alpha", "beta", "dt", "t_max", "stationarity_tol", "rtol",
                  "oscillation_window")
    for value in (None, "1", 2.5)
    if value != 2.5 or field == "oscillation_window"])
def test_flow_config_rejects_wrong_type_naming_the_field(field, value):
    with pytest.raises(ConfigError, match=field):
        FlowConfig(**{field: value})


@pytest.fixture(scope="module")
def joint_toy():
    spec = MixtureSpec(n=30, m=15, sigma=0.1, seed=5)
    train, test, theta_hat, _ = gen_mixture(spec)
    return RidgeLeastSquares(1e-3), train, test, theta_hat


class TestJointFlow:
    def test_beta_zero_reduces_to_inner_gradient_flow(self, joint_toy):
        model, train, test, _ = joint_toy
        w0 = SimplexWeights.uniform(train.n)
        cfg = FlowConfig(alpha=1.0, beta=0.0, dt=1e-3, t_max=20.0)
        trace = integrate_joint_flow(model, train, test,
                                     ModelParams(np.zeros(2)), w0, cfg,
                                     record_times=[20.0])
        for r in trace.records:
            assert np.max(np.abs(r.w.values - w0.values)) <= 1e-12
        theta_star = closed_form_inner_quadratic(train, w0, model.mu)
        assert np.linalg.norm(trace.final.theta - theta_star.theta) <= 1e-6

    def test_alpha_zero_reduces_to_frozen_mirror_flow(self, joint_toy):
        model, train, test, _ = joint_toy
        theta0 = ModelParams(np.array([0.3, -0.2]))
        w0 = SimplexWeights.uniform(train.n)
        cfg = FlowConfig(alpha=0.0, beta=1.0, dt=1e-3, t_max=1.0)
        joint = integrate_joint_flow(model, train, test, theta0, w0, cfg,
                                     record_times=[1.0])
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
                                 FlowConfig(alpha=0.0, beta=0.0, dt=1e-3,
                                            t_max=1.0))

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
        assert len(derivs) >= 7  # at least one Dormand-Prince step
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
        cfg = FlowConfig(alpha=1.0, beta=1.0, dt=1e-3, t_max=5.0)
        trace = integrate_joint_flow(model, train, test,
                                     ModelParams(np.zeros(2)),
                                     SimplexWeights.uniform(train.n), cfg,
                                     record_times=np.linspace(0.5, 5.0, 10))
        norms = [np.linalg.norm(r.theta) for r in trace.records]
        assert all(np.isfinite(norms))
        assert max(norms) <= 100.0


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
    def test_analytic_matches_finite_difference(self):
        field = FrozenField.ridge_like(6, 5, 3, 0.5)
        rng = np.random.default_rng(7)
        w = SimplexWeights.from_unnormalized(rng.random(5) + 0.2)
        Ja = jacobian_field(field, w)
        Jf = dynamics._fd_jacobian(field, w)
        assert np.max(np.abs(Ja - Jf)) <= 1e-6 * (1 + np.abs(Ja).max())

    def test_analytic_mode_requires_frozen_field(self):
        # neither a FrozenField nor a field with eval_raw: refused
        with pytest.raises(PreconditionError):
            jacobian_field(lambda w: w.values, SimplexWeights.uniform(3))

    def test_other_fields_get_central_differences(self):
        # a FrozenField's eval_raw on a plain object is differentiated
        # numerically, column by column with step 1e-6, as is a ConstantField
        field = FrozenField.ridge_like(6, 5, 3, 0.5)

        class Wrapped:
            eval_raw = staticmethod(field.eval_raw)

        w = SimplexWeights.from_unnormalized(np.arange(1.0, 6.0))
        J = jacobian_field(Wrapped(), w)
        for j in range(5):
            e = np.zeros(5)
            e[j] = 1e-6
            assert np.array_equal(J[:, j], (field.eval_raw(w.values + e)
                                            - field.eval_raw(w.values - e))
                                  / (2 * 1e-6))
        assert np.array_equal(jacobian_field(ConstantField(np.ones(4)),
                                             SimplexWeights.uniform(4)),
                              np.zeros((4, 4)))

    def test_full_flow_jacobian_matches_fd(self):
        # D Phi for Phi(v) = (diag(v) - v v^T) phi(v) in raw coordinates
        field = FrozenField.ridge_like(8, 5, 3, 0.5)
        rng = np.random.default_rng(9)
        w = SimplexWeights.from_unnormalized(rng.random(5) + 0.2)
        J = jacobian_field(field, w)
        DPhi = full_flow_jacobian(w, field(w), J)

        def Phi(v):
            P = np.diag(v) - np.outer(v, v)
            return P @ field.eval_raw(v)

        eps = 1e-6
        fd = np.empty((5, 5))
        for j in range(5):
            e = np.zeros(5)
            e[j] = eps
            fd[:, j] = (Phi(w.values + e) - Phi(w.values - e)) / (2 * eps)
        assert np.max(np.abs(DPhi - fd)) <= 1e-5 * (1 + np.abs(DPhi).max())


class TestStability:
    def test_sparse_limit_is_stable(self, sparse_limit):
        field, res = sparse_limit
        rep = stability_check(res.w, field, tol=1e-6)
        assert rep.is_stable
        assert np.all(rep.offsupport_margin > 0)
        assert np.all(rep.tangent_eigenvalues.real > 0)
        assert rep.in_I_lp

    def test_rejects_non_stationary_point(self):
        field = FrozenField.ridge_like(5, 5, 3, 0.5)
        with pytest.raises(PreconditionError):
            stability_check(SimplexWeights.uniform(5), field)

    def test_vertex_has_no_tangent_eigenvalues(self):
        field = FrozenField.ridge_like(42, 5, 3, 0.5)
        cfg = FlowConfig(dt=1e-2, t_max=300.0, stationarity_tol=1e-12)
        res = omega_limit(field, SimplexWeights.uniform(5), cfg)
        assert res.converged
        rep = stability_check(res.w, field, tol=1e-6)
        if rep.support.size == 1:
            assert rep.tangent_eigenvalues.size == 0
        assert rep.is_stable


class TestLinearizedTrajectory:
    def test_constant_field_prediction_is_exact(self):
        # a constant field freezes the flow: prediction must return w* + delta
        w = SimplexWeights(np.array([0.5, 0.3, 0.2]))
        field = ConstantField(np.full(3, 1.7))
        delta = TangentVector(np.array([0.01, -0.005, -0.005]))
        pred = linearized_trajectory(w, delta, field, t=3.0)
        assert np.allclose(pred.values, w.values + delta.values, atol=1e-12)

    def test_first_order_accuracy(self, sparse_limit):
        field, res = sparse_limit
        supp = np.flatnonzero(res.w.values > 1e-8)
        reduced = FrozenField(field.gamma[supp], field.sample_hessians[supp],
                              field.grad_outer)
        wstar = SimplexWeights.from_unnormalized(res.w.values[supp])
        d0 = project_tangent(np.array([1.0, -0.3, -0.7])).values
        T = 0.5
        errs = []
        for eps in (2e-2, 1e-2):
            delta = TangentVector(eps * d0)
            pred = linearized_trajectory(wstar, delta, reduced, T, tol=1e-6)
            start = SimplexWeights(wstar.values + delta.values)
            true = integrate_mirror_flow(reduced, start,
                                         FlowConfig(dt=1e-4, t_max=T),
                                         record_times=[T]).final.w
            errs.append(np.max(np.abs(pred.values - true.values)))
        # quadratic in the perturbation size: halving eps quarters the error
        assert errs[1] <= errs[0] / 3.0

    def test_refuses_a_field_without_a_jacobian(self):
        # phi constant makes every point stationary; without eval_raw the
        # Jacobian is unknown, not zero
        w = SimplexWeights(np.array([0.5, 0.3, 0.2]))
        delta = TangentVector(np.array([0.01, -0.005, -0.005]))
        with pytest.raises(PreconditionError):
            linearized_trajectory(w, delta, lambda w: np.full(3, 1.7), 1.0)

    def test_rejects_non_stationary_base_point(self):
        field = FrozenField.ridge_like(10, 5, 3, 0.5)
        delta = TangentVector(np.zeros(5))
        with pytest.raises(PreconditionError):
            linearized_trajectory(SimplexWeights.uniform(5), delta, field, 1.0)


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
        res = omega_limit(field, SimplexWeights.uniform(3), cfg,
                          n_checkpoints=20)
        assert isinstance(res, OmegaResult)
        assert not res.converged and not res.oscillating
        assert res.t == pytest.approx(2.0)
        assert len(res.checkpoint_changes) == 20

    def test_time_is_the_checkpoint_grid_time(self):
        field = ConstantField(np.array([0.0, 1.0, 2.0]))
        cfg = FlowConfig(dt=1e-2, t_max=2.0, stationarity_tol=1e-15)
        res = omega_limit(field, SimplexWeights.uniform(3), cfg,
                          n_checkpoints=20)
        assert type(res.t) is float
        assert res.t == 2.0

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
        cfg = FlowConfig(dt=1e-3, t_max=20.0, stationarity_tol=1e-10,
                         oscillation_window=5)
        res = omega_limit(LogRotField(), w0, cfg, n_checkpoints=200)
        assert res.oscillating and not res.converged


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

    def test_refresh_acts_exactly_from_its_time(self, monkeypatch):
        # Omega_A on [0, 0.1), Omega_B after it: theta follows the closed-form
        # ridge gradient flow theta* + expm(-H t)(theta0 - theta*) piecewise
        train, test, _, _ = gen_mixture(MixtureSpec(n=20, m=10, sigma=0.1,
                                                    seed=4))
        model = RidgeLeastSquares(1e-3)
        omegas = [SimplexWeights.from_unnormalized(np.r_[1.0, 2.0, [0.0] * 18]),
                  SimplexWeights.from_unnormalized(np.r_[[0.0] * 17, 1, 1, 1])]
        results = [OmegaResult(omegas[0], True, False, 3.0, [1e-10]),
                   OmegaResult(omegas[1], False, False, 5.0, [2e-6])]
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
            "omega_converged": False, "omega_oscillating": False,
            "omega_t": 5.0, "omega_change": 2e-6}

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
