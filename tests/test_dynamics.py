import numpy as np
import pytest

from bilevel_reweight import (
    ConstantField,
    Dataset,
    ExactHypergradField,
    FlowConfig,
    FrozenField,
    MixtureSpec,
    ModelParams,
    NoConvergenceError,
    OmegaResult,
    PreconditionError,
    RidgeLeastSquares,
    SimplexWeights,
    TangentVector,
    closed_form_inner_quadratic,
    constant_field_solution,
    frozen_field,
    full_flow_jacobian,
    gen_mixture,
    integrate_joint_flow,
    integrate_mirror_flow,
    integrate_sparse_reference,
    is_stationary,
    jacobian_field,
    linearized_trajectory,
    membership_I,
    omega_limit,
    project_tangent,
    sparsity_certificate,
    stability_check,
)


def random_frozen_field(seed, n=5, p=3, ridge=0.5):
    rng = np.random.default_rng(seed)
    gamma = rng.standard_normal((n, p))
    us = rng.standard_normal((n, p))
    hess = np.einsum("ij,ik->ijk", us, us) + ridge * np.eye(p)[None]
    return FrozenField(gamma, hess, rng.standard_normal(p))


@pytest.fixture(scope="module")
def sparse_limit():
    # an instance whose mirror-flow limit keeps three active coordinates
    field = random_frozen_field(3)
    cfg = FlowConfig(dt=1e-2, t_max=300.0, stationarity_tol=1e-12)
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
        field = random_frozen_field(1)
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

    def test_whole_multiple_intervals_take_whole_step_counts(self):
        # the default grid's intervals are 4 dt up to rounding: 2000 RK4
        # steps of 4 field calls each, none added for a one-ulp excess
        calls = []

        class CountingField(ConstantField):
            def __call__(self, w):
                calls.append(1)
                return self.phi

        integrate_mirror_flow(CountingField(np.arange(5.0)),
                              SimplexWeights.uniform(5),
                              FlowConfig(dt=0.05, t_max=100.0))
        assert len(calls) == 8000

    def test_rk4_step_convergence_order(self):
        # halving dt should cut the error by at least 2^3 (RK4 gives 2^4)
        field = random_frozen_field(2)
        w0 = SimplexWeights.uniform(5)
        ref = integrate_mirror_flow(field, w0, FlowConfig(dt=1e-4, t_max=1.0),
                                    record_times=[1.0]).final.w.values
        errs = []
        for dt in (0.1, 0.05):
            got = integrate_mirror_flow(field, w0, FlowConfig(dt=dt, t_max=1.0),
                                        record_times=[1.0]).final.w.values
            errs.append(np.max(np.abs(got - ref)))
        assert errs[1] <= errs[0] / 8.0

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


class TestAdaptiveSteps:
    """FlowConfig.rtol switches the integrator to Dormand-Prince 5(4)."""

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
        field = random_frozen_field(2)
        w0 = SimplexWeights.uniform(5)
        ref = integrate_mirror_flow(field, w0, FlowConfig(dt=1e-4, t_max=1.0),
                                    record_times=[1.0]).final.w.values
        errs = []
        for rtol in (1e-6, 1e-8, 1e-10):
            got = integrate_mirror_flow(
                field, w0, FlowConfig(dt=1e-2, t_max=1.0, rtol=rtol),
                record_times=[1.0]).final.w.values
            errs.append(np.max(np.abs(got - ref)))
        assert errs[0] > errs[1] > errs[2]
        assert errs[2] <= 1e-10

    def test_lands_on_every_grid_time(self):
        field = random_frozen_field(3)
        times = np.sort(np.random.default_rng(1).uniform(0.0, 7.0, 9))
        trace = integrate_mirror_flow(
            field, SimplexWeights.uniform(5),
            FlowConfig(dt=0.3, t_max=7.0, rtol=1e-8), record_times=times)
        assert [r.k for r in trace.records] == [0.0] + list(times)

    def test_fewer_calls_than_rk4_on_the_frozen_flow_grid(self):
        # the RK4 grid of test_whole_multiple_intervals_take_whole_step_counts
        calls = []

        class CountingField(ConstantField):
            def __call__(self, w):
                calls.append(1)
                return self.phi

        integrate_mirror_flow(CountingField(np.arange(5.0)),
                              SimplexWeights.uniform(5),
                              FlowConfig(dt=0.05, t_max=100.0, rtol=1e-10))
        assert len(calls) < 8000

    def test_value_changed_between_grid_times_acts_on_next_interval(self):
        from bilevel_reweight import dynamics

        rate = [1.0]
        path = dynamics._path(lambda y: np.full_like(y, rate[0]), np.zeros(2),
                              np.array([0.0, 1.0, 2.0]), 0.1, rtol=1e-10)
        assert next(path)[0] == 0.0
        t, y = next(path)
        assert t == 1.0 and np.allclose(y, 1.0, rtol=0, atol=1e-14)
        rate[0] = -3.0
        t, y = next(path)
        assert t == 2.0 and np.allclose(y, -2.0, rtol=0, atol=1e-14)

    def test_nan_derivative_raises_instead_of_looping(self):
        from bilevel_reweight import dynamics

        path = dynamics._path(lambda y: np.full_like(y, np.nan), np.zeros(3),
                              np.array([0.0, 1.0]), 0.1, rtol=1e-8)
        with pytest.raises(NoConvergenceError, match="at t = 0.0"):
            list(path)

    @pytest.mark.parametrize("rtol", [0.0, -1e-8, np.inf, np.nan])
    def test_rejects_nonpositive_or_nonfinite_rtol(self, rtol):
        with pytest.raises(ValueError):
            FlowConfig(rtol=rtol)


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

    def test_derivative_makes_one_train_and_one_test_pass(self, joint_toy):
        # 10 RK4 steps: 40 derivatives of 2 passes each, plus 2 records of
        # 2 passes each
        model, train, test, _ = joint_toy
        calls = []

        class CountingRidge(RidgeLeastSquares):
            def forward(self, theta, data):
                calls.append(1)
                return super().forward(theta, data)

        integrate_joint_flow(CountingRidge(model.mu), train, test,
                             ModelParams(np.zeros(2)),
                             SimplexWeights.uniform(train.n),
                             FlowConfig(dt=0.1, t_max=1.0), record_times=[1.0])
        assert len(calls) == 84

    def test_adaptive_matches_fine_rk4(self, joint_toy):
        model, train, test, _ = joint_toy
        w0 = SimplexWeights.uniform(train.n)
        theta0 = ModelParams(np.zeros(2))
        traces = [integrate_joint_flow(model, train, test, theta0, w0,
                                       FlowConfig(dt=dt, t_max=0.5, rtol=rtol),
                                       record_times=[0.25, 0.5])
                  for dt, rtol in ((1e-4, None), (1e-2, 1e-10))]
        for a, b in zip(*(t.records for t in traces)):
            assert a.k == b.k
            assert np.max(np.abs(a.w.values - b.w.values)) <= 1e-7
            assert np.max(np.abs(a.theta - b.theta)) <= 1e-7

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
        field = random_frozen_field(4)
        rep = is_stationary(SimplexWeights.one_hot(5, 2), field)
        assert rep.is_stationary
        assert rep.proportionality_residual == 0.0
        assert list(rep.support) == [2]

    def test_uniform_with_constant_field(self):
        rep = is_stationary(SimplexWeights.uniform(4),
                            ConstantField(np.full(4, 2.5)))
        assert rep.is_stationary

    def test_uniform_with_generic_field_is_not(self):
        field = random_frozen_field(5)
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
        field = random_frozen_field(6)
        rng = np.random.default_rng(7)
        w = SimplexWeights.from_unnormalized(rng.random(5) + 0.2)
        Ja = jacobian_field(field, w, "analytic-frozen")
        Jf = jacobian_field(field, w, "finite-difference")
        assert np.max(np.abs(Ja - Jf)) <= 1e-6 * (1 + np.abs(Ja).max())

    def test_analytic_mode_requires_frozen_field(self):
        with pytest.raises(PreconditionError):
            jacobian_field(lambda w: w.values, SimplexWeights.uniform(3),
                           "analytic-frozen")

    def test_full_flow_jacobian_matches_fd(self):
        # D Phi for Phi(v) = (diag(v) - v v^T) phi(v) in raw coordinates
        field = random_frozen_field(8)
        rng = np.random.default_rng(9)
        w = SimplexWeights.from_unnormalized(rng.random(5) + 0.2)
        J = jacobian_field(field, w, "analytic-frozen")
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
        field = random_frozen_field(5)
        with pytest.raises(PreconditionError):
            stability_check(SimplexWeights.uniform(5), field)

    def test_vertex_has_no_tangent_eigenvalues(self):
        field = random_frozen_field(42)
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

    def test_rejects_non_stationary_base_point(self):
        field = random_frozen_field(10)
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
            field = random_frozen_field(seed)
            cfg = FlowConfig(dt=1e-2, t_max=300.0, stationarity_tol=1e-10)
            res = omega_limit(field, SimplexWeights.uniform(5), cfg)
            assert res.converged and not res.oscillating
            assert (res.w.values > 1e-8).sum() <= 3

    def test_one_hot_start_is_immediate(self):
        field = random_frozen_field(15)
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
        train, test, theta_hat, _ = gen_mixture(spec)
        model = RidgeLeastSquares(1e-3)
        cfg = FlowConfig(dt=1e-3, t_max=1.0)
        omega_cfg = FlowConfig(dt=1e-2, t_max=100.0, stationarity_tol=1e-9)
        trace = integrate_sparse_reference(
            model, train, test, ModelParams(np.zeros(2)),
            SimplexWeights.uniform(train.n), cfg,
            record_times=[0.25, 0.5, 1.0], omega_cfg=omega_cfg,
            theta_ref=theta_hat)
        ks = [r.k for r in trace.records]
        assert ks == sorted(ks)
        # the held weights are sharply sparsified relative to uniform
        assert trace.final.support_size <= train.n // 2
        assert trace.final.entropy <= 1.0
        assert trace.final.outer_loss < trace.records[0].outer_loss

    def test_records_only_record_times_and_refreshes_on_schedule(
            self, monkeypatch):
        from bilevel_reweight import dynamics

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

    def test_refresh_at_a_record_time_takes_no_extra_step(self, monkeypatch):
        # criterion 6's grid: k * 0.01 for k = 5, 10, 20, 25 lies one ulp
        # off a record time of linspace(0, 0.3, 7); each is merged into it,
        # so the 6 record intervals take 50 steps each
        from bilevel_reweight import dynamics

        steps, refreshed = [], []
        rk4 = dynamics._rk4

        def counting_rk4(*args):
            steps.append(1)
            return rk4(*args)

        def held_omega_limit(field, w0, cfg):
            refreshed.append(1)
            return OmegaResult(w0, True, False, 0.0)

        monkeypatch.setattr(dynamics, "_rk4", counting_rk4)
        monkeypatch.setattr(dynamics, "omega_limit", held_omega_limit)
        train, test, _, _ = gen_mixture(MixtureSpec(n=20, m=10, sigma=0.1,
                                                    seed=0))
        trace = integrate_sparse_reference(
            RidgeLeastSquares(1e-4), train, test, ModelParams(np.zeros(2)),
            SimplexWeights.uniform(train.n), FlowConfig(dt=1e-3, t_max=0.3),
            record_times=np.linspace(0.0, 0.3, 7), refresh_dt=0.01)
        assert len(steps) == 300
        # once at t = 0, then at k * 0.01 for k = 1 .. 29
        assert len(refreshed) == 1 + 29
        assert [r.k for r in trace.records] == list(np.linspace(0.0, 0.3, 7))
