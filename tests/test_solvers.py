import json
import sys
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bilevel_reweight import (
    ConfigError,
    CorruptionSpec,
    Dataset,
    MixtureSpec,
    ModelParams,
    NoConvergenceError,
    RegularizedMultinomialLogistic,
    RidgeLeastSquares,
    SimplexWeights,
    SingularDesignError,
    SolverConfig,
    closed_form_inner_quadratic,
    entropy,
    exact_bilevel,
    frozen_field,
    gen_corrupted,
    gen_mixture,
    hypergrad,
    integrate_mirror_flow,
    soba,
    softmax_reparam,
    solve_inner,
    warm_started,
)
from bilevel_reweight import losses
from bilevel_reweight.dynamics import FlowConfig
from bilevel_reweight.hypergrad import (
    _closed_form,
    _solve_hessian,
    hypergrad_at,
)
from bilevel_reweight.solvers import lambda_gradient, softmax_weights


@pytest.fixture(scope="module")
def toy():
    spec = MixtureSpec(n=60, m=30, sigma=0.1, seed=7)
    train, test, theta_hat, z = gen_mixture(spec)
    return RidgeLeastSquares(0.0), train, test, theta_hat, z


class TestSolveInner:
    def test_quadratic_uses_closed_form(self, toy):
        model, train, _, _, _ = toy
        rng = np.random.default_rng(0)
        w = SimplexWeights.from_unnormalized(rng.random(train.n) + 0.1)
        got = solve_inner(model, train, w, ModelParams(np.zeros(train.d)))
        exact = closed_form_inner_quadratic(train, w, model.mu)
        assert np.allclose(got.theta, exact.theta)

    def test_one_sample_ridge_hand_formula(self):
        d = np.array([1.0, 2.0, -1.0])
        y, mu = 2.0, 0.5
        model = RidgeLeastSquares(mu)
        model.is_quadratic = False  # force the gradient-descent path
        data = Dataset(d[None, :], np.array([y]))
        w = SimplexWeights.one_hot(1, 0)
        theta = solve_inner(model, data, w, ModelParams(np.zeros(3)), tol=1e-12)
        expected = y * d / (d @ d + mu)
        assert np.allclose(theta.theta, expected, atol=1e-10)

    def test_fixed_point_returns_immediately(self):
        rng = np.random.default_rng(1)
        model = RegularizedMultinomialLogistic(0.1)
        data = Dataset(rng.standard_normal((10, 3)), rng.integers(0, 3, 10),
                       "classification", n_classes=3)
        w = SimplexWeights.uniform(10)
        theta = solve_inner(model, data, w, ModelParams(np.zeros(9)), tol=1e-10)
        again = solve_inner(model, data, w, theta, tol=1e-10)
        assert np.array_equal(again.theta, theta.theta)

    def test_logistic_reaches_tolerance(self):
        rng = np.random.default_rng(2)
        model = RegularizedMultinomialLogistic(1e-2)
        data = Dataset(rng.standard_normal((20, 4)), rng.integers(0, 3, 20),
                       "classification", n_classes=3)
        w = SimplexWeights.uniform(20)
        theta = solve_inner(model, data, w, ModelParams(np.zeros(12)), tol=1e-8)
        assert np.linalg.norm(
            model.forward(theta.theta, data).gamma_T_apply(w.values)) <= 1e-8

    def test_newton_solve_takes_few_forward_passes(self):
        # the ratio-sweep clean oracle: n=800, C=10, d=20
        class Counted(RegularizedMultinomialLogistic):
            passes = 0

            def forward(self, theta, data):
                Counted.passes += 1
                return super().forward(theta, data)

        model = Counted(1e-2)
        train, clean, _, _ = gen_corrupted(CorruptionSpec(seed=0))
        w = SimplexWeights.from_unnormalized(clean.astype(float))
        theta0 = ModelParams(np.zeros(model.n_params(train)))
        theta = solve_inner(model, train, w, theta0, tol=1e-8)
        assert Counted.passes <= 12
        assert np.linalg.norm(
            model.forward(theta.theta, train).gamma_T_apply(w.values)) <= 1e-8
        tight = solve_inner(model, train, w, theta0, tol=1e-12)
        assert np.linalg.norm(
            model.forward(tight.theta, train).gamma_T_apply(w.values)) <= 1e-12

    def test_iteration_cap_raises_with_the_final_gradient_norm(self):
        rng = np.random.default_rng(3)
        model = RegularizedMultinomialLogistic(1e-2)
        data = Dataset(rng.standard_normal((20, 4)), rng.integers(0, 3, 20),
                       "classification", n_classes=3)
        w = SimplexWeights.uniform(20)
        with pytest.raises(NoConvergenceError,
                           match=r"gradient norm (\S+)") as exc:
            solve_inner(model, data, w, ModelParams(np.zeros(12)), tol=1e-8,
                        max_iter=1)
        final = float(exc.value.args[0].split("gradient norm ")[1].split()[0])
        start = np.linalg.norm(
            model.forward(np.zeros(12), data).gamma_T_apply(w.values))
        # one Newton step lowers the gradient norm but not to tol
        assert 1e-8 < final < start


class TestExactBilevel:
    def test_toy_mixture_discards_wrong_cluster(self, toy):
        model, train, test, theta_hat, z = toy
        cfg = SolverConfig(eta=0.2, iterations=1000, record_every=200)
        trace = exact_bilevel(model, train, test, SimplexWeights.uniform(train.n),
                              cfg)
        w = trace.final.w
        assert w.values[z == 2].sum() <= 0.05
        # mass spread broadly over the correct cluster, not collapsed
        n1 = int((z == 1).sum())
        assert trace.final.entropy >= 0.8 * np.log(n1)
        assert np.linalg.norm(trace.final.theta - theta_hat.theta) <= 0.05

    def test_eta_zero_keeps_weights(self, toy):
        model, train, test, _, _ = toy
        w0 = SimplexWeights.uniform(train.n)
        cfg = SolverConfig(eta=0.0, iterations=5)
        trace = exact_bilevel(model, train, test, w0, cfg)
        for r in trace.records:
            assert np.array_equal(r.w.values, w0.values)

    def test_stationary_start_stays_put(self):
        rng = np.random.default_rng(3)
        model = RidgeLeastSquares(0.0)
        train = Dataset(rng.standard_normal((10, 2)), rng.standard_normal(10))
        w0 = SimplexWeights.uniform(10)
        theta_star = closed_form_inner_quadratic(train, w0, 0.0)
        # test targets realized by theta*(w0): grad F vanishes there
        Xt = rng.standard_normal((6, 2))
        test = Dataset(Xt, Xt @ theta_star.theta)
        cfg = SolverConfig(eta=5.0, iterations=10)
        trace = exact_bilevel(model, train, test, w0, cfg)
        assert np.allclose(trace.final.w.values, w0.values, atol=1e-12)


    def test_builds_one_weighted_gram_per_step(self, monkeypatch):
        # the package attribute bilevel_reweight.hypergrad is the function
        hg_module = sys.modules["bilevel_reweight.hypergrad"]
        builds = []
        gram = losses._weighted_gram

        def counted(data, w):
            builds.append(w)
            return gram(data, w)

        monkeypatch.setattr(losses, "_weighted_gram", counted)
        monkeypatch.setattr(hg_module, "_weighted_gram", counted)
        train, test, _, _ = gen_mixture(MixtureSpec(n=200, m=50, seed=4))
        exact_bilevel(RidgeLeastSquares(1e-4), train, test,
                      SimplexWeights.uniform(train.n),
                      SolverConfig(eta=0.1, iterations=20, record_every=5))
        assert len(builds) == 21

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(6, 40),
           d=st.integers(1, 4), mu=st.sampled_from([0.0, 1e-4, 1.0]))
    def test_kept_factor_gives_the_fresh_hypergradient(self, seed, n, d, mu):
        rng = np.random.default_rng(seed)
        model = RidgeLeastSquares(mu)
        train = Dataset(rng.standard_normal((n, d)), rng.standard_normal(n))
        test = Dataset(rng.standard_normal((5, d)), rng.standard_normal(5))
        mass = rng.random(n) * (rng.random(n) < 0.7)
        mass[:d + 1] += 0.1  # full rank
        w = SimplexWeights.from_unnormalized(mass)
        theta, c = _closed_form(train, w.values, mu)
        kept = c.copy()
        tr, te = (model.forward(theta.theta, train),
                  model.forward(theta.theta, test))
        psi = hypergrad_at(tr, te, w, c)
        assert psi.tobytes() == hypergrad_at(tr, te, w).tobytes()
        assert c.tobytes() == kept.tobytes()


class TestWarmStarted:
    def test_large_ratio_gives_sparse_weights(self, toy):
        _, train, test, theta_hat, z = toy
        model = RidgeLeastSquares(1e-4)  # keep the Hessian invertible at collapse
        w0 = SimplexWeights.uniform(train.n)
        warm_cfg = SolverConfig(eta=0.1, rho=1e-4, iterations=600,
                                record_every=100)
        warm = warm_started(model, train, test, ModelParams(np.zeros(train.d)),
                            w0, warm_cfg)
        exact_cfg = SolverConfig(eta=0.2, iterations=500, record_every=100)
        exact = exact_bilevel(model, train, test, w0, exact_cfg)
        assert warm.final.support_size < train.n // 4
        assert (np.linalg.norm(warm.final.theta - theta_hat.theta)
                > np.linalg.norm(exact.final.theta - theta_hat.theta))

    def test_divergent_rho_halts_with_partial_trace(self):
        rng = np.random.default_rng(4)
        model = RidgeLeastSquares(0.0)
        train = Dataset(rng.standard_normal((8, 2)), 100 * rng.standard_normal(8))
        test = Dataset(rng.standard_normal((4, 2)), 100 * rng.standard_normal(4))
        cfg = SolverConfig(eta=0.0, rho=50.0, iterations=400, record_every=50)
        trace = warm_started(model, train, test, ModelParams(np.zeros(2)),
                             SimplexWeights.uniform(8), cfg)
        assert trace.halted is not None
        assert len(trace.records) >= 1
        for r in trace.records:
            assert np.all(np.isfinite(r.theta))

    def test_full_collapse_runs_on_at_the_vertex(self, toy):
        # once the weights sit on one vertex, further mirror steps keep them
        # there instead of underflowing
        _, train, test, _, _ = toy
        model = RidgeLeastSquares(1e-4)
        cfg = SolverConfig(eta=0.1, rho=1e-4, iterations=5000, record_every=100)
        trace = warm_started(model, train, test, ModelParams(np.zeros(2)),
                             SimplexWeights.uniform(train.n), cfg)
        assert trace.halted is None
        assert len(trace.records) == 51
        assert trace.final.support_size == 1
        vertex = trace.final.w.values
        assert np.count_nonzero(vertex) == 1
        collapsed = [r for r in trace.records if np.count_nonzero(r.w.values) == 1]
        assert len(collapsed) >= 2
        for r in collapsed:
            assert np.array_equal(r.w.values, vertex)

    def test_frozen_theta_matches_mirror_flow(self, toy):
        # rho = 0: the weight iterates discretize the frozen-field mirror flow
        model, train, test, _, _ = toy
        theta0 = ModelParams(np.array([0.5, -0.5]))
        field = frozen_field(model, train, test, theta0)
        w0 = SimplexWeights.uniform(train.n)
        T = 0.02
        flow = integrate_mirror_flow(field, w0, FlowConfig(dt=1e-5, t_max=T),
                                     record_times=[T])
        errs = []
        for eta in (2e-4, 1e-4):
            steps = int(round(T / eta))
            cfg = SolverConfig(eta=eta, rho=0.0, iterations=steps,
                               record_every=steps)
            tr = warm_started(model, train, test, theta0, w0, cfg)
            errs.append(np.max(np.abs(tr.final.w.values
                                      - flow.final.w.values)))
        assert errs[1] < errs[0]
        assert errs[1] < 1e-3

    def test_deterministic(self, toy):
        model, train, test, _, _ = toy
        cfg = SolverConfig(eta=0.05, rho=1e-3, iterations=100, record_every=10)
        w0 = SimplexWeights.uniform(train.n)
        t1 = warm_started(model, train, test, ModelParams(np.zeros(2)), w0, cfg)
        t2 = warm_started(model, train, test, ModelParams(np.zeros(2)), w0, cfg)
        for a, b in zip(t1.records, t2.records):
            assert np.array_equal(a.w.values, b.w.values)
            assert np.array_equal(a.theta, b.theta)


class TestSoba:
    def test_tracked_v_matches_hypergrad_when_started_exact(self, toy):
        model, train, test, _, _ = toy
        w0 = SimplexWeights.uniform(train.n)
        theta0 = closed_form_inner_quadratic(train, w0, model.mu)
        train_pass = model.forward(theta0.theta, train)
        v0 = _solve_hessian(train_pass, w0.values,
                            model.forward(theta0.theta, test).mean_fit_grad())
        cfg = SolverConfig(eta=1e-3, rho=1e-3, iterations=5, record_every=1)
        trace = soba(model, train, test, theta0, w0, v0, cfg)
        psi_true = hypergrad(model, train, test, theta0, w0)
        psi_hat = -(train_pass.sample_grads() @ v0)
        assert np.allclose(psi_hat, psi_true, atol=1e-8)
        assert len(trace.records) == 6

    def test_deterministic(self, toy):
        model, train, test, _, _ = toy
        cfg = SolverConfig(eta=0.1, rho=1e-2, iterations=50, record_every=10)
        w0 = SimplexWeights.uniform(train.n)
        args = (model, train, test, ModelParams(np.zeros(2)), w0, np.zeros(2), cfg)
        t1, t2 = soba(*args), soba(*args)
        for a, b in zip(t1.records, t2.records):
            assert np.array_equal(a.w.values, b.w.values)


class TestDivergentStepHalts:
    """A divergent theta step size makes every joint solver stop with a
    reason and a finite partial trace, and without numerical warnings."""

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(3, 12),
           solver=st.sampled_from(["warm", "soba", "softmax"]),
           eta=st.sampled_from([0.0, 0.05]))
    # SOBA moved all weight onto a sample with |x|^2 = 4.9e-4, where a
    # fixed rho = 1e3 is a stable step and theta converged
    @example(seed=9604, n=3, solver="soba", eta=0.05)
    def test_halts_with_reason(self, seed, n, solver, eta):
        rng = np.random.default_rng(seed)
        model = RidgeLeastSquares(1e-3)  # H stays positive definite
        train = Dataset(rng.standard_normal((n, 2)), 100 * rng.standard_normal(n))
        test = Dataset(rng.standard_normal((4, 2)), 100 * rng.standard_normal(4))
        # with d = 2, lambda_max(H(w)) >= sum_i w_i |x_i|^2 / 2 >=
        # min_i |x_i|^2 / 2 on every w, so rho lambda_max >= 200, far above
        # 2, wherever the weights go: theta grows geometrically
        rho = 400 / float(np.min(np.sum(train.features ** 2, axis=1)))
        cfg = SolverConfig(eta=eta, rho=rho, iterations=400, record_every=10)
        theta0, w0 = ModelParams(np.zeros(2)), SimplexWeights.uniform(n)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            if solver == "warm":
                trace = warm_started(model, train, test, theta0, w0, cfg)
            elif solver == "soba":
                trace = soba(model, train, test, theta0, w0, np.zeros(2), cfg)
            else:
                trace = softmax_reparam(model, train, test, theta0,
                                        np.zeros(n), cfg)
        assert trace.halted
        assert "non-finite" in trace.halted
        assert 1 <= len(trace.records) < 41
        for r in trace.records:
            assert np.all(np.isfinite(r.theta))
            assert abs(r.w.values.sum() - 1.0) <= 1e-12


def test_exact_bilevel_halts_on_non_finite_hypergradient(toy, monkeypatch):
    from bilevel_reweight import solvers

    model, train, test, _, _ = toy
    calls = []
    real = solvers.hypergrad_at

    def nan_on_third_call(*args, **kwargs):
        calls.append(1)
        psi = real(*args, **kwargs)
        return np.full_like(psi, np.nan) if len(calls) == 3 else psi

    monkeypatch.setattr(solvers, "hypergrad_at", nan_on_third_call)
    trace = exact_bilevel(model, train, test, SimplexWeights.uniform(train.n),
                          SolverConfig(eta=0.1, iterations=10, record_every=1))
    assert trace.halted and "finite" in trace.halted
    assert len(calls) == 3 and len(trace.records) == 3
    for r in trace.records:
        assert np.all(np.isfinite(r.theta))
        assert np.all(r.w.values >= 0)
        assert abs(r.w.values.sum() - 1.0) <= 1e-12


class TestWeightCollapseHalts:
    """With mu = 0 the inner Hessian is singular once the weights collapse
    below the design's rank. Every solver then stops with a reason and a
    finite partial trace instead of raising."""

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(3, 12),
           solver=st.sampled_from(["exact", "warm", "softmax"]))
    def test_halts_with_partial_trace(self, seed, n, solver):
        rng = np.random.default_rng(seed)
        model = RidgeLeastSquares(0.0)
        train = Dataset(rng.standard_normal((n, 2)), 100 * rng.standard_normal(n))
        test = Dataset(rng.standard_normal((4, 2)), 100 * rng.standard_normal(4))
        theta0, w0 = ModelParams(np.zeros(2)), SimplexWeights.uniform(n)
        cfg = SolverConfig(eta=0.05, rho=1e3, iterations=400, record_every=10)
        if solver == "exact":
            # one mirror step of this size puts the weights on a vertex: it
            # scales the gap between the two smallest hypergradient entries
            # to 1e3, so every weight but one underflows to 0. A fixed eta
            # can leave two weights on a face of rank 2, where theta and so
            # the hypergradient no longer depend on w and nothing collapses.
            psi = np.sort(hypergrad(model, train, test,
                                    closed_form_inner_quadratic(train, w0), w0))
            trace = exact_bilevel(model, train, test, w0,
                                  SolverConfig(eta=1e3 / (psi[1] - psi[0]),
                                               iterations=400, record_every=10))
        elif solver == "warm":
            trace = warm_started(model, train, test, theta0, w0, cfg)
        else:
            trace = softmax_reparam(model, train, test, theta0, np.zeros(n),
                                    cfg)
        assert trace.halted
        assert len(trace.records) >= 1
        for r in trace.records:
            assert np.all(np.isfinite(r.theta))
            assert np.all(r.w.values >= 0)
            assert abs(r.w.values.sum() - 1.0) <= 1e-12

    def test_exact_raises_when_the_start_is_singular(self):
        # nothing to trace yet: the inner solve at w0 itself fails
        model = RidgeLeastSquares(0.0)
        train = Dataset(np.array([[1.0, 2.0]]), np.array([1.0]))
        with pytest.raises(SingularDesignError):
            exact_bilevel(model, train, train, SimplexWeights.uniform(1),
                          SolverConfig(eta=0.1, iterations=5))


class TestSoftmaxReparam:
    def test_uniform_lambda_gives_uniform_weights(self):
        w = softmax_weights(np.zeros(7))
        assert np.allclose(w.values, 1.0 / 7)
        w2 = softmax_weights(np.full(7, 3.2))
        assert np.allclose(w2.values, 1.0 / 7)

    def test_chain_rule_matches_finite_differences(self, toy):
        model, train, test, _, _ = toy
        rng = np.random.default_rng(5)
        lam = 0.3 * rng.standard_normal(train.n)
        w = softmax_weights(lam)
        theta = closed_form_inner_quadratic(train, w, model.mu)
        psi = hypergrad(model, train, test, theta, w)
        grad = lambda_gradient(lam, psi)

        def h_of_lambda(l):
            wl = softmax_weights(l)
            th = closed_form_inner_quadratic(train, wl, model.mu)
            from bilevel_reweight import outer_loss
            return outer_loss(model, test, th)

        eps = 1e-6
        for j in rng.choice(train.n, size=10, replace=False):
            e = np.zeros(train.n)
            e[j] = eps
            fd = (h_of_lambda(lam + e) - h_of_lambda(lam - e)) / (2 * eps)
            assert abs(grad[j] - fd) <= 1e-5 * (1 + abs(fd))

    def test_entropy_decreases_on_toy_mixture(self, toy):
        model, train, test, _, _ = toy
        cfg = SolverConfig(eta=100.0, rho=1e-3, iterations=3000,
                           record_every=500)
        trace = softmax_reparam(model, train, test,
                                ModelParams(np.zeros(train.d)),
                                np.zeros(train.n), cfg)
        assert trace.records[0].entropy == pytest.approx(np.log(train.n))
        assert trace.final.entropy < trace.records[0].entropy


def _sigmoid_ld(lam):
    """sigmoid(lam) and exp(-lam) in long double."""
    e = np.exp(-np.asarray(lam, dtype=np.longdouble))
    return e, 1 / (1 + e)


def _centered(lam, psi):
    """psi - <w, psi> at w = softmax_weights(lam), as lambda_gradient forms
    it."""
    w = softmax_weights(lam).values
    return psi - w @ psi


@st.composite
def lambdas(draw, lo, hi, size=st.integers(1, 20)):
    return np.array(draw(st.lists(st.floats(lo, hi), min_size=1,
                                  max_size=draw(size))))


class TestLambdaGradient:
    """lambda_gradient forms sigmoid'(lam)/S as exp(-lam) s w, without the
    1 - s that rounds to 0 for lam >= 37."""

    @settings(max_examples=200, deadline=None)
    @given(lam=lambdas(-50.0, 1.0), seed=st.integers(0, 2**32 - 1))
    def test_agrees_with_s_one_minus_s_where_that_does_not_cancel(self, lam,
                                                                  seed):
        # 1 - s >= 0.26 here, so the old formula is accurate too
        psi = np.random.default_rng(seed).standard_normal(lam.size)
        s = 1 / (1 + np.exp(-lam))
        want = s * (1 - s) / s.sum() * _centered(lam, psi)
        np.testing.assert_allclose(lambda_gradient(lam, psi), want,
                                   rtol=1e-14, atol=0)

    @settings(max_examples=200, deadline=None)
    @given(lam=lambdas(-1e308, 1e308),
           psi_scale=st.floats(0.0, 1e6), seed=st.integers(0, 2**32 - 1))
    def test_is_finite_and_exactly_0_where_sigmoid_underflows(
            self, lam, psi_scale, seed):
        lam = np.append(lam, 0.0)  # keeps the sigmoids' sum positive
        psi = psi_scale * np.random.default_rng(seed).standard_normal(lam.size)
        with np.errstate(over="ignore"):
            s = 1 / (1 + np.exp(-lam))
        g = lambda_gradient(lam, psi)
        assert np.all(np.isfinite(g))
        assert np.all(g[s == 0] == 0)

    @settings(max_examples=200, deadline=None)
    @given(lam=lambdas(37.0, 600.0), mixed=lambdas(-30.0, 30.0),
           seed=st.integers(0, 2**32 - 1))
    def test_stays_nonzero_and_accurate_at_large_lambda(self, lam, mixed,
                                                        seed):
        lam = np.concatenate([lam, mixed])
        psi = np.random.default_rng(seed).integers(-5, 6, lam.size) * 1.0
        d = _centered(lam, psi)
        e, s = _sigmoid_ld(lam)
        want = e * s * s / s.sum() * d
        g = lambda_gradient(lam, psi)
        assert np.array_equal(g != 0, d != 0)
        assert np.all(np.abs(g - want) <= 1e-13 * np.abs(want))

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), eta=st.sampled_from([1.0, 100.0]),
           n_dead=st.integers(0, 20))
    def test_first_step_is_lambda0_minus_eta_lambda_gradient(self, toy, seed,
                                                             eta, n_dead):
        model, train, test, _, _ = toy
        rng = np.random.default_rng(seed)
        lam0 = 3 * rng.standard_normal(train.n)
        lam0[:n_dead] = -720.0  # weights exactly 0
        lam0[n_dead:n_dead + 3] = 40.0 + rng.random(3)
        theta0 = ModelParams(rng.standard_normal(train.d))
        cfg = SolverConfig(eta=eta, rho=1e-3, iterations=1)
        trace = softmax_reparam(model, train, test, theta0, lam0, cfg)
        psi0 = hypergrad(model, train, test, theta0, softmax_weights(lam0))
        lam1 = lam0 - eta * lambda_gradient(lam0, psi0)
        assert trace.halted is None
        assert trace.final.w.values.tobytes() == \
            softmax_weights(lam1).values.tobytes()

    def test_run_with_underflowed_sigmoids_keeps_those_weights_at_0(self,
                                                                    toy):
        # e s w would be inf * 0 = NaN there and halt the run as overflowed
        model, train, test, _, _ = toy
        lam0 = np.zeros(train.n)
        lam0[::4] = -720.0
        cfg = SolverConfig(eta=100.0, rho=1e-3, iterations=200,
                           record_every=50)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            trace = softmax_reparam(model, train, test,
                                    ModelParams(np.zeros(train.d)), lam0, cfg)
        assert trace.halted is None
        assert [r.k for r in trace.records] == [0, 50, 100, 150, 200]
        for r in trace.records:
            assert np.all(r.w.values[::4] == 0)
            assert np.all(r.w.values[1::4] > 0)

    def test_weights_of_very_negative_lambda_are_0_without_a_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            w = softmax_weights(np.array([-720.0, -1e300, 0.0]))
        assert w.values.tolist() == [0.0, 0.0, 1.0]


@pytest.mark.parametrize("field,value", [("eta", np.nan), ("rho", -1.0)])
def test_solver_config_rejects_invalid_value_naming_the_field(field, value):
    with pytest.raises(ValueError, match=field):
        SolverConfig(**{field: value})


@pytest.mark.parametrize("field,value", [
    (field, value)
    for field in ("eta", "rho", "iterations", "record_every")
    for value in (None, "1", 2.5, True)
    if value != 2.5 or field in ("iterations", "record_every")])
def test_solver_config_rejects_wrong_type_naming_the_field(field, value):
    with pytest.raises(ConfigError, match=field):
        SolverConfig(**{field: value})


def test_configs_accept_python_and_numpy_numbers():
    cfg = SolverConfig(eta=1, rho=np.float64(1e-3), iterations=np.int64(3),
                       record_every=np.int32(1))
    assert cfg.iterations == 3 and cfg.record_every == 1
    assert SolverConfig(eta=np.float32(0.5)).eta == 0.5
    assert FlowConfig(dt=np.float64(1e-2), t_max=1).t_max == 1


class TestFlowTrace:
    def test_weights_valid_and_indices_increase(self, toy):
        model, train, test, _, _ = toy
        cfg = SolverConfig(eta=0.05, rho=1e-3, iterations=60, record_every=7)
        trace = warm_started(model, train, test, ModelParams(np.zeros(2)),
                             SimplexWeights.uniform(train.n), cfg)
        ks = [r.k for r in trace.records]
        assert ks == sorted(set(ks))
        for r in trace.records:
            assert np.all(r.w.values >= 0)
            assert abs(r.w.values.sum() - 1.0) <= 1e-12

    def test_jsonl_export(self, toy, tmp_path):
        model, train, test, theta_hat, _ = toy
        cfg = SolverConfig(eta=0.05, rho=1e-3, iterations=10, record_every=5)
        trace = warm_started(model, train, test, ModelParams(np.zeros(2)),
                             SimplexWeights.uniform(train.n), cfg)
        path = tmp_path / "trace.jsonl"
        trace.to_jsonl(path, theta_ref=theta_hat)
        rows = [json.loads(line) for line in path.read_text().splitlines()]
        assert len(rows) == len(trace.records)
        for row, r in zip(rows, trace.records):
            assert list(row) == ["k", "inner_loss", "outer_loss", "entropy",
                                 "support_size", "theta_err", "w"]
            assert len(row["w"]) == train.n
            assert row["theta_err"] == np.linalg.norm(r.theta - theta_hat.theta)
        trace.to_jsonl(path)
        rows = [json.loads(line) for line in path.read_text().splitlines()]
        assert [row["theta_err"] for row in rows] == [None] * len(rows)

    def test_jsonl_writes_extra(self, toy, tmp_path):
        model, train, test, _, _ = toy
        cfg = SolverConfig(eta=0.05, rho=1e-3, iterations=4, record_every=2)
        trace = softmax_reparam(model, train, test, ModelParams(np.zeros(2)),
                                np.zeros(train.n), cfg)
        for r in trace.records:
            r.extra = {"k": r.k, "label": f"record {r.k}"}
        path = tmp_path / "trace.jsonl"
        trace.to_jsonl(path, include_weights=False)
        rows = [json.loads(line) for line in path.read_text().splitlines()]
        assert [row["extra"] for row in rows] == [r.extra for r in trace.records]
        assert all("w" not in row for row in rows)
