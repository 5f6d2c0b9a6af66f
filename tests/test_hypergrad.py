import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bilevel_reweight import (
    AssumptionViolationError,
    Dataset,
    FrozenField,
    ModelParams,
    NoConvergenceError,
    RegularizedMultinomialLogistic,
    RidgeLeastSquares,
    SimplexWeights,
    SingularDesignError,
    StepTooLargeError,
    closed_form_inner_quadratic,
    frozen_field,
    hypergrad,
    project_tangent,
    solve_inner,
    value_function_fd,
)
from bilevel_reweight.hypergrad import _solve_cg, _solve_direct, _solve_hessian


def ridge_problem(rng, n=15, d=3, m=8, mu=0.2):
    model = RidgeLeastSquares(mu)
    train = Dataset(rng.standard_normal((n, d)), rng.standard_normal(n))
    test = Dataset(rng.standard_normal((m, d)), rng.standard_normal(m))
    return model, train, test


@pytest.mark.parametrize("mu", [np.nan, np.inf, -np.inf, -1.0])
@pytest.mark.parametrize("make", [
    RidgeLeastSquares, RegularizedMultinomialLogistic,
    lambda mu: closed_form_inner_quadratic(
        Dataset(np.eye(2), np.ones(2)), SimplexWeights.uniform(2), mu)],
    ids=["ridge", "logistic", "closed_form"])
def test_rejects_nan_infinite_or_negative_mu_naming_it(make, mu):
    with pytest.raises(ValueError, match="mu must be nonnegative and finite"):
        make(mu)


class TestSolveInnerSystem:
    def test_zero_rhs(self):
        rng = np.random.default_rng(0)
        model, train, _ = ridge_problem(rng)
        w = SimplexWeights.uniform(train.n)
        theta = ModelParams(rng.standard_normal(train.d))
        v = _solve_hessian(model.forward(theta.theta, train), w.values,
                           np.zeros(train.d))
        assert np.allclose(v, 0.0)

    def test_identity_hessian(self):
        # zero features and mu = 1 make the weighted Hessian the identity
        model = RidgeLeastSquares(1.0)
        train = Dataset(np.zeros((4, 3)), np.zeros(4))
        w = SimplexWeights.uniform(4)
        rhs = np.array([1.0, -2.0, 0.5])
        v = _solve_hessian(model.forward(np.zeros(3), train), w.values, rhs)
        assert np.allclose(v, rhs)

    def test_against_dense_factorization(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            model, train, _ = ridge_problem(rng, d=5)
            w = SimplexWeights.from_unnormalized(rng.random(train.n) + 0.1)
            theta = ModelParams(rng.standard_normal(5))
            rhs = rng.standard_normal(5)
            fp = model.forward(theta.theta, train)
            H = fp.hess(w.values)
            expected = np.linalg.solve(H, rhs)
            got = _solve_hessian(fp, w.values, rhs)
            assert np.allclose(got, expected, atol=1e-10)

    def test_cg_path_matches_direct(self):
        rng = np.random.default_rng(2)
        model, train, _ = ridge_problem(rng, n=30, d=6, mu=0.5)
        w = SimplexWeights.uniform(train.n)
        theta = ModelParams(rng.standard_normal(6))
        rhs = rng.standard_normal(6)
        fp = model.forward(theta.theta, train)
        direct = _solve_hessian(fp, w.values, rhs)
        cg = _solve_cg(lambda v: fp.hess_apply(w.values, v), rhs, 1e-12, 60)
        assert np.allclose(cg, direct, atol=1e-8)

    def test_cg_iteration_cap_raises_with_final_residual(self):
        # H = diag(1 .. 1e8) with ten distinct eigenvalues: five CG
        # iterations cannot reach the tolerance
        d = 10
        train = Dataset(np.diag(np.sqrt(d * np.logspace(0, 8, d))), np.zeros(d))
        model = RidgeLeastSquares(0.0)
        w = SimplexWeights.uniform(d)
        theta = ModelParams(np.zeros(d))
        fp = model.forward(theta.theta, train)
        hess_apply = lambda v: fp.hess_apply(w.values, v)
        with pytest.raises(NoConvergenceError,
                           match=r"final relative residual \d\.\d{3}e[+-]\d+"):
            _solve_cg(hess_apply, np.ones(d), 1e-10, 5)
        # with the cap of 10 p it converges to the exact solution
        v = _solve_cg(hess_apply, np.ones(d), 1e-10, 10 * d)
        assert np.allclose(v, 1.0 / np.logspace(0, 8, d), rtol=1e-6)

    @pytest.mark.parametrize("C,d", [(4, 16), (5, 13)])
    def test_cholesky_up_to_p_64_and_cg_above(self, C, d):
        rng = np.random.default_rng(C)
        n = 40
        train = Dataset(rng.standard_normal((n, d)), rng.integers(0, C, n),
                        "classification", n_classes=C)
        fp = RegularizedMultinomialLogistic(1e-2).forward(
            0.1 * rng.standard_normal(C * d), train)
        w = SimplexWeights.from_unnormalized(rng.random(n) + 0.1)
        rhs = rng.standard_normal(C * d)
        got = _solve_hessian(fp, w.values, rhs)
        if C * d == 64:
            want = _solve_direct(fp.hess(w.values), rhs)
        else:
            want = _solve_cg(lambda v: fp.hess_apply(w.values, v), rhs,
                             1e-10, 650)
        assert np.array_equal(got, want)

    def test_non_pd_hessian_signals(self):
        model = RidgeLeastSquares(0.0)
        train = Dataset(np.array([[1.0, 0.0]]), np.array([1.0]))
        w = SimplexWeights.one_hot(1, 0)
        with pytest.raises(AssumptionViolationError):
            _solve_hessian(model.forward(np.zeros(2), train), w.values,
                           np.ones(2))

    def test_one_hot_weights_with_two_features_always_signal(self):
        # the Gram of one sample has rank 1; rounding left Cholesky's last
        # pivot a tiny positive number on 22 of these 200 draws, and the
        # hypergradient came back near 1e16 instead of raising
        for seed in range(200):
            rng = np.random.default_rng(seed)
            train = Dataset(rng.standard_normal((5, 2)), rng.standard_normal(5))
            test = Dataset(rng.standard_normal((5, 2)), rng.standard_normal(5))
            with pytest.raises(AssumptionViolationError,
                               match="not positive definite"):
                hypergrad(RidgeLeastSquares(0.0), train, test,
                          ModelParams(np.zeros(2)), SimplexWeights.one_hot(5, 0))


class TestHypergrad:
    def test_zero_when_theta_minimizes_outer(self):
        rng = np.random.default_rng(3)
        model, train, test = ridge_problem(rng, m=10, mu=0.0)
        X, y = test.features, test.targets
        theta = ModelParams(np.linalg.solve(X.T @ X, X.T @ y))
        psi = hypergrad(model, train, test, theta, SimplexWeights.uniform(train.n))
        assert np.linalg.norm(psi) <= 1e-8

    def test_aligned_sample_gets_negative_hypergradient(self):
        # with H = I, a per-sample gradient equal to grad F gives
        # Psi_i = -||grad F||^2 < 0, i.e. the weight increases
        gF = np.array([1.0, -2.0, 0.5])
        gamma = np.vstack([gF, np.zeros(3)])
        hess = np.repeat(np.eye(3)[None], 2, axis=0)
        field = FrozenField(gamma, hess, gF)
        psi = field(SimplexWeights.uniform(2))
        assert psi[0] == pytest.approx(-(gF @ gF))

    def test_matches_fd_oracle_at_inner_optimum(self):
        rng = np.random.default_rng(4)
        model, train, test = ridge_problem(rng, mu=0.3)
        w = SimplexWeights.from_unnormalized(rng.random(train.n) + 0.2)
        theta = closed_form_inner_quadratic(train, w, model.mu)
        psi = hypergrad(model, train, test, theta, w)
        for _ in range(20):
            d = project_tangent(rng.standard_normal(train.n))
            fd = value_function_fd(model, train, test, w, d)
            assert abs(psi @ d.values - fd) <= 1e-6 * (1 + abs(fd))

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(5, 30),
           d=st.integers(1, 4), classes=st.integers(2, 4),
           mu=st.sampled_from([1e-2, 0.1, 1.0]))
    def test_logistic_matches_fd_oracle_at_inner_optimum(self, seed, n, d,
                                                        classes, mu):
        rng = np.random.default_rng(seed)
        model = RegularizedMultinomialLogistic(mu)
        train = Dataset(rng.standard_normal((n, d)),
                        rng.integers(0, classes, n), "classification",
                        n_classes=classes)
        test = Dataset(rng.standard_normal((10, d)),
                       rng.integers(0, classes, 10), "classification",
                       n_classes=classes)
        w = SimplexWeights.from_unnormalized(rng.random(n) + 0.2)
        theta = solve_inner(model, train, w,
                            ModelParams(np.zeros(classes * d)), tol=1e-12)
        psi = hypergrad(model, train, test, theta, w)
        for _ in range(5):
            direction = project_tangent(rng.standard_normal(n))
            fd = value_function_fd(model, train, test, w, direction)
            assert abs(psi @ direction.values - fd) <= 1e-5 * (1 + abs(fd))

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(5)
        model, train, test = ridge_problem(rng)
        w = SimplexWeights.from_unnormalized(rng.random(train.n) + 0.1)
        theta = ModelParams(rng.standard_normal(train.d))
        psi = hypergrad(model, train, test, theta, w)
        perm = rng.permutation(train.n)
        train_p = Dataset(train.features[perm], train.targets[perm])
        w_p = SimplexWeights(w.values[perm])
        psi_p = hypergrad(model, train_p, test, theta, w_p)
        assert np.allclose(psi_p, psi[perm], atol=1e-12)


class TestFrozenField:
    @pytest.mark.parametrize("kind", ["ridge", "logistic"])
    def test_one_pass_per_dataset_with_fresh_pass_bits(self, kind):
        rng = np.random.default_rng(13)
        base = RidgeLeastSquares if kind == "ridge" else \
            RegularizedMultinomialLogistic

        class Counted(base):
            passes = 0

            def forward(self, theta, data):
                Counted.passes += 1
                return super().forward(theta, data)

        model = Counted(0.1)
        X, Xt = rng.standard_normal((12, 3)), rng.standard_normal((6, 3))
        if kind == "ridge":
            train = Dataset(X, rng.standard_normal(12))
            test = Dataset(Xt, rng.standard_normal(6))
        else:
            train = Dataset(X, rng.integers(0, 3, 12), "classification",
                            n_classes=3)
            test = Dataset(Xt, rng.integers(0, 3, 6), "classification",
                           n_classes=3)
        theta0 = ModelParams(rng.standard_normal(model.n_params(train)))
        field = frozen_field(model, train, test, theta0)
        assert Counted.passes == 2
        # the same bits as a fresh pass per operator
        assert field.gamma.tobytes() == model.forward(
            theta0.theta, train).sample_grads().tobytes()
        assert field.sample_hessians.tobytes() == model.forward(
            theta0.theta, train).sample_hessians().tobytes()
        assert field.grad_outer.tobytes() == model.forward(
            theta0.theta, test).mean_fit_grad().tobytes()

    def test_constant_when_hessians_identical(self):
        # pure mu I per-sample Hessians: g(w) does not depend on w
        model = RidgeLeastSquares(1.0)
        rng = np.random.default_rng(6)
        train = Dataset(np.zeros((5, 3)), np.zeros(5))
        test = Dataset(rng.standard_normal((4, 3)), rng.standard_normal(4))
        theta0 = ModelParams(rng.standard_normal(3))
        field = frozen_field(model, train, test, theta0)
        vals = [field(SimplexWeights.from_unnormalized(rng.random(5) + 0.1))
                for _ in range(10)]
        for v in vals[1:]:
            assert np.allclose(v, vals[0], atol=1e-12)

    def test_equals_hypergrad_at_theta0(self):
        rng = np.random.default_rng(7)
        model, train, test = ridge_problem(rng, mu=0.1)
        theta0 = ModelParams(rng.standard_normal(train.d))
        field = frozen_field(model, train, test, theta0)
        for _ in range(100):
            w = SimplexWeights.from_unnormalized(rng.random(train.n) + 0.05)
            assert np.allclose(field(w),
                               hypergrad(model, train, test, theta0, w),
                               atol=1e-10)

    def test_random_low_dim_instance(self):
        rng = np.random.default_rng(8)
        n, p = 5, 3
        field = FrozenField.ridge_like(rng, n, p, 0.1)
        vals = [field(SimplexWeights.from_unnormalized(rng.random(n) + 0.1))
                for _ in range(5)]
        assert all(np.all(np.isfinite(v)) for v in vals)
        assert any(not np.allclose(v, vals[0]) for v in vals[1:])


class TestClosedFormInner:
    def test_rank_deficient_design_errors(self):
        train = Dataset(np.array([[1.0, 0.0]]), np.array([2.0]))
        with pytest.raises(SingularDesignError):
            closed_form_inner_quadratic(train, SimplexWeights.one_hot(1, 0), 0.0)

    def test_orthonormal_interpolation(self):
        train = Dataset(np.eye(3), np.array([1.0, -2.0, 0.5]))
        theta = closed_form_inner_quadratic(train, SimplexWeights.uniform(3), 0.0)
        assert np.allclose(train.features @ theta.theta, train.targets)

    def test_agrees_with_iterative_solve(self):
        rng = np.random.default_rng(9)
        model, train, _ = ridge_problem(rng, mu=0.4)
        w = SimplexWeights.from_unnormalized(rng.random(train.n) + 0.1)
        theta = closed_form_inner_quadratic(train, w, model.mu)
        # plain gradient-descent oracle run to tight tolerance
        t = np.zeros(train.d)
        H = model.forward(t, train).hess(w.values)
        step = 1.0 / np.linalg.eigvalsh(H).max()
        for _ in range(200_000):
            g = model.forward(t, train).gamma_T_apply(w.values)
            if np.linalg.norm(g) < 1e-12:
                break
            t -= step * g
        assert np.linalg.norm(t - theta.theta) <= 1e-8

    def test_inner_grad_vanishes(self):
        rng = np.random.default_rng(10)
        model, train, _ = ridge_problem(rng, mu=0.2)
        w = SimplexWeights.from_unnormalized(rng.random(train.n) + 0.1)
        theta = closed_form_inner_quadratic(train, w, model.mu)
        assert np.linalg.norm(
            model.forward(theta.theta, train).gamma_T_apply(w.values)) <= 1e-9


class TestValueFunctionFd:
    def test_zero_direction(self):
        rng = np.random.default_rng(11)
        model, train, test = ridge_problem(rng, mu=0.2)
        w = SimplexWeights.uniform(train.n)
        d = project_tangent(np.zeros(train.n))
        assert value_function_fd(model, train, test, w, d) == 0.0

    def test_second_order_convergence_in_eps(self):
        rng = np.random.default_rng(12)
        model, train, test = ridge_problem(rng, mu=0.3)
        w = SimplexWeights.from_unnormalized(rng.random(train.n) + 0.3)
        theta = closed_form_inner_quadratic(train, w, model.mu)
        psi = hypergrad(model, train, test, theta, w)
        d = project_tangent(rng.standard_normal(train.n))
        exact = psi @ d.values
        errs = []
        for eps in (1e-2, 5e-3, 2.5e-3):
            errs.append(abs(value_function_fd(model, train, test, w, d, eps)
                            - exact))
        # halving eps should divide the error by about 4
        assert errs[1] <= errs[0] / 2.5
        assert errs[2] <= errs[1] / 2.5

    def test_step_too_large(self):
        model = RidgeLeastSquares(0.2)
        train = Dataset(np.eye(2), np.ones(2))
        test = Dataset(np.eye(2), np.ones(2))
        w = SimplexWeights(np.array([0.999999, 1e-6]))
        d = project_tangent(np.array([1.0, -1.0]))
        with pytest.raises(StepTooLargeError):
            value_function_fd(model, train, test, w, d, eps=0.5)
