import numpy as np
import pytest

from bilevel_reweight import (
    Dataset,
    ModelParams,
    RegularizedMultinomialLogistic,
    RidgeLeastSquares,
    SimplexWeights,
    inner_loss,
    outer_loss,
)


def ridge_instance(rng, n=12, d=4, mu=0.2):
    X = rng.standard_normal((n, d))
    y = rng.standard_normal(n)
    return RidgeLeastSquares(mu), Dataset(X, y)


def logistic_instance(rng, n=10, d=3, C=3, mu=1e-2):
    X = rng.standard_normal((n, d))
    y = rng.integers(0, C, size=n)
    return (RegularizedMultinomialLogistic(mu),
            Dataset(X, y, "classification", n_classes=C))


def fd_grad(fun, x, eps=1e-6):
    g = np.zeros_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = eps
        g[i] = (fun(x + e) - fun(x - e)) / (2 * eps)
    return g


class TestInnerLoss:
    def test_one_hot_reduces_to_single_sample(self):
        rng = np.random.default_rng(0)
        model, data = ridge_instance(rng)
        theta = ModelParams(rng.standard_normal(data.d))
        w = SimplexWeights.one_hot(data.n, 3)
        expected = model.forward(theta.theta, data).sample_losses()[3]
        assert inner_loss(model, data, theta, w) == pytest.approx(expected)

    def test_uniform_is_empirical_risk(self):
        rng = np.random.default_rng(1)
        model, data = ridge_instance(rng)
        theta = ModelParams(rng.standard_normal(data.d))
        g = inner_loss(model, data, theta, SimplexWeights.uniform(data.n))
        assert g == pytest.approx(
            model.forward(theta.theta, data).sample_losses().mean())

    def test_ridge_at_zero(self):
        rng = np.random.default_rng(2)
        model, data = ridge_instance(rng, mu=0.0)
        w = SimplexWeights.from_unnormalized(rng.random(data.n))
        theta = ModelParams(np.zeros(data.d))
        expected = float(w.values @ (0.5 * data.targets**2))
        assert inner_loss(model, data, theta, w) == pytest.approx(expected)


class TestInnerGrad:
    @pytest.mark.parametrize("make", [ridge_instance, logistic_instance])
    def test_finite_differences(self, make):
        rng = np.random.default_rng(3)
        model, data = make(rng)
        p = model.n_params(data)
        theta = ModelParams(0.3 * rng.standard_normal(p))
        w = SimplexWeights.from_unnormalized(rng.random(data.n) + 0.1)
        g = model.forward(theta.theta, data).gamma_T_apply(w.values)
        fd = fd_grad(lambda t: inner_loss(model, data, ModelParams(t), w),
                     theta.theta)
        assert np.linalg.norm(g - fd) <= 1e-6 * (1 + np.linalg.norm(fd))

    def test_zero_at_normal_equations_solution(self):
        rng = np.random.default_rng(4)
        model, data = ridge_instance(rng, mu=0.3)
        w = SimplexWeights.from_unnormalized(rng.random(data.n) + 0.1)
        X, y = data.features, data.targets
        A = X.T @ (w.values[:, None] * X) + model.mu * np.eye(data.d)
        theta = ModelParams(np.linalg.solve(A, X.T @ (w.values * y)))
        assert np.linalg.norm(
            model.forward(theta.theta, data).gamma_T_apply(w.values)) <= 1e-10

    def test_linearity_in_weights(self):
        rng = np.random.default_rng(5)
        model, data = ridge_instance(rng)
        theta = ModelParams(rng.standard_normal(data.d))
        w1 = SimplexWeights.from_unnormalized(rng.random(data.n) + 0.1)
        w2 = SimplexWeights.from_unnormalized(rng.random(data.n) + 0.1)
        a = 0.3
        mix = SimplexWeights(a * w1.values + (1 - a) * w2.values)
        fp = model.forward(theta.theta, data)
        lhs = fp.gamma_T_apply(mix.values)
        rhs = (a * fp.gamma_T_apply(w1.values)
               + (1 - a) * fp.gamma_T_apply(w2.values))
        assert np.allclose(lhs, rhs)


class TestHessian:
    @pytest.mark.parametrize("make", [ridge_instance, logistic_instance])
    def test_apply_matches_explicit(self, make):
        rng = np.random.default_rng(6)
        model, data = make(rng)
        p = model.n_params(data)
        theta = ModelParams(0.2 * rng.standard_normal(p))
        w = SimplexWeights.from_unnormalized(rng.random(data.n) + 0.1)
        fp = model.forward(theta.theta, data)
        H = fp.hess(w.values)
        for _ in range(5):
            v = rng.standard_normal(p)
            assert np.allclose(fp.hess_apply(w.values, v), H @ v, atol=1e-10)

    def test_zero_vector(self):
        rng = np.random.default_rng(7)
        model, data = ridge_instance(rng)
        theta = ModelParams(rng.standard_normal(data.d))
        w = SimplexWeights.uniform(data.n)
        assert np.allclose(model.forward(theta.theta, data).hess_apply(
            w.values, np.zeros(data.d)), 0.0)

    def test_symmetry(self):
        rng = np.random.default_rng(8)
        model, data = logistic_instance(rng)
        p = model.n_params(data)
        theta = ModelParams(0.2 * rng.standard_normal(p))
        w = SimplexWeights.uniform(data.n)
        u, v = rng.standard_normal(p), rng.standard_normal(p)
        fp = model.forward(theta.theta, data)
        lhs = u @ fp.hess_apply(w.values, v)
        rhs = v @ fp.hess_apply(w.values, u)
        assert abs(lhs - rhs) <= 1e-10 * (1 + abs(lhs))

    def test_logistic_strong_convexity(self):
        rng = np.random.default_rng(9)
        model, data = logistic_instance(rng, mu=1e-2)
        p = model.n_params(data)
        theta = ModelParams(0.5 * rng.standard_normal(p))
        w = SimplexWeights.from_unnormalized(rng.random(data.n) + 0.1)
        fp = model.forward(theta.theta, data)
        for _ in range(20):
            v = rng.standard_normal(p)
            quad = v @ fp.hess_apply(w.values, v)
            assert quad >= model.mu * (v @ v) - 1e-12

    def test_per_sample_hessian_eigenvalue_floor(self):
        # Assumption: every per-sample Hessian has lambda_min >= mu
        rng = np.random.default_rng(10)
        for make, mu in [(ridge_instance, 0.2), (logistic_instance, 1e-2)]:
            model, data = make(rng, mu=mu)
            p = model.n_params(data)
            theta = ModelParams(0.3 * rng.standard_normal(p))
            hs = model.forward(theta.theta, data).sample_hessians()
            for H in hs:
                assert np.linalg.eigvalsh(H).min() >= mu - 1e-10


class TestGradientMatrix:
    def test_single_row(self):
        rng = np.random.default_rng(11)
        model, data = ridge_instance(rng, n=1)
        theta = ModelParams(rng.standard_normal(data.d))
        fp = model.forward(theta.theta, data)
        row = fp.sample_grads()[0]
        g = fp.gamma_T_apply(SimplexWeights.one_hot(1, 0).values)
        assert np.allclose(row, g)

    def test_transpose_action_equals_inner_grad(self):
        rng = np.random.default_rng(12)
        model, data = logistic_instance(rng)
        p = model.n_params(data)
        theta = ModelParams(0.2 * rng.standard_normal(p))
        fp = model.forward(theta.theta, data)
        for _ in range(5):
            w = SimplexWeights.from_unnormalized(rng.random(data.n) + 0.01)
            assert np.allclose(fp.sample_grads().T @ w.values,
                               fp.gamma_T_apply(w.values))

    def test_ridge_rows_at_zero(self):
        rng = np.random.default_rng(13)
        model, data = ridge_instance(rng, mu=0.0)
        rows = model.forward(np.zeros(data.d), data).sample_grads()
        expected = -data.targets[:, None] * data.features
        assert np.allclose(rows, expected)


class TestOuter:
    def test_single_test_sample(self):
        rng = np.random.default_rng(14)
        model, _ = ridge_instance(rng)
        test = Dataset(rng.standard_normal((1, 4)), rng.standard_normal(1))
        theta = ModelParams(rng.standard_normal(4))
        expected = model.forward(theta.theta, test).fit_losses()[0]
        assert outer_loss(model, test, theta) == pytest.approx(expected)

    def test_gradient_zero_at_minimizer(self):
        rng = np.random.default_rng(15)
        model = RidgeLeastSquares(0.0)
        test = Dataset(rng.standard_normal((20, 3)), rng.standard_normal(20))
        X, y = test.features, test.targets
        theta = ModelParams(np.linalg.solve(X.T @ X, X.T @ y))
        assert np.linalg.norm(
            model.forward(theta.theta, test).mean_fit_grad()) <= 1e-8

    def test_gradient_finite_differences(self):
        rng = np.random.default_rng(16)
        model, _ = logistic_instance(rng)
        test = Dataset(rng.standard_normal((15, 3)),
                       rng.integers(0, 3, 15), "classification", n_classes=3)
        theta = ModelParams(0.3 * rng.standard_normal(9))
        fd = fd_grad(lambda t: outer_loss(model, test, ModelParams(t)),
                     theta.theta)
        g = model.forward(theta.theta, test).mean_fit_grad()
        assert np.linalg.norm(g - fd) <= 1e-6 * (1 + np.linalg.norm(fd))


class TestStrongConvexity:
    def test_inner_objective_monotone_gradient(self):
        rng = np.random.default_rng(17)
        model, data = logistic_instance(rng, mu=0.05)
        p = model.n_params(data)
        w = SimplexWeights.from_unnormalized(rng.random(data.n) + 0.1)
        for _ in range(50):
            t1 = ModelParams(rng.standard_normal(p))
            t2 = ModelParams(rng.standard_normal(p))
            dg = (model.forward(t1.theta, data).gamma_T_apply(w.values)
                  - model.forward(t2.theta, data).gamma_T_apply(w.values))
            dt = t1.theta - t2.theta
            assert dg @ dt >= model.mu * (dt @ dt) - 1e-10


class TestDatasetValidation:
    def test_class_targets_out_of_range(self):
        with pytest.raises(ValueError):
            Dataset(np.zeros((2, 2)), [0, 5], "classification", n_classes=3)

    def test_nonfinite_features(self):
        with pytest.raises(ValueError):
            Dataset(np.array([[np.inf, 0.0]]), [1.0])


class TestDatasetOwnsItsArrays:
    def test_arrays_are_read_only_copies(self):
        X, y = np.arange(6.0).reshape(3, 2), np.zeros(3)
        data = Dataset(X, y)
        X[0, 0] = y[0] = 99.0
        assert data.features[0, 0] == data.features_T[0, 0] == 0.0
        assert data.targets[0] == 0.0
        for a in (data.features, data.features_T):
            with pytest.raises(ValueError, match="read-only"):
                a[0, 0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            data.targets[0] = 1.0

    @pytest.mark.parametrize("n", [1, 3, 7, 2000])
    def test_mean_weights_are_read_only_uniform(self, n):
        data = Dataset(np.zeros((n, 2)), np.zeros(n))
        assert data.mean_weights.tobytes() == np.full(n, 1.0 / n).tobytes()
        with pytest.raises(ValueError, match="read-only"):
            data.mean_weights[0] = 1.0

    @pytest.mark.parametrize("order", ["C", "F", "slice"])
    def test_features_T_is_the_contiguous_transpose(self, order):
        X = np.random.default_rng(0).standard_normal((7, 3))
        if order == "F":
            X = np.asfortranarray(X)
        elif order == "slice":
            X = np.repeat(X, 2, axis=0)[::2]
        data = Dataset(X, np.zeros(7))
        assert data.features_T.flags.c_contiguous
        assert np.array_equal(data.features_T, data.features.T)
        assert np.array_equal(data.features, X)


class TestLogisticFitLosses:
    def test_saturated_sample_keeps_its_loss(self):
        # P_y = exp(-800) underflows to 0; the loss is 800 + log(1 + e^-800)
        model = RegularizedMultinomialLogistic()
        data = Dataset(np.ones((1, 1)), [1], "classification", n_classes=2)
        loss = model.forward(np.array([0.0, -800.0]), data).fit_losses()
        assert loss[0] > 690
        assert loss[0] == pytest.approx(800.0, rel=1e-15)

    @pytest.mark.parametrize("seed", range(5))
    def test_equals_minus_log_p_away_from_saturation(self, seed):
        rng = np.random.default_rng(seed)
        model, data = logistic_instance(rng, n=40, d=3, C=4)
        fp = model.forward(0.5 * rng.standard_normal(12), data)
        expected = -np.log(fp.P[np.arange(data.n), data.targets])
        np.testing.assert_allclose(fp.fit_losses(), expected, rtol=1e-14,
                                   atol=0)
