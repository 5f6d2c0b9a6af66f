"""End-to-end acceptance suite.

Each test exercises one headline claim at its stated tolerance and prints a
single PASS line (visible with -s) once its assertions hold. The whole suite
is deterministic.
"""

import numpy as np
import pytest

from bilevel_reweight import (
    ConstantField,
    CorruptionSpec,
    Dataset,
    ExactHypergradField,
    FlowConfig,
    FrozenField,
    MixtureSpec,
    ModelParams,
    RegularizedMultinomialLogistic,
    RidgeLeastSquares,
    SimplexWeights,
    SolverConfig,
    accuracy,
    closed_form_inner_quadratic,
    constant_field_solution,
    entropy,
    exact_bilevel,
    gen_corrupted,
    gen_mixture,
    hypergrad,
    importance_weights,
    integrate_joint_flow,
    integrate_mirror_flow,
    integrate_sparse_reference,
    membership_I,
    mirror_step,
    omega_limit,
    outer_loss,
    project_tangent,
    soba,
    softmax_reparam,
    solve_inner,
    value_function_fd,
    warm_started,
)
from bilevel_reweight.solvers import lambda_gradient, softmax_weights


def _report(num, text):
    print(f"[criterion {num:02d}] PASS: {text}")


def test_criterion_01_hypergradient_matches_fd_oracle():
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(20):
        model = RidgeLeastSquares(0.1)
        train = Dataset(rng.standard_normal((20, 3)), rng.standard_normal(20))
        test = Dataset(rng.standard_normal((10, 3)), rng.standard_normal(10))
        w = SimplexWeights.from_unnormalized(rng.random(20) + 0.2)
        theta = closed_form_inner_quadratic(train, w, model.mu)
        psi = hypergrad(model, train, test, theta, w)
        for _ in range(20):
            d = project_tangent(rng.standard_normal(20))
            fd = value_function_fd(model, train, test, w, d)
            rel = abs(psi @ d.values - fd) / (1 + abs(fd))
            worst = max(worst, rel)
            assert rel <= 1e-5
    _report(1, f"20 instances x 20 directions, worst relative error {worst:.2e}")


def test_criterion_02_constant_field_closed_form():
    rng = np.random.default_rng(1)
    w0 = SimplexWeights.from_unnormalized(rng.random(6) + 0.1)
    phi = rng.standard_normal(6)
    trace = integrate_mirror_flow(ConstantField(phi), w0,
                                  FlowConfig(dt=1e-3, t_max=10.0))
    sup = 0.0
    for rec in trace.records:
        exact = constant_field_solution(w0, phi, rec.k)
        sup = max(sup, float(np.max(np.abs(rec.w.values - exact.values))))
    assert sup <= 1e-4

    # the limit concentrates on argmin phi, proportionally to w0
    phi_tied = np.array([0.0, 0.0, 1.0, 2.0])
    w1 = SimplexWeights.from_unnormalized(rng.random(4) + 0.1)
    final = integrate_mirror_flow(ConstantField(phi_tied), w1,
                                  FlowConfig(dt=1e-3, t_max=40.0),
                                  record_times=[40.0]).final.w
    expected = np.zeros(4)
    expected[:2] = w1.values[:2] / w1.values[:2].sum()
    assert np.max(np.abs(final.values - expected)) <= 1e-6
    _report(2, f"sup-norm error {sup:.2e} over t in [0, 10]; "
               "limit is w0-proportional on argmin phi")


def test_criterion_03_membership_dichotomy():
    rng = np.random.default_rng(2)
    p = 3
    for l in (1, 2, 3):
        for _ in range(100):
            member, cert = membership_I(rng.standard_normal((l, p)))
            assert member and cert["kind"] == "ones"
            assert cert["residual"] <= 1e-8
    for l in (p + 1, p + 3):
        for _ in range(100):
            Z = rng.standard_normal((l, p))
            member, cert = membership_I(Z)
            assert not member
            assert cert["residual"] / np.sqrt(l) >= 1e-3
            svals = np.linalg.svd(Z, compute_uv=False)
            assert svals[-1] / svals[0] >= 1e-3
    _report(3, "100 Gaussian matrices per shape: l <= p always members, "
               "l in {p+1, p+3} never")


def test_criterion_04_sparse_stationary_supports():
    n, p = 50, 5
    converged = 0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        field = FrozenField.ridge_like(rng, n, p, 0.1)
        res = omega_limit(field, SimplexWeights.uniform(n),
                          FlowConfig(dt=1e-2, t_max=300.0,
                                     stationarity_tol=1e-9))
        if not res.converged:
            continue  # flagged, not counted
        converged += 1
        assert (res.w.values > 1e-6).sum() <= p
    assert converged >= 10  # the claim must be exercised on real limits
    _report(4, f"{converged}/20 instances converged, all with support <= {p}")


def test_criterion_05_fast_theta_regime():
    spec = MixtureSpec(n=60, m=30, sigma=0.1, seed=0)
    train, test, _, _ = gen_mixture(spec)
    model = RidgeLeastSquares(1e-4)
    T = 1.0
    w0 = SimplexWeights.uniform(train.n)
    t_grid = np.linspace(0.0, T, 21)
    oracle = ExactHypergradField(model, train, test)
    ref = integrate_mirror_flow(oracle, w0,
                                FlowConfig(dt=1e-3, t_max=T, rtol=1e-10),
                                record_times=t_grid)
    ref_w = np.stack([r.w.values for r in ref.records])
    theta_star = closed_form_inner_quadratic(train, w0, model.mu)
    gaps = []
    for beta in (1e-1, 1e-2, 1e-3):
        fcfg = FlowConfig(alpha=1.0, beta=beta, dt=1e-2, t_max=T / beta,
                          rtol=1e-10)
        tr = integrate_joint_flow(model, train, test, theta_star, w0, fcfg,
                                  record_times=t_grid / beta)
        ws = np.stack([r.w.values for r in tr.records])
        gaps.append(float(np.max(np.linalg.norm(ws - ref_w, axis=1))))
    assert gaps[0] > gaps[1] > gaps[2]
    assert gaps[2] <= 1e-2
    _report(5, "sup-gaps " + ", ".join(f"{g:.2e}" for g in gaps)
               + " for beta = 1e-1, 1e-2, 1e-3")


def test_criterion_06_fast_w_regime():
    spec = MixtureSpec(n=20, m=10, sigma=0.1, seed=0)
    train, test, _, _ = gen_mixture(spec)
    model = RidgeLeastSquares(1e-4)
    w0 = SimplexWeights.uniform(train.n)
    T = 0.3
    t_grid = np.linspace(0.0, T, 7)
    theta0 = ModelParams(np.zeros(2))
    omega_cfg = FlowConfig(dt=1e-2, t_max=1e3, stationarity_tol=1e-9,
                           rtol=1e-10)
    ref = integrate_sparse_reference(model, train, test, theta0, w0,
                                     FlowConfig(dt=1e-3, t_max=T, rtol=1e-10),
                                     record_times=t_grid, refresh_dt=0.01,
                                     omega_cfg=omega_cfg)
    # every Omega refresh behind a record reached its limit
    assert all(r.extra["omega_converged"] for r in ref.records)
    ref_theta = np.stack([r.theta for r in ref.records])
    gaps, final_supports = [], []
    for alpha in (1e-1, 1e-2, 1e-3):
        fcfg = FlowConfig(alpha=alpha, beta=1.0, dt=1e-2, t_max=T / alpha,
                          rtol=1e-10)
        tr = integrate_joint_flow(model, train, test, theta0, w0, fcfg,
                                  record_times=t_grid / alpha)
        ths = np.stack([r.theta for r in tr.records])
        gaps.append(float(np.max(np.linalg.norm(ths - ref_theta, axis=1))))
        final_supports.append(tr.final.support_size)
    assert gaps[0] > gaps[1] > gaps[2]
    # the limiting weights collapse to at most p = d active samples
    assert final_supports[-1] <= train.d
    _report(6, "sup-gaps " + ", ".join(f"{g:.2e}" for g in gaps)
               + f"; limiting support {final_supports[-1]} <= {train.d}")


def test_criterion_07_exact_vs_warm_on_toy_mixture():
    spec = MixtureSpec(seed=0)  # n = 500, m = 100, sigma = 0.1
    train, test, theta_hat, z = gen_mixture(spec)
    model = RidgeLeastSquares(1e-4)
    w0 = SimplexWeights.uniform(train.n)

    w_clean = SimplexWeights.from_unnormalized((z == 1).astype(float))
    theta_clean = closed_form_inner_quadratic(train, w_clean, model.mu)
    oracle_err = float(np.linalg.norm(theta_clean.theta - theta_hat.theta))

    ex = exact_bilevel(model, train, test, w0,
                       SolverConfig(eta=0.12, iterations=2000,
                                    record_every=500))
    ex_err = float(np.linalg.norm(ex.final.theta - theta_hat.theta))
    wrong_mass = float(ex.final.w.values[z == 2].sum())
    assert wrong_mass <= 0.05
    assert ex_err <= 3.0 * oracle_err

    # step-size ratio eta / rho = 10^3
    wm = warm_started(model, train, test, ModelParams(np.zeros(2)), w0,
                      SolverConfig(eta=0.05, rho=5e-5, iterations=1000,
                                   record_every=500))
    wm_err = float(np.linalg.norm(wm.final.theta - theta_hat.theta))
    assert wm.final.entropy < 0.2 * np.log(train.n)
    assert wm_err >= 2.0 * ex_err
    _report(7, f"exact: wrong-cluster mass {wrong_mass:.3f}, theta error "
               f"{ex_err / oracle_err:.2f}x oracle; warm: entropy "
               f"{wm.final.entropy:.2f} < {0.2 * np.log(train.n):.2f}, theta "
               f"error {wm_err / ex_err:.1f}x exact")


def test_criterion_08_step_size_ratio_sweep():
    spec = CorruptionSpec()  # n = 800, C = 10, p_c = 0.9
    train, clean_mask, test, val = gen_corrupted(spec)
    model = RegularizedMultinomialLogistic(1e-2)
    p = model.n_params(train)
    n = train.n

    w_clean = SimplexWeights.from_unnormalized(clean_mask.astype(float))
    theta_clean = solve_inner(model, train, w_clean, ModelParams(np.zeros(p)),
                              tol=1e-8)
    oracle_acc = accuracy(model, val, theta_clean)

    ratios = [1e-2, 1e-1, 1.0, 1e1, 1e2, 1e3, 1e4, 1e5]
    eta_max, rho_max = 1.0, 1e-2

    def run_one(r):
        eta = min(r * rho_max, eta_max)
        scfg = SolverConfig(eta=eta, rho=eta / r, iterations=4000,
                            record_every=4000)
        trace = soba(model, train, val, ModelParams(np.zeros(p)),
                     SimplexWeights.uniform(n), np.zeros(p), scfg)
        rec = trace.final
        return accuracy(model, val, ModelParams(rec.theta)), rec.entropy

    results = [run_one(r) for r in ratios]
    accs = [a for a, _ in results]
    ents = [e for _, e in results]

    in_band = [a >= 0.9 * oracle_acc
               and e >= 0.5 * (1 - spec.p_c) * np.log(n)
               for a, e in results]
    band_idx = [i for i, b in enumerate(in_band) if b]
    assert band_idx, "no ratio reaches the oracle band"
    assert band_idx == list(range(band_idx[0], band_idx[-1] + 1))
    # the largest ratio collapses the weights and loses accuracy
    assert ents[-1] <= 0.1 * np.log(n)
    assert accs[-1] < min(accs[i] for i in band_idx)
    _report(8, f"oracle accuracy {oracle_acc:.3f}; band at ratios "
               f"{[ratios[i] for i in band_idx]}; largest ratio collapses to "
               f"entropy {ents[-1]:.2f} with accuracy {accs[-1]:.3f}")


def test_criterion_09_importance_sampling_optimality():
    rng = np.random.default_rng(3)
    theta_true = np.array([1.0, -1.0, 2.0])
    # realizable atoms shared between train and test
    shared_x = np.vstack([np.eye(3), np.ones((1, 3))])
    shared_y = shared_x @ theta_true
    # off-distribution atoms, inconsistent with theta_true
    extra_x = rng.standard_normal((5, 3))
    extra_y = extra_x @ theta_true + rng.standard_normal(5)

    train_mult = [2, 1, 1, 3]
    Xtr = np.vstack([np.repeat(shared_x, train_mult, axis=0), extra_x])
    ytr = np.concatenate([np.repeat(shared_y, train_mult), extra_y])
    test_mult = [1, 2, 1, 1]
    Xte = np.repeat(shared_x, test_mult, axis=0)
    yte = np.repeat(shared_y, test_mult)
    train = Dataset(Xtr, ytr)
    test = Dataset(Xte, yte)
    model = RidgeLeastSquares(0.0)

    w_is = importance_weights(np.column_stack([Xtr, ytr]),
                              np.column_stack([Xte, yte]))

    def h(w):
        theta = closed_form_inner_quadratic(train, w, 0.0)
        return outer_loss(model, test, theta)

    h_is = h(w_is)
    assert h_is <= 1e-10
    for _ in range(200):
        w = SimplexWeights.from_unnormalized(rng.random(train.n) + 1e-3)
        assert h_is <= h(w) + 1e-12
    _report(9, f"h(importance weights) = {h_is:.2e}, minimal among 200 "
               "random simplex points")


def test_criterion_10_discretization_order():
    spec = MixtureSpec(n=30, m=15, sigma=0.1, seed=1)
    train, test, _, _ = gen_mixture(spec)
    model = RidgeLeastSquares(1e-4)
    w0 = SimplexWeights.uniform(train.n)
    theta0 = ModelParams(np.zeros(2))
    T = 0.5
    ref = integrate_joint_flow(model, train, test, theta0, w0,
                               FlowConfig(alpha=1.0, beta=1.0, dt=1e-4,
                                          t_max=T),
                               record_times=[T]).final
    errs = []
    for tau in (0.01, 0.005, 0.0025, 0.00125):
        K = int(round(T / tau))
        tr = warm_started(model, train, test, theta0, w0,
                          SolverConfig(eta=tau, rho=tau, iterations=K,
                                       record_every=K))
        errs.append(max(np.max(np.abs(tr.final.theta - ref.theta)),
                        np.max(np.abs(tr.final.w.values - ref.w.values))))
    orders = [np.log2(errs[i] / errs[i + 1]) for i in range(3)]
    assert all(e2 < e1 for e1, e2 in zip(errs[:-1], errs[1:]))
    assert all(o >= 0.9 for o in orders)
    _report(10, "errors " + ", ".join(f"{e:.2e}" for e in errs)
                + f"; empirical orders {[round(float(o), 2) for o in orders]}")


def test_criterion_11_softmax_reparameterization():
    spec = MixtureSpec(n=60, m=30, sigma=0.1, seed=7)
    train, test, _, _ = gen_mixture(spec)
    model = RidgeLeastSquares(1e-4)
    trace = softmax_reparam(model, train, test, ModelParams(np.zeros(2)),
                            np.zeros(train.n),
                            SolverConfig(eta=100.0, rho=1e-3, iterations=2000,
                                         record_every=500))
    assert trace.records[0].entropy == pytest.approx(np.log(train.n))
    assert trace.final.entropy < np.log(train.n)

    rng = np.random.default_rng(4)
    lam = 0.3 * rng.standard_normal(train.n)
    w = softmax_weights(lam)
    theta = closed_form_inner_quadratic(train, w, model.mu)
    grad = lambda_gradient(lam, hypergrad(model, train, test, theta, w))

    def h_of_lambda(l):
        th = closed_form_inner_quadratic(train, softmax_weights(l), model.mu)
        return outer_loss(model, test, th)

    eps = 1e-6
    for j in rng.choice(train.n, size=10, replace=False):
        e = np.zeros(train.n)
        e[j] = eps
        fd = (h_of_lambda(lam + e) - h_of_lambda(lam - e)) / (2 * eps)
        assert abs(grad[j] - fd) <= 1e-5 * (1 + abs(fd))
    _report(11, f"entropy {np.log(train.n):.2f} -> {trace.final.entropy:.2f}; "
                "lambda chain rule matches finite differences at 1e-5")


def test_criterion_12_randomized_invariants():
    rng = np.random.default_rng(5)
    for _ in range(10_000):
        n = int(rng.integers(2, 8))
        w = SimplexWeights.from_unnormalized(rng.random(n) + 1e-12)
        phi = rng.standard_normal(n) * 10.0 ** rng.integers(-2, 3)
        out = mirror_step(w, phi, float(10 ** rng.uniform(-3, 1)))
        assert np.all(out.values >= 0)
        assert abs(out.values.sum() - 1.0) <= 1e-12

    # simplex preservation across every solver and integrator
    spec = MixtureSpec(n=30, m=15, sigma=0.1, seed=2)
    train, test, _, _ = gen_mixture(spec)
    model = RidgeLeastSquares(1e-4)
    w0 = SimplexWeights.uniform(train.n)
    theta0 = ModelParams(np.zeros(2))
    scfg = SolverConfig(eta=0.05, rho=1e-3, iterations=50, record_every=5)
    traces = [
        exact_bilevel(model, train, test, w0, scfg),
        warm_started(model, train, test, theta0, w0, scfg),
        soba(model, train, test, theta0, w0, np.zeros(2), scfg),
        softmax_reparam(model, train, test, theta0, np.zeros(train.n), scfg),
        integrate_mirror_flow(FrozenField.ridge_like(6, 5, 3, 0.1),
                              SimplexWeights.uniform(5),
                              FlowConfig(dt=1e-2, t_max=5.0)),
        integrate_joint_flow(model, train, test, theta0, w0,
                             FlowConfig(dt=1e-2, t_max=1.0)),
    ]
    for trace in traces:
        for r in trace.records:
            assert np.all(r.w.values >= 0)
            assert abs(r.w.values.sum() - 1.0) <= 1e-12
    _report(12, "10^4 randomized mirror steps plus all solver/integrator "
                "traces stay on the simplex")
