"""Property tests: the structured per-sample operators of a forward pass
agree with the materialized gradient matrix Gamma and Hessian stack, and
the shared-product operator with the single operators bit for bit."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from bilevel_reweight import (
    Dataset,
    RegularizedMultinomialLogistic,
    RidgeLeastSquares,
    SimplexWeights,
)

RTOL = 1e-12


def assert_rel_close(got, want, terms):
    """got == want to RTOL relative to the norm of terms, the summed
    magnitudes |a| |b| of the products behind want: results that cancel
    may differ by more than RTOL of their own size when the two sides sum
    in different orders."""
    assert np.linalg.norm(got - want) <= RTOL * np.linalg.norm(terms)


@st.composite
def instances(draw, mus=(0.0, 1e-3, 0.5)):
    """A random small model, dataset, theta, weights w and direction v."""
    kind = draw(st.sampled_from(["ridge", "logistic"]))
    seed = draw(st.integers(0, 2**32 - 1))
    n = draw(st.integers(1, 25))
    d = draw(st.integers(1, 5))
    mu = draw(st.sampled_from(mus))
    scale = draw(st.sampled_from([0.1, 1.0, 5.0]))
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, d))
    if kind == "ridge":
        model, data = RidgeLeastSquares(mu), Dataset(X, rng.standard_normal(n))
    else:
        C = draw(st.integers(2, 4))
        model = RegularizedMultinomialLogistic(mu)
        data = Dataset(X, rng.integers(0, C, n), "classification", n_classes=C)
    p = model.n_params(data)
    theta = scale * rng.standard_normal(p)
    mass = rng.random(n) * (rng.random(n) < 0.7)  # some exact zeros
    mass[rng.integers(n)] += 0.1
    w = SimplexWeights.from_unnormalized(mass)
    return model, data, theta, w, rng.standard_normal(p)


@settings(max_examples=200, deadline=None)
@given(instances())
def test_gamma_apply_matches_gradient_matrix(inst):
    model, data, theta, _, v = inst
    fp = model.forward(theta, data)
    gamma = fp.sample_grads()
    terms = np.abs(gamma) @ np.abs(v)
    assert_rel_close(fp.gamma_apply(v), gamma @ v, terms)


@settings(max_examples=200, deadline=None)
@given(instances())
def test_gamma_T_apply_matches_gradient_matrix(inst):
    model, data, theta, w, _ = inst
    fp = model.forward(theta, data)
    gamma = fp.sample_grads()
    terms = np.abs(gamma).T @ w.values
    assert_rel_close(fp.gamma_T_apply(w.values), gamma.T @ w.values, terms)


@settings(max_examples=200, deadline=None)
@given(instances())
def test_weighted_hess_matches_sample_hessians(inst):
    model, data, theta, w, _ = inst
    fp = model.forward(theta, data)
    hessians = fp.sample_hessians()
    stack = np.einsum("i,ijk->jk", w.values, hessians)
    terms = np.einsum("i,ijk->jk", w.values, np.abs(hessians))
    assert_rel_close(fp.hess(w.values), stack, terms)


@settings(max_examples=200, deadline=None)
@given(instances())
def test_outer_grad_is_mean_of_fit_grads(inst):
    model, data, theta, _, _ = inst
    fp = model.forward(theta, data)
    fit_grads = fp.fit_grads()
    assert_rel_close(fp.mean_fit_grad(), fit_grads.mean(axis=0),
                     np.abs(fit_grads).mean(axis=0))


@settings(max_examples=200, deadline=None)
@given(instances())
def test_shared_product_equals_fresh_passes_bit_for_bit(inst):
    model, data, theta, w, v = inst
    gv, hv = model.forward(theta, data).gamma_hess_apply(w.values, v)
    assert gv.tobytes() == model.forward(theta, data).gamma_apply(v).tobytes()
    assert hv.tobytes() == model.forward(theta, data).hess_apply(
        w.values, v).tobytes()


@settings(max_examples=50, deadline=None)
@given(instances())
def test_v_changed_in_place_gets_a_fresh_product(inst):
    model, data, theta, w, v = inst
    fp = model.forward(theta, data)
    fp.gamma_hess_apply(w.values, v)
    v *= -3.0
    v[0] += 1.0
    gv, hv = fp.gamma_hess_apply(w.values, v)
    assert gv.tobytes() == model.forward(theta, data).gamma_apply(v).tobytes()
    assert hv.tobytes() == model.forward(theta, data).hess_apply(
        w.values, v).tobytes()


@settings(max_examples=200, deadline=None)
@given(instances(mus=(0.0,)))
def test_mu_0_skips_only_exact_zeros(inst):
    # each operator against its regularized formula with mu = 0.0, whose
    # terms the operators skip at mu = 0
    model, data, theta, w, v = inst
    fp = model.forward(theta, data)
    mu, wv = model.mu, w.values
    A = fp.fit_product(v)
    H = fp.fit_hess(wv)
    H.flat[::H.shape[0] + 1] += mu * wv.sum()
    for got, want in [
            (fp.sample_losses(),
             fp.fit_losses() + 0.5 * mu * float(theta @ theta)),
            (fp.gamma_apply(v), fp.fit_gamma_from(A) + mu * float(theta @ v)),
            (fp.hess_apply(wv, v),
             fp.fit_hess_from(wv, A) + (mu * wv.sum()) * v),
            (fp.gamma_T_apply(wv),
             fp.fit_gamma_T_apply(wv) + (mu * wv.sum()) * theta),
            (fp.hess(wv), H)]:
        assert got.tobytes() == want.tobytes()
