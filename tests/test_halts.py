"""Property tests of the halting paths: on data whose weighted Gram
overflows, every solver and flow returns a partial trace that names what
overflowed instead of crashing, or raises NumericOverflowError where the
work before its first record does, and conjugate gradients stops at the
first non-finite number it meets. The runs go without np.errstate: their
halting boundary turns NumPy's warnings off, and this suite makes a
RuntimeWarning an error."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bilevel_reweight import (
    ExactHypergradField,
    MixtureSpec,
    ModelParams,
    NumericOverflowError,
    RidgeLeastSquares,
    SimplexWeights,
    SolverConfig,
    closed_form_inner_quadratic,
    exact_bilevel,
    frozen_field,
    gen_mixture,
    integrate_joint_flow,
    integrate_mirror_flow,
    integrate_sparse_reference,
    omega_limit,
    soba,
    softmax_reparam,
    warm_started,
)
from bilevel_reweight.dynamics import FlowConfig
from bilevel_reweight.hypergrad import _solve_cg
from bilevel_reweight.losses import Dataset

SEEDS = st.integers(0, 2**32 - 1)
MODEL = RidgeLeastSquares(1e-4)
SOLVER = SolverConfig(eta=1.0, rho=1e-2, iterations=3)
FLOW = FlowConfig(dt=1e-2, t_max=0.1)
# the small configuration of the sparse reference's schedule test
OMEGA = FlowConfig(dt=5e-2, t_max=5.0, stationarity_tol=1e-2)


@st.composite
def overflowing_mixtures(draw):
    """A small ridge mixture with every feature scaled by 10^k, k in
    154-160, so that the weighted Gram sum_i w_i x_i x_i^T overflows."""
    n = draw(st.integers(8, 20))
    train, test, _, _ = gen_mixture(MixtureSpec(n=n, m=5, seed=draw(SEEDS)))
    scale = 10.0 ** draw(st.integers(154, 160))
    return (Dataset(train.features * scale, train.targets),
            Dataset(test.features * scale, test.targets))


def quietly(run, *args, **kwargs):
    """run(*args, **kwargs) with NumPy's overflow warnings off, as a run's
    halting boundary has them, for a call that returns a value, not a
    trace, and so keeps the warnings."""
    with np.errstate(over="ignore", invalid="ignore"):
        return run(*args, **kwargs)


def assert_halted_on_overflow(trace):
    assert len(trace.records) >= 1
    assert (trace.halted is None
            or trace.halted.endswith(" overflowed to a non-finite value"))


RUNS = {
    "exact_bilevel": lambda train, test, w0, theta0: exact_bilevel(
        MODEL, train, test, w0, SOLVER),
    "warm_started": lambda train, test, w0, theta0: warm_started(
        MODEL, train, test, theta0, w0, SOLVER),
    "soba": lambda train, test, w0, theta0: soba(
        MODEL, train, test, theta0, w0, np.zeros(theta0.theta.size), SOLVER),
    "softmax_reparam": lambda train, test, w0, theta0: softmax_reparam(
        MODEL, train, test, theta0, np.zeros(w0.n), SOLVER),
    "integrate_joint_flow": lambda train, test, w0, theta0:
        integrate_joint_flow(MODEL, train, test, theta0, w0, FLOW),
    "integrate_mirror_flow": lambda train, test, w0, theta0:
        integrate_mirror_flow(ExactHypergradField(MODEL, train, test), w0,
                              FLOW),
    "integrate_sparse_reference": lambda train, test, w0, theta0:
        integrate_sparse_reference(
            MODEL, train, test, theta0, w0, FLOW, record_times=[0.05, 0.1],
            refresh_dt=0.02, omega_cfg=OMEGA),
}

# The work a run does before its first record, where alone it may raise:
# exact_bilevel's inner solve at w0 and the sparse reference's first
# refresh. The other runs record at their start and never raise.
BEFORE_FIRST_RECORD = {
    "exact_bilevel": lambda train, test, w0, theta0:
        closed_form_inner_quadratic(train, w0, MODEL.mu),
    "integrate_sparse_reference": lambda train, test, w0, theta0:
        omega_limit(frozen_field(MODEL, train, test, theta0), w0, OMEGA),
}


@pytest.mark.parametrize("name", sorted(RUNS))
@settings(max_examples=25, deadline=None)
@given(data=overflowing_mixtures())
def test_run_halts_naming_what_overflowed(name, data):
    train, test = data
    start = (train, test, SimplexWeights.uniform(train.n),
             ModelParams(np.zeros(train.d)))
    try:
        trace = RUNS[name](*start)
    except NumericOverflowError:
        # before there is a record to keep
        with pytest.raises(NumericOverflowError):
            quietly(BEFORE_FIRST_RECORD.get(name, lambda *args: None), *start)
    else:
        assert_halted_on_overflow(trace)


def counting(operator):
    """operator, and the list that gets one entry per call of it."""
    calls = []

    def apply_H(v):
        calls.append(1)
        return operator(v)

    return apply_H, calls


@settings(max_examples=50, deadline=None)
@given(seed=SEEDS, p=st.integers(1, 80),
       bad=st.sampled_from([np.inf, -np.inf, np.nan]))
def test_cg_halts_on_the_first_non_finite_curvature(seed, p, bad):
    rng = np.random.default_rng(seed)
    rhs = rng.standard_normal(p)
    apply_H, calls = counting(lambda v: np.full(p, bad))
    with pytest.raises(NumericOverflowError,
                       match="^CG curvature overflowed to a non-finite"):
        quietly(_solve_cg, apply_H, rhs, 1e-10, 10 * p)  # p^T Hp: inf - inf
    assert len(calls) == 1


@settings(max_examples=50, deadline=None)
@given(seed=SEEDS, p=st.integers(1, 80),
       bad=st.sampled_from([np.inf, -np.inf, np.nan]))
def test_cg_refuses_a_non_finite_rhs_before_any_operator_call(seed, p, bad):
    rng = np.random.default_rng(seed)
    rhs = rng.standard_normal(p)
    rhs[rng.integers(p)] = bad
    apply_H, calls = counting(lambda v: v)
    with pytest.raises(NumericOverflowError,
                       match="^right-hand side overflowed to a non-finite"):
        _solve_cg(apply_H, rhs, 1e-10, 10 * p)
    assert calls == []
