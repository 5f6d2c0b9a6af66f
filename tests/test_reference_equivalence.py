"""Property tests: the direct LAPACK solve and the closed-form inner
minimizer give the bytes of scipy.linalg.cho_factor and cho_solve wherever
their one refusal rule, _factor_spd, accepts the system; that rule accepts
every system with lambda_min / lambda_max >= 1e-11 and refuses every exactly
singular Gram, which cho_factor may not. The weighted Gram, the logistic
residual, the mirror step, the one-pass simplex check, the finite guard, the
block dense output and the bulk mirror-flow records give the same bytes and
raise the same errors as the reference formulas they replace; so do the
frozen field, stability_check's tangent restriction and membership_I's
singular values, to rounding where the reference is another LAPACK call;
the DOP853 coefficients are SciPy's; weights built without the simplex check
pass it."""

import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, find, given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

from bilevel_reweight import (
    AssumptionViolationError,
    ConstantField,
    Dataset,
    FrozenField,
    ModelParams,
    NumericOverflowError,
    RegularizedMultinomialLogistic,
    RidgeLeastSquares,
    SimplexWeights,
    SingularDesignError,
    SolverConfig,
    closed_form_inner_quadratic,
    entropy,
    exact_bilevel,
    membership_I,
    mirror_step,
    preconditioner,
    softmax_reparam,
    solve_inner,
    stability_check,
    support,
)
from bilevel_reweight.dynamics import (
    _A,
    _A_DENSE,
    _B,
    _D,
    _E,
    _dense_output,
    _dual_records,
    _softmax,
)
from bilevel_reweight.hypergrad import _factor_spd, _solve_direct
from bilevel_reweight.losses import _weighted_gram
from bilevel_reweight.simplex import SUM_TOL, _all_finite

SEEDS = st.integers(0, 2**32 - 1)


def reference_solve(H, rhs):
    """scipy.linalg.cho_factor and cho_solve with their default checks."""
    try:
        c, low = scipy.linalg.cho_factor(H)
    except np.linalg.LinAlgError as exc:
        raise AssumptionViolationError(
            "inner Hessian is not positive definite") from exc
    return scipy.linalg.cho_solve((c, low), rhs)


def outcome(fn, *args):
    """(bytes of the result, None) or (None, (exception type, message))."""
    try:
        return fn(*args).tobytes(), None
    except (ValueError, AssumptionViolationError, SingularDesignError,
            NumericOverflowError) as exc:
        return None, (type(exc), str(exc))


class TestSolveDirect:
    @settings(max_examples=200, deadline=None)
    @given(seed=SEEDS, p=st.integers(1, 8), extra=st.integers(0, 6),
           scale=st.sampled_from([1e-6, 1.0, 1e6]))
    def test_equals_cho_factor_and_cho_solve_on_spd(self, seed, p, extra,
                                                    scale):
        rng = np.random.default_rng(seed)
        A = rng.standard_normal((p + extra, p))
        H = scale * (A.T @ A + 1e-3 * np.eye(p))
        rhs = rng.standard_normal(p)
        got = _solve_direct(H, rhs)
        assert got.tobytes() == reference_solve(H, rhs).tobytes()

    @settings(max_examples=200, deadline=None)
    @given(seed=SEEDS, p=st.integers(1, 8), kind=st.sampled_from(
        ["symmetric", "indefinite", "zero pivot", "rank deficient",
         "rank one"]))
    # a rank-2 Gram whose smallest squared pivot, 4.7e-12, is above 1e-12
    # times its largest diagonal entry; pocon estimates 1/cond at 8.8e-18
    @example(seed=300, p=3, kind="rank deficient")
    def test_rejects_what_cho_factor_rejects(self, seed, p, kind):
        rng = np.random.default_rng(seed)
        if kind == "symmetric":
            B = rng.standard_normal((p, p))
            H = B + B.T
        elif kind == "indefinite":
            Q, _ = np.linalg.qr(rng.standard_normal((p, p)))
            eig = rng.uniform(0.5, 2.0, p)
            eig[rng.integers(p)] = -0.5
            H = (Q * eig) @ Q.T
        elif kind == "zero pivot":
            A = rng.standard_normal((p + 2, p))
            H = A.T @ A
            k = rng.integers(p)
            H[k, :] = H[:, k] = 0.0
        elif kind == "rank deficient":
            A = rng.standard_normal((max(p - 1, 1), p))
            H = A.T @ A
        else:  # a Gram of one sample, entries of any size
            a = rng.standard_normal(p) * 10.0 ** rng.uniform(-100, 100, p)
            H = np.outer(a, a)
        rhs = rng.standard_normal(p)
        if kind in ("rank deficient", "rank one") and p > 1:
            # cho_factor accepts a singular H whose factor rounding left
            # positive pivots; _solve_direct refuses every one
            assert outcome(_solve_direct, H, rhs) == (None, (
                AssumptionViolationError,
                "inner Hessian is not positive definite"))
            return
        assert outcome(_solve_direct, H, rhs) == outcome(reference_solve, H,
                                                         rhs)
        if kind in ("indefinite", "zero pivot"):
            with pytest.raises(AssumptionViolationError,
                               match="not positive definite"):
                _solve_direct(H, rhs)

    @settings(max_examples=100, deadline=None)
    @given(seed=SEEDS, p=st.integers(1, 8),
           bad=st.sampled_from([np.nan, np.inf, -np.inf]),
           where=st.sampled_from(["H", "rhs"]))
    def test_non_finite_input_raises_the_same_value_error(self, seed, p, bad,
                                                          where):
        rng = np.random.default_rng(seed)
        A = rng.standard_normal((p + 1, p))
        H = A.T @ A + np.eye(p)
        rhs = rng.standard_normal(p)
        target = H if where == "H" else rhs
        target.flat[rng.integers(target.size)] = bad
        got = outcome(_solve_direct, H, rhs)
        assert got == outcome(reference_solve, H, rhs)
        assert got[1][0] is ValueError


def reference_closed_form(X, y, w, mu):
    """scipy.linalg.cho_factor and cho_solve on the ridge pass's H(w),
    A = X^T diag(w) X + mu sum(w) I."""
    A = X.T @ (w[:, None] * X)
    A[np.diag_indices_from(A)] += mu * w.sum()
    return scipy.linalg.cho_solve(scipy.linalg.cho_factor(A), X.T @ (w * y))


class TestFactorSpd:
    @settings(max_examples=300, deadline=None)
    @given(seed=SEEDS, p=st.integers(1, 8), log_scale=st.floats(-6.0, 6.0),
           log_cond=st.floats(0.0, 11.0))
    def test_accepts_every_condition_ratio_of_at_least_1e_11(
            self, seed, p, log_scale, log_cond):
        # A = scale Q diag(lambda) Q^T with lambda_min / lambda_max =
        # 10^-log_cond
        rng = np.random.default_rng(seed)
        Q, _ = np.linalg.qr(rng.standard_normal((p, p)))
        lam = 10.0 ** -rng.uniform(0.0, log_cond, p)
        lam[0], lam[-1] = 1.0, 10.0 ** -log_cond
        A = 10.0 ** log_scale * (Q * lam) @ Q.T
        assert _factor_spd(A) is not None

    @settings(max_examples=300, deadline=None)
    @given(seed=SEEDS, p=st.integers(2, 8),
           kind=st.sampled_from(["few samples", "duplicate column"]))
    def test_refuses_every_exactly_singular_gram(self, seed, p, kind):
        # mu = 0 and integer features of rank below p
        rng = np.random.default_rng(seed)
        n = rng.integers(1, p) if kind == "few samples" else rng.integers(
            p, 3 * p + 1)
        X = rng.integers(-3, 4, (n, p)).astype(float)
        if kind == "duplicate column":
            j, k = rng.choice(p, 2, replace=False)
            X[:, k] = X[:, j]
        w = SimplexWeights.from_unnormalized(rng.random(n) + 0.01)
        with pytest.raises(SingularDesignError, match="singular"):
            closed_form_inner_quadratic(Dataset(X, rng.standard_normal(n)), w,
                                        0.0)


class TestClosedForm:
    @settings(max_examples=200, deadline=None)
    @given(seed=SEEDS, d=st.integers(1, 8), n=st.integers(1, 30),
           mu=st.sampled_from([0.0, 1e-4, 1.0]),
           zeros=st.integers(0, 5), duplicate=st.booleans(),
           tilt=st.sampled_from([0.0, 1e-7, 1e-6, 1e-5, 1e-4]))
    def test_equals_cho_factor_and_cho_solve(self, seed, d, n, mu, zeros,
                                            duplicate, tilt):
        # a duplicated column tilted by t puts the smallest eigenvalue near
        # t^2, around the singularity threshold; a refused system has
        # lambda_min <= 1e-12 lambda_max
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((n, d))
        if duplicate and d > 1:
            X[:, -1] = X[:, 0] + tilt * rng.standard_normal(n)
        y = rng.standard_normal(n)
        w = rng.random(n)
        w[rng.permutation(n)[:min(zeros, n - 1)]] = 0.0
        w = SimplexWeights.from_unnormalized(w)
        try:
            got = closed_form_inner_quadratic(Dataset(X, y), w, mu).theta
        except SingularDesignError:
            A = X.T @ (w.values[:, None] * X) + mu * w.values.sum() * np.eye(d)
            lam = np.linalg.eigvalsh(A)
            assert lam[0] <= 1e-12 * lam[-1]
            return
        assert got.tobytes() == reference_closed_form(X, y, w.values,
                                                      mu).tobytes()


    def test_accepts_a_perfectly_conditioned_gram_whose_norm_bound_overflows(
            self):
        # A = 9.63e307 I plus 1/3 off the diagonal has condition number 1,
        # but p max A_ii overflows to inf
        X = np.array([[1.7e154, 0.0], [0.0, 1.7e154], [1.0, 1.0]])
        y, w = np.ones(3), SimplexWeights.uniform(3)
        got = closed_form_inner_quadratic(Dataset(X, y), w, 0.0).theta
        assert got.tobytes() == reference_closed_form(X, y, w.values,
                                                      0.0).tobytes()


def layout(X, kind):
    """X itself, an F-ordered copy, or a non-contiguous view of a larger
    array holding the same values."""
    if kind == "F":
        return np.asfortranarray(X)
    if kind == "slice":
        n, d = X.shape
        big = np.zeros((2 * n, d + 1))
        big[::2, 1:] = X
        return big[::2, 1:]
    return X


class TestWeightedGram:
    @settings(max_examples=200, deadline=None)
    @given(seed=SEEDS, n=st.integers(1, 3000), d=st.integers(1, 8),
           zero_share=st.sampled_from([0.0, 0.3, 1.0]),
           kind=st.sampled_from(["C", "F", "slice"]))
    def test_equals_the_broadcast_formula(self, seed, n, d, zero_share, kind):
        rng = np.random.default_rng(seed)
        X = layout(rng.standard_normal((n, d)), kind)
        w = rng.random(n)
        w[rng.random(n) < zero_share] = 0.0
        data = Dataset(X, np.zeros(n))
        # the dataset's own copy; NumPy's product on a strided view
        # rounds differently from the same product on contiguous data
        F = data.features
        assert np.array_equal(F, X)
        got = _weighted_gram(data, w)
        assert got.tobytes() == (F.T @ (w[:, None] * F)).tobytes()


class TestLogisticResidual:
    @settings(max_examples=200, deadline=None)
    @given(seed=SEEDS, n=st.integers(1, 300), d=st.integers(1, 6),
           C=st.integers(2, 12), scale=st.sampled_from([0.1, 1.0, 30.0, 1e3]))
    def test_equals_copy_and_subtract(self, seed, n, d, C, scale):
        rng = np.random.default_rng(seed)
        data = Dataset(rng.standard_normal((n, d)), rng.integers(0, C, n),
                       "classification", n_classes=C)
        theta = scale * rng.standard_normal(C * d)
        fp = RegularizedMultinomialLogistic().forward(theta, data)
        logits = theta.reshape(C, d) @ data.features_T
        logits -= logits.max(axis=0)
        e = np.exp(logits)
        P = e / e.sum(axis=0)
        R = P.copy()
        R[data.targets, np.arange(n)] -= 1.0
        assert fp.Pc.tobytes() == P.tobytes()
        assert fp.Rc.tobytes() == R.tobytes()


def reference_mirror_step(w, phi, eta):
    """The mirror step as a gather over the support and a scatter back."""
    phi = np.asarray(phi, dtype=float)
    if eta <= 0:
        raise ValueError("eta must be positive")
    if phi.shape != w.values.shape:
        raise ValueError("phi dimension mismatch")
    if not np.all(np.isfinite(phi)):
        raise NumericOverflowError("phi must be finite")
    on = w.values > 0
    tilde = np.zeros_like(w.values)
    with np.errstate(over="ignore", invalid="ignore"):
        z = eta * phi[on]
        tilde[on] = w.values[on] * np.exp(-(z - z.min()))
    s = tilde.sum()
    if not np.isfinite(s) or s <= 0:
        raise NumericOverflowError(
            "mirror step produced a degenerate update; rescale eta"
        )
    return SimplexWeights(tilde / s).values


@st.composite
def mirror_inputs(draw):
    rng = np.random.default_rng(draw(SEEDS))
    n = draw(st.integers(1, 50))
    if draw(st.booleans()):
        v = np.eye(n)[rng.integers(n)]
    else:
        v = rng.dirichlet(np.ones(n))
        v[rng.random(n) < draw(st.sampled_from([0.0, 0.3, 0.9]))] = 0.0
        s = v.sum()
        v = v / s if s > 0 else np.eye(n)[0]
    spread = draw(st.sampled_from([1.0, 1e3, 1e100, 1e300]))
    phi = spread * rng.standard_normal(n)
    off = v == 0
    # off-support entries at the extremes, where eta * phi overflows
    phi[off & (rng.random(n) < 0.5)] = draw(st.sampled_from([1e300, -1e300]))
    for bad in draw(st.lists(st.sampled_from([np.nan, np.inf, -np.inf]),
                             max_size=1)):
        phi[rng.integers(n)] = bad
    eta = draw(st.sampled_from([1e-3, 0.5, 1.0, 1e3, 1e10, 0.0, -1.0]))
    return SimplexWeights(v), phi, eta


class TestMirrorStepReference:
    @settings(max_examples=500, deadline=None)
    @given(args=mirror_inputs())
    def test_equals_the_gather_scatter_formula(self, args):
        def step(w, phi, eta):
            return mirror_step(w, phi, eta).values

        assert outcome(step, *args) == outcome(reference_mirror_step, *args)

    @settings(max_examples=500, deadline=None)
    @given(args=mirror_inputs())
    def test_output_passes_the_simplex_check(self, args):
        try:
            w = mirror_step(*args)
        except (ValueError, NumericOverflowError):
            return
        assert_is_checked(w)


def assert_is_checked(w):
    """w, built without the simplex check, is what the check builds."""
    checked = SimplexWeights(w.values)
    assert checked.values.tobytes() == w.values.tobytes()
    assert w.interior is checked.interior


def reference_simplex_check(v):
    """The four checks of SimplexWeights, in order, without a fast path."""
    v = np.asarray(v, dtype=float)
    if v.ndim != 1 or v.size < 1:
        raise ValueError("weights must be a nonempty 1-d vector")
    if not np.all(np.isfinite(v)):
        raise ValueError("weights must be finite")
    if np.any(v < 0):
        raise ValueError("weights must be nonnegative")
    if abs(v.sum() - 1.0) > SUM_TOL:
        raise ValueError(f"weights must sum to 1, got {v.sum()!r}")
    return v


@st.composite
def weight_vectors(draw):
    rng = np.random.default_rng(draw(SEEDS))
    n = draw(st.integers(1, 12))
    v = rng.dirichlet(np.ones(n))
    v[rng.random(n) < draw(st.sampled_from([0.0, 0.3]))] = 0.0
    s = v.sum()
    v = v / s if s > 0 else np.eye(n)[0]
    off = draw(st.sampled_from([0.0, 0.5, -0.5, 2.0, -2.0]))
    v[rng.integers(n)] += off * SUM_TOL
    for bad in draw(st.lists(st.sampled_from(
            [np.nan, np.inf, -np.inf, -1e-3, -1e-300, 2.0]), max_size=2)):
        v[rng.integers(n)] = bad
    return v


class TestSimplexCheck:
    @settings(max_examples=500, deadline=None)
    @given(v=weight_vectors())
    def test_accepts_and_rejects_as_the_four_checks(self, v):
        def construct(v):
            return SimplexWeights(v).values

        assert outcome(construct, v) == outcome(reference_simplex_check, v)

    @pytest.mark.parametrize("v", [np.array([]), np.ones((1, 1)),
                                   np.array(1.0), np.full((2, 2), 0.25)])
    def test_shape_is_checked_first(self, v):
        with pytest.raises(ValueError, match="nonempty 1-d vector"):
            SimplexWeights(v)


@st.composite
def guard_inputs(draw):
    """Float arrays of 0-2 dimensions, with NaNs, infinities of either sign
    and finite entries large enough that their squares or sum overflow;
    or int arrays."""
    rng = np.random.default_rng(draw(SEEDS))
    shape = draw(st.sampled_from([(0,), (1,), (2,), (7,), (60,), (2000,),
                                  (0, 3), (5, 2), (3, 3)]))
    if draw(st.booleans()) and len(shape) == 1:
        return rng.integers(-2**62, 2**62, size=shape)
    a = draw(st.sampled_from([1.0, 1e150, 1e300])) * rng.standard_normal(shape)
    for bad in draw(st.lists(st.sampled_from(
            [np.nan, np.inf, -np.inf, 1e308, -1e308]), max_size=3)):
        if a.size:
            a.flat[rng.integers(a.size)] = bad
    return a


class TestAllFinite:
    @settings(max_examples=500, deadline=None)
    @given(a=guard_inputs())
    def test_agrees_with_isfinite_all(self, a):
        assert _all_finite(a) is bool(np.all(np.isfinite(a)))

    @pytest.mark.parametrize("a, finite", [
        ([np.nan], False), ([np.inf], False), ([-np.inf], False),
        ([np.inf, -np.inf], False), ([1.0, np.nan, np.inf], False),
        ([1e308, 1e308], True), ([-1e308, 1e308, -1e308], True),
        ([1e200], True), (np.empty(0), True), (np.empty((0, 4)), True),
        (np.arange(5), True), (np.full(3, 2**62), True),
        (np.array([[1.0, 2.0], [np.nan, 0.0]]), False)])
    def test_named_cases_without_a_warning(self, a, finite):
        # RuntimeWarnings are errors in this suite: a.sum() would warn on
        # [1e308, 1e308] (overflow) and [inf, -inf] (invalid)
        assert _all_finite(np.asarray(a)) is finite


def test_mirror_inputs_draw_interior_weights_and_weights_with_zeros():
    interior = find(mirror_inputs(), lambda args: args[0].n > 1
                    and args[0].interior)
    assert np.all(interior[0].values > 0)
    zeros = find(mirror_inputs(), lambda args: not args[0].interior)
    assert np.any(zeros[0].values == 0)


class TestInteriorFlag:
    @settings(max_examples=300, deadline=None)
    @given(v=weight_vectors())
    def test_is_every_entry_positive(self, v):
        try:
            w = SimplexWeights(v)
        except ValueError:
            return
        assert w.interior is bool(np.all(w.values > 0))

    def test_set_by_every_constructor(self):
        assert SimplexWeights.uniform(3).interior
        assert not SimplexWeights.one_hot(3, 1).interior
        assert SimplexWeights.one_hot(1, 0).interior
        assert not SimplexWeights.from_unnormalized([0.0, 2.0]).interior


def test_closed_form_of_an_overflowing_gram_raises_numeric_overflow():
    # an infinite Gram, or a finite one with an infinite right-hand side
    # X^T diag(w) y: neither the closed form, solve_inner nor exact_bilevel's
    # first inner solve may return theta = 0 or fail with a bare ValueError
    w = SimplexWeights.uniform(3)
    what = "weighted Gram or right-hand side overflowed"
    for X, y in [([[1e200, 1.0], [1.0, 1e200], [1.0, 2.0]], [1.0, 1.0, 1.0]),
                 ([[10.0, 1.0], [1.0, 10.0], [3.0, -2.0]],
                  [1.5e308, -1.5e308, 1e308])]:
        data = Dataset(np.array(X), np.array(y))
        with np.errstate(over="ignore"):
            with pytest.raises(NumericOverflowError, match=what):
                closed_form_inner_quadratic(data, w, 0.0)
            with pytest.raises(NumericOverflowError, match=what):
                solve_inner(RidgeLeastSquares(0.0), data, w,
                            ModelParams(np.zeros(2)))
            with pytest.raises(NumericOverflowError, match=what):
                exact_bilevel(RidgeLeastSquares(0.0), data, data, w,
                              SolverConfig(iterations=2))


def reference_dense_output(y, y_new, k, h, x):
    """The dense output at one step fraction x, as DOP853's CONTD8 reads it
    off one grid time at a time: its 7 coefficient rows, innermost first,
    times x and 1 - x in turn."""
    d = y_new - y
    F = [d, h * k[0] - d, 2 * d - h * (k[12] + k[0]), *(h * (_D @ k))]
    z = F[-1] * x
    for i, f in enumerate(reversed(F[:-1]), 1):
        z = (z + f) * (1 - x if i % 2 else x)
    return y + z


class TestDenseOutput:
    @settings(max_examples=300, deadline=None)
    @given(seed=SEEDS, n=st.integers(1, 80), m=st.integers(1, 40),
           scale=st.sampled_from([1e-8, 1.0, 1e8]))
    def test_block_equals_the_per_time_formula(self, seed, n, m, scale):
        rng = np.random.default_rng(seed)
        y, y_new = scale * rng.standard_normal((2, n))
        k = scale * rng.standard_normal((16, n))
        h = 10.0 ** rng.uniform(-6, 1)
        # step fractions as the integrator makes them: grid times less t,
        # over h
        t = rng.uniform(0, 10)
        x = (np.sort(t + h * rng.random(m)) - t) / h
        got = _dense_output(y, y_new, k, h, x[:, None])
        assert got.shape == (m, n)
        for row, xi in zip(got, x):
            want = reference_dense_output(y, y_new, k, h, xi)
            assert row.tobytes() == want.tobytes()


def test_dop853_tableau_is_scipys():
    # SciPy's copy of Hairer's DOP853 coefficients, zeros included
    from scipy.integrate._ivp import dop853_coefficients as ref

    for i, row in enumerate(_A, 1):
        assert row.tobytes() == ref.A[i, :i].tobytes()
    for i, row in enumerate(_A_DENSE, 13):
        assert row.tobytes() == ref.A[i, :i].tobytes()
    assert _B.tobytes() == ref.B.tobytes()
    assert _E.tobytes() == np.array([ref.E5, ref.E3])[:, :12].tobytes()
    assert not ref.E5[12] and not ref.E3[12]
    assert _D.tobytes() == ref.D.tobytes()


def reference_softmax(u):
    e = np.exp(u - u.max())
    return e / e.sum()


@st.composite
def log_weight_rows(draw):
    """Log-weight states, one row per time, whose softmax holds exact zeros
    where an entry lies far enough below the row's maximum."""
    rng = np.random.default_rng(draw(SEEDS))
    n = draw(st.integers(1, 80))
    m = draw(st.integers(1, 30))
    u = draw(st.sampled_from([1.0, 30.0, 300.0])) * rng.standard_normal((m, n))
    far = rng.random((m, n)) < draw(st.sampled_from([0.0, 0.3, 0.9]))
    u[far] = -1e4 + rng.standard_normal(far.sum())
    return u


class TestDualRecords:
    @settings(max_examples=400, deadline=None)
    @given(u=log_weight_rows())
    def test_equal_softmax_entropy_and_support_row_by_row(self, u):
        times = np.arange(u.shape[0], dtype=float)
        records = _dual_records(times, u)
        assert [r.k for r in records] == list(times)
        for r, row in zip(records, u):
            want = SimplexWeights(reference_softmax(row))
            assert r.w.values.tobytes() == want.values.tobytes()
            assert r.w.values.tobytes() == _softmax(row).values.tobytes()
            assert_is_checked(r.w)
            h = entropy(want)
            # the same float, the sign of a zero included
            assert (r.entropy, math.copysign(1, r.entropy)) == (
                h, math.copysign(1, h))
            assert r.support_size == support(want).size
            assert r.theta is None
            assert r.inner_loss is None and r.outer_loss is None

    def test_draws_rows_with_exact_zeros_from_width_8(self):
        u = find(log_weight_rows(), lambda u: u.shape[1] >= 8 and np.any(
            np.exp(u - u.max(axis=1, keepdims=True)) == 0))
        assert u.shape[1] >= 8

    @pytest.mark.parametrize("n", [1, 3, 8, 9, 40])
    def test_one_hot_rows(self, n):
        u = np.full((2, n), -1e4)
        u[:, 0] = 0.0
        for r in _dual_records([0.0, 1.0], u):
            assert r.w.values.tobytes() == np.eye(n)[0].tobytes()
            assert r.w.interior is (n == 1)
            assert r.support_size == 1
            h = entropy(SimplexWeights(np.eye(n)[0]))
            assert r.entropy == h and math.copysign(1, r.entropy) == \
                math.copysign(1, h)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_a_nan_state_raises_as_the_checked_softmax(self, bad):
        u = np.zeros((3, 4))
        u[1, 2] = bad
        with np.errstate(invalid="ignore"):
            with pytest.raises(ValueError, match="weights must be finite"):
                _dual_records([0.0, 1.0, 2.0], u)
            with pytest.raises(ValueError, match="weights must be finite"):
                _softmax(u[1])


@settings(max_examples=50, deadline=None)
@given(seed=SEEDS, n=st.integers(1, 30),
       scale=st.sampled_from([1.0, 10.0, 100.0]))
def test_softmax_reparam_weights_pass_the_simplex_check(seed, n, scale):
    rng = np.random.default_rng(seed)
    train = Dataset(rng.standard_normal((n, 2)), rng.standard_normal(n))
    test = Dataset(rng.standard_normal((4, 2)), rng.standard_normal(4))
    trace = softmax_reparam(RidgeLeastSquares(1e-2), train, test,
                            ModelParams(np.zeros(2)),
                            scale * rng.standard_normal(n),
                            SolverConfig(eta=10.0, rho=1e-2, iterations=20))
    for r in trace.records:
        assert_is_checked(r.w)


class TestFrozenFieldSolves:
    @settings(max_examples=100, deadline=None)
    @given(seed=SEEDS, n=st.integers(1, 8), p=st.integers(1, 5),
           ridge=st.floats(1e-3, 2.0))
    def test_field_and_jacobian_equal_cho_factor_and_cho_solve(self, seed, n,
                                                               p, ridge):
        field = FrozenField.ridge_like(seed, n, p, ridge)
        w = SimplexWeights.from_unnormalized(
            np.random.default_rng(seed).random(n) + 0.01)
        H = field.weighted_hessian(w.values)
        g = reference_solve(H, field.grad_outer)
        assert field(w).tobytes() == (-(field.gamma @ g)).tobytes()
        assert field.jacobian(w).tobytes() == (field.gamma @ reference_solve(
            H, (field.sample_hessians @ g).T)).tobytes()

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_outer_gradient_raises_the_same_value_error(self, bad):
        with pytest.raises(ValueError, match="must not contain infs or NaNs"):
            FrozenField(np.eye(2), np.stack([np.eye(2)] * 2), [1.0, bad])


def reference_tangent_eigenvalues(A):
    """The eigenvalues of A restricted to the tangent space, by least
    squares in the basis B = {e_i - e_l}: M solves B M = A B."""
    l = A.shape[0]
    B = np.vstack([np.eye(l - 1), -np.ones((1, l - 1))])
    return np.linalg.eigvals(np.linalg.lstsq(B, A @ B, rcond=None)[0])


class TestTangentRestriction:
    @settings(max_examples=200, deadline=None)
    @given(seed=SEEDS, n=st.integers(2, 8), p=st.integers(1, 5),
           ridge=st.floats(0.1, 2.0), data=st.data())
    def test_slice_equals_the_lstsq_restriction(self, seed, n, p, ridge,
                                                data):
        frozen = FrozenField.ridge_like(seed, n, p, ridge)
        supp = sorted(data.draw(st.sets(st.integers(0, n - 1), min_size=1)))
        values = np.zeros(n)
        values[supp] = 10.0 ** np.array(data.draw(st.lists(
            st.floats(-3.0, 0.0), min_size=len(supp), max_size=len(supp))))
        w = SimplexWeights.from_unnormalized(values)
        # a zero field makes every w stationary; it states frozen's Jacobian
        field = ConstantField(np.zeros(n))
        field.jacobian = frozen.jacobian
        got = stability_check(w, field).tangent_eigenvalues
        if len(supp) == 1:
            assert got.dtype == complex and got.size == 0
            return
        A = (preconditioner(SimplexWeights.from_unnormalized(values[supp]))
             @ frozen.jacobian(w)[np.ix_(supp, supp)])
        want = reference_tangent_eigenvalues(A)
        gap = np.abs(got[:, None] - want[None, :])
        rows, cols = linear_sum_assignment(gap)
        assert gap[rows, cols].max() <= 1e-9 * np.abs(A).max()


def reference_membership(Z, tol=1e-8):
    """membership_I's verdict, kind and sigma_min from lstsq and then a
    separate svd call."""
    l = Z.shape[0]
    ones = np.ones(l)
    x = np.linalg.lstsq(Z, ones, rcond=None)[0]
    residual = np.linalg.norm(Z @ x - ones)
    svals = np.linalg.svd(Z, compute_uv=False)
    sigma_min = svals[-1] if Z.shape[1] <= l else 0.0
    if residual <= tol * math.sqrt(l):
        return True, "ones", sigma_min, svals[0]
    if sigma_min <= tol * max(svals[0], 1.0):
        return True, "null", sigma_min, svals[0]
    return False, None, sigma_min, svals[0]


class TestMembershipSingularValues:
    @settings(max_examples=300, deadline=None)
    @given(seed=SEEDS, l=st.integers(1, 8), p=st.integers(1, 6),
           kind=st.sampled_from(["random", "rank deficient", "integer",
                                 "badly scaled"]))
    def test_verdict_equals_lstsq_then_svd(self, seed, l, p, kind):
        rng = np.random.default_rng(seed)
        if kind == "rank deficient":
            r = rng.integers(0, min(l, p))
            Z = rng.standard_normal((l, r)) @ rng.standard_normal((r, p))
        elif kind == "integer":
            Z = rng.integers(-2, 3, (l, p)).astype(float)
        else:
            Z = rng.standard_normal((l, p))
            if kind == "badly scaled":
                Z *= (10.0 ** rng.uniform(-8, 8, (l, 1))
                      * 10.0 ** rng.uniform(-8, 8, (1, p)))
        member, cert = membership_I(Z)
        want_member, want_kind, sigma_min, sigma_max = reference_membership(Z)
        assert (member, cert["kind"]) == (want_member, want_kind)
        if "sigma_min" in cert:
            assert abs(cert["sigma_min"] - sigma_min) <= 1e-13 * sigma_max
