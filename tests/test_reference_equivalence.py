"""Property tests: the direct LAPACK solve, the closed-form inner minimizer,
the weighted Gram, the logistic residual, the mirror step, the one-pass
simplex check, the finite guard, the block dense output and the bulk
mirror-flow records give the same bytes and raise the same errors as the
reference formulas they replace, except that the direct solve also refuses
numerically singular Cholesky factors; the DOP853 coefficients are SciPy's;
weights built without the simplex check pass it."""

import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import find, given, settings
from hypothesis import strategies as st

from bilevel_reweight import (
    AssumptionViolationError,
    Dataset,
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
    mirror_step,
    softmax_reparam,
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
from bilevel_reweight.hypergrad import _solve_direct
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
            # positive pivots. _solve_direct refuses every one of rank 1, and
            # passes a few in a thousand of higher rank as cho_factor does
            got = outcome(_solve_direct, H, rhs)
            refused = (None, (AssumptionViolationError,
                              "inner Hessian is not positive definite"))
            if kind == "rank one" or p == 2:
                assert got == refused
            else:
                assert got in (refused, outcome(reference_solve, H, rhs))
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
    A = X.T @ (w[:, None] * X) + mu * np.eye(X.shape[1])
    b = X.T @ (w * y)
    eigvals = np.linalg.eigvalsh(A)
    if eigvals[0] <= 1e-12 * max(1.0, eigvals[-1]):
        raise SingularDesignError(
            "weighted design is singular; enlarge the support or set mu > 0")
    return np.linalg.solve(A, b)


class TestClosedForm:
    @settings(max_examples=200, deadline=None)
    @given(seed=SEEDS, d=st.integers(1, 8), n=st.integers(1, 30),
           mu=st.sampled_from([0.0, 1e-4, 1.0]),
           zeros=st.integers(0, 5), duplicate=st.booleans(),
           tilt=st.sampled_from([0.0, 1e-7, 1e-6, 1e-5, 1e-4]))
    def test_equals_the_numpy_formula(self, seed, d, n, mu, zeros,
                                      duplicate, tilt):
        # a duplicated column tilted by t puts the smallest eigenvalue near
        # t^2, around the singularity threshold
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((n, d))
        if duplicate and d > 1:
            X[:, -1] = X[:, 0] + tilt * rng.standard_normal(n)
        y = rng.standard_normal(n)
        w = rng.random(n)
        w[rng.permutation(n)[:min(zeros, n - 1)]] = 0.0
        w = SimplexWeights.from_unnormalized(w)

        def closed_form(X, y, w, mu):
            return closed_form_inner_quadratic(Dataset(X, y), w, mu).theta

        got = outcome(closed_form, X, y, w, mu)
        assert got == outcome(reference_closed_form, X, y, w.values, mu)
        if mu == 0.0 and (n < d or (duplicate and d > 1 and tilt == 0.0)):
            assert got[1][0] is SingularDesignError


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
    # eigvalsh of the infinite Gram is NaN, which the singularity test must
    # not pass: neither the closed form nor exact_bilevel's first inner
    # solve may return theta = 0 or fail with a bare ValueError
    X = np.array([[1e200, 1.0], [1.0, 1e200], [1.0, 2.0]])
    data = Dataset(X, np.ones(3))
    w = SimplexWeights.uniform(3)
    with np.errstate(over="ignore"):
        with pytest.raises(NumericOverflowError, match="weighted Gram"):
            closed_form_inner_quadratic(data, w, 0.0)
        with pytest.raises(NumericOverflowError, match="weighted Gram"):
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
