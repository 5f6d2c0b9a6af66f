import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bilevel_reweight import (
    NumericOverflowError,
    SimplexWeights,
    TangentVector,
    entropy,
    mirror_step,
    preconditioner,
    project_tangent,
    support,
)


def random_simplex(rng, n):
    return SimplexWeights.from_unnormalized(rng.random(n) + 1e-12)


@st.composite
def step_inputs(draw):
    """(w, phi, eta): w may have exact zeros but is never all zero."""
    n = draw(st.integers(1, 12))
    raw = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n)))
    raw[draw(st.integers(0, n - 1))] += 0.5
    phi = np.array(draw(st.lists(st.floats(-10.0, 10.0), min_size=n,
                                 max_size=n)))
    eta = 10.0 ** draw(st.floats(-3.0, 1.0))
    return SimplexWeights.from_unnormalized(raw), phi, eta


class TestSimplexWeights:
    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            SimplexWeights(np.array([1.2, -0.2]))

    def test_rejects_bad_sum(self):
        with pytest.raises(ValueError):
            SimplexWeights(np.array([0.5, 0.4]))

    def test_uniform(self):
        w = SimplexWeights.uniform(4)
        assert np.allclose(w.values, 0.25)


class TestMirrorStep:
    def test_zero_field_is_fixed_point(self):
        w = SimplexWeights(np.array([0.5, 0.5]))
        out = mirror_step(w, np.zeros(2), 1.0)
        assert np.allclose(out.values, [0.5, 0.5])

    def test_hand_evaluation(self):
        # tilde w = (0.5, 0.125), normalized -> (0.8, 0.2)
        w = SimplexWeights(np.array([0.5, 0.5]))
        out = mirror_step(w, np.array([0.0, np.log(4)]), 1.0)
        assert np.allclose(out.values, [0.8, 0.2], atol=1e-14)

    def test_constant_field_cancels(self):
        w = SimplexWeights(np.array([0.3, 0.7]))
        for c in (-3.0, 0.1, 42.0):
            out = mirror_step(w, np.full(2, c), 1.0)
            assert np.allclose(out.values, [0.3, 0.7], atol=1e-14)

    def test_zero_weights_stay_zero(self):
        w = SimplexWeights(np.array([0.0, 0.4, 0.6]))
        out = mirror_step(w, np.array([-100.0, 0.0, 1.0]), 1.0)
        assert out.values[0] == 0.0

    def test_shift_invariance(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            w = random_simplex(rng, 6)
            phi = rng.standard_normal(6)
            c = rng.standard_normal()
            a = mirror_step(w, phi, 0.7)
            b = mirror_step(w, phi + c, 0.7)
            assert np.max(np.abs(a.values - b.values)) <= 1e-12

    def test_large_eta_does_not_overflow(self):
        w = SimplexWeights(np.array([0.5, 0.5]))
        out = mirror_step(w, np.array([0.0, 1.0]), 1e6)
        assert np.all(np.isfinite(out.values))

    def test_degenerate_update_signals_overflow(self):
        # all mass on a coordinate whose exponent eta * phi overflows
        w = SimplexWeights(np.array([1.0, 0.0]))
        with pytest.raises(NumericOverflowError):
            mirror_step(w, np.array([1e300, 0.0]), 1e9)

    def test_collapsed_weights_stay_on_their_vertex(self):
        # the shift is taken over the support, so a vertex whose exponent
        # lies far above the off-support entries' does not underflow
        for i in range(3):
            w = SimplexWeights.one_hot(3, i)
            phi = np.zeros(3)
            phi[i] = 1.0
            out = mirror_step(w, phi, 1e9)
            assert np.array_equal(out.values, w.values)

    def test_face_update_matches_update_on_the_face(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            w = random_simplex(rng, 6)
            values = w.values.copy()
            values[:3] = 0.0
            w_face = SimplexWeights.from_unnormalized(values)
            phi = rng.standard_normal(6)
            phi[:3] -= 1e4  # off-support exponents far below the support's
            out = mirror_step(w_face, phi, 1.0)
            sub = mirror_step(SimplexWeights.from_unnormalized(values[3:]),
                              phi[3:], 1.0)
            assert np.all(out.values[:3] == 0.0)
            assert np.allclose(out.values[3:], sub.values, rtol=0, atol=1e-15)

    def test_invariants_random(self):
        rng = np.random.default_rng(1)
        for _ in range(10_000):
            n = int(rng.integers(2, 8))
            w = random_simplex(rng, n)
            phi = rng.standard_normal(n) * 10.0 ** rng.integers(-2, 3)
            eta = float(10 ** rng.uniform(-3, 1))
            out = mirror_step(w, phi, eta)
            assert np.all(out.values >= 0)
            assert abs(out.values.sum() - 1.0) <= 1e-12


class TestMirrorStepProperties:
    @settings(max_examples=200, deadline=None)
    @given(step_inputs())
    def test_stays_on_simplex(self, args):
        out = mirror_step(*args)
        assert np.all(out.values >= 0)
        assert abs(out.values.sum() - 1.0) <= 1e-12

    @settings(max_examples=200, deadline=None)
    @given(step_inputs())
    def test_exact_zeros_stay_zero(self, args):
        w = args[0]
        out = mirror_step(*args)
        assert np.all(out.values[w.values == 0.0] == 0.0)

    @settings(max_examples=200, deadline=None)
    @given(step_inputs(), st.floats(-10.0, 10.0))
    def test_shifting_phi_leaves_step_unchanged(self, args, c):
        w, phi, eta = args
        a = mirror_step(w, phi, eta)
        b = mirror_step(w, phi + c, eta)
        assert np.max(np.abs(a.values - b.values)) <= 1e-12


class TestPreconditioner:
    def test_vertex_is_zero(self):
        w = SimplexWeights(np.array([1.0, 0.0]))
        assert np.allclose(preconditioner(w), 0.0)

    def test_half_half(self):
        w = SimplexWeights(np.array([0.5, 0.5]))
        expected = np.array([[0.25, -0.25], [-0.25, 0.25]])
        assert np.allclose(preconditioner(w), expected)

    def test_annihilates_ones_and_psd(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            w = random_simplex(rng, 5)
            P = preconditioner(w)
            assert np.allclose(P, P.T)
            assert np.allclose(P @ np.ones(5), 0.0, atol=1e-14)
            assert np.linalg.eigvalsh(P).min() >= -1e-14

    def test_maps_into_tangent_space(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            w = random_simplex(rng, 5)
            x = rng.standard_normal(5)
            assert abs((preconditioner(w) @ x).sum()) <= 1e-12


class TestEntropy:
    def test_uniform_is_log_n(self):
        for n in (2, 10, 1000):
            assert entropy(SimplexWeights.uniform(n)) == pytest.approx(np.log(n))

    def test_one_hot_is_zero(self):
        assert entropy(SimplexWeights.one_hot(5, 2)) == 0.0

    def test_uniform_over_subset(self):
        v = np.zeros(1000)
        v[:100] = 1.0 / 100
        assert entropy(SimplexWeights(v)) == pytest.approx(np.log(100))

    def test_bounded_by_support_entropy(self):
        rng = np.random.default_rng(4)
        for _ in range(500):
            w = random_simplex(rng, 8)
            assert entropy(w) <= np.log(support(w).size) + 1e-12


class TestSupport:
    def test_excludes_exact_zeros(self):
        w = SimplexWeights(np.array([0.5, 0.5, 0.0]))
        assert list(support(w, 1e-6)) == [0, 1]

    def test_one_hot(self):
        assert list(support(SimplexWeights.one_hot(5, 3))) == [3]

    def test_excludes_subtolerance_mass(self):
        w = SimplexWeights(np.array([1 - 2e-9, 1e-9, 1e-9]))
        assert list(support(w, 1e-6)) == [0]


class TestProjectTangent:
    def test_constant_maps_to_zero(self):
        assert np.allclose(project_tangent(np.ones(2)).values, 0.0)

    def test_mean_subtraction(self):
        assert np.allclose(project_tangent(np.array([1.0, 0.0])).values,
                           [0.5, -0.5])

    def test_idempotent(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            t = project_tangent(rng.standard_normal(6))
            again = project_tangent(t.values)
            assert np.allclose(t.values, again.values)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=12))
    def test_idempotent_property(self, v):
        t = project_tangent(v)
        again = project_tangent(t.values)
        assert np.max(np.abs(again.values - t.values)) <= (
            1e-12 * max(1.0, np.abs(v).max()))

    def test_tangent_invariant(self):
        with pytest.raises(ValueError):
            TangentVector(np.array([1.0, 1.0]))
