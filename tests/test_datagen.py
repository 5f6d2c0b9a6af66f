import collections
import json

import numpy as np
import pytest

from bilevel_reweight import (
    AbsoluteContinuityError,
    ConfigError,
    CorruptionSpec,
    Dataset,
    DatasetFormatError,
    MixtureSpec,
    SimplexWeights,
    gen_corrupted,
    gen_mixture,
    importance_weights,
    load_dataset,
    save_dataset,
)


class TestGenMixture:
    def test_deterministic(self):
        spec = MixtureSpec(n=50, m=20, seed=123)
        a_train, a_test, a_theta, a_z = gen_mixture(spec)
        b_train, b_test, b_theta, b_z = gen_mixture(spec)
        assert np.array_equal(a_train.features, b_train.features)
        assert np.array_equal(a_train.targets, b_train.targets)
        assert np.array_equal(a_test.features, b_test.features)
        assert np.array_equal(a_z, b_z)
        assert np.array_equal(a_theta.theta, b_theta.theta)

    def test_seed_changes_data(self):
        a = gen_mixture(MixtureSpec(n=50, m=20, seed=0))[0]
        b = gen_mixture(MixtureSpec(n=50, m=20, seed=1))[0]
        assert not np.array_equal(a.features, b.features)

    def test_shapes(self):
        train, test, theta, z = gen_mixture(MixtureSpec(n=30, m=7, seed=2))
        assert train.features.shape == (30, 2)
        assert test.features.shape == (7, 2)
        assert theta.theta.shape == (2,)
        assert z.shape == (30,)
        assert set(np.unique(z)) <= {1, 2}

    def test_noiseless_targets_are_clusterwise_linear(self):
        spec = MixtureSpec(n=100, m=10, sigma=0.0, seed=3)
        train, test, theta1, z = gen_mixture(spec)
        theta = np.array([spec.theta1_hat, spec.theta2_hat])
        expected = np.einsum("ij,ij->i", train.features, theta[z - 1])
        assert np.allclose(train.targets, expected)
        assert np.allclose(test.targets, test.features @ theta1.theta)

    def test_noise_level(self):
        spec = MixtureSpec(n=2000, m=10, sigma=0.1, seed=4)
        train, _, _, z = gen_mixture(spec)
        theta = np.array([spec.theta1_hat, spec.theta2_hat])
        resid = train.targets - np.einsum("ij,ij->i", train.features,
                                          theta[z - 1])
        assert abs(resid.std() - spec.sigma) <= 0.02
        assert np.abs(resid).max() <= 6 * spec.sigma

    def test_clusters_follow_centroids(self):
        spec = MixtureSpec(n=2000, m=500, seed=5)
        train, test, _, z = gen_mixture(spec)
        c1 = train.features[z == 1].mean(axis=0)
        c2 = train.features[z == 2].mean(axis=0)
        assert np.linalg.norm(c1 - np.array(spec.mu1)) <= 0.2
        assert np.linalg.norm(c2 - np.array(spec.mu2)) <= 0.2
        # the test set comes from cluster 1 only
        assert np.linalg.norm(test.features.mean(axis=0)
                              - np.array(spec.mu1)) <= 0.2

    def test_p_cluster1_one_forces_single_cluster(self):
        _, _, _, z = gen_mixture(MixtureSpec(n=40, m=5, seed=6,
                                             p_cluster1=1.0))
        assert np.all(z == 1)

    def test_rejects_bad_spec(self):
        with pytest.raises(ValueError):
            MixtureSpec(n=0)
        with pytest.raises(ValueError):
            MixtureSpec(sigma=-1.0)
        with pytest.raises(ValueError):
            MixtureSpec(p_cluster1=1.5)
        with pytest.raises(ValueError):
            MixtureSpec(mu1=(0.0,), mu2=(0.0, 1.0))
        with pytest.raises(ValueError, match="dimensions must agree"):
            MixtureSpec(theta2_hat=(1.0,))


_SPEC_FIELDS = [
    (MixtureSpec, ("sigma", "p_cluster1"), ("n", "m", "seed")),
    (CorruptionSpec, ("p_c", "separation"),
     ("n", "classes", "d", "n_test", "n_val", "seed"))]


@pytest.mark.parametrize("spec,field,value", [
    (spec, field, value)
    for spec, reals, counts in _SPEC_FIELDS
    for field in reals + counts
    for value in (None, "1", 2.5, True)
    if value != 2.5 or field in counts])
def test_specs_reject_wrong_type_naming_the_field(spec, field, value):
    with pytest.raises(ConfigError, match=field):
        spec(**{field: value})


@pytest.mark.parametrize("spec,field,value,message", [
    (MixtureSpec, "mu1", "ab", "mu1 must be a list, got 'ab'"),
    (MixtureSpec, "mu2", (), "mu2 must be a non-empty list"),
    (MixtureSpec, "theta1_hat", (np.nan, 0.0), "theta1_hat must be finite"),
    (MixtureSpec, "theta2_hat", (True, 0.0),
     "theta2_hat must be a real number, got True"),
    (MixtureSpec, "sigma", np.inf, "sigma must be nonnegative and finite"),
    (CorruptionSpec, "separation", np.nan,
     "separation must be nonnegative and finite"),
    (CorruptionSpec, "n_test", 0, "n_test must be positive and finite"),
    (CorruptionSpec, "n_val", -1, "n_val must be positive and finite")])
def test_specs_reject_bad_value_naming_the_field(spec, field, value, message):
    with pytest.raises(ConfigError) as exc:
        spec(**{field: value})
    assert str(exc.value) == message


def test_mixture_spec_takes_lists_tuples_and_arrays():
    spec = MixtureSpec(n=20, m=5, mu1=[-2.0, 0.0], mu2=np.array([2.0, 0.0]),
                       theta1_hat=(1, -1), theta2_hat=np.array([-1.0, 1.0]))
    train, _, _, _ = gen_mixture(spec)
    assert np.array_equal(train.features,
                          gen_mixture(MixtureSpec(n=20, m=5))[0].features)


class TestGenCorrupted:
    def test_deterministic(self):
        spec = CorruptionSpec(n=60, classes=4, d=5, n_test=20, n_val=20, seed=9)
        a_train, a_mask, a_test, a_val = gen_corrupted(spec)
        b_train, b_mask, b_test, b_val = gen_corrupted(spec)
        assert np.array_equal(a_train.features, b_train.features)
        assert np.array_equal(a_train.targets, b_train.targets)
        assert np.array_equal(a_mask, b_mask)
        assert np.array_equal(a_val.targets, b_val.targets)

    def test_corruption_rate_extremes(self):
        base = dict(n=100, classes=5, d=4, n_test=10, n_val=10, seed=1)
        _, clean0, _, _ = gen_corrupted(CorruptionSpec(p_c=0.0, **base))
        _, clean1, _, _ = gen_corrupted(CorruptionSpec(p_c=1.0, **base))
        assert clean0.all()
        assert not clean1.any()

    def test_corrupted_labels_are_always_wrong(self):
        # identical seeds share the same Philox stream, so the p_c = 0 run
        # exposes the true labels of the p_c = 1 run
        base = dict(n=200, classes=6, d=4, n_test=10, n_val=10, seed=2)
        clean_train, _, _, _ = gen_corrupted(CorruptionSpec(p_c=0.0, **base))
        bad_train, _, _, _ = gen_corrupted(CorruptionSpec(p_c=1.0, **base))
        assert np.array_equal(clean_train.features, bad_train.features)
        assert np.all(clean_train.targets != bad_train.targets)
        assert np.all((bad_train.targets >= 0)
                      & (bad_train.targets < base["classes"]))

    def test_corruption_rate_matches_p_c(self):
        spec = CorruptionSpec(n=5000, classes=10, d=3, p_c=0.9,
                              n_test=10, n_val=10, seed=3)
        _, clean, _, _ = gen_corrupted(spec)
        assert abs((~clean).mean() - spec.p_c) <= 0.02

    def test_eval_splits_are_disjoint_draws(self):
        spec = CorruptionSpec(n=50, classes=3, d=4, n_test=30, n_val=30, seed=4)
        _, _, test, val = gen_corrupted(spec)
        assert not np.array_equal(test.features[:30], val.features[:30])


class TestImportanceWeights:
    def test_hand_example(self):
        a, b = [0.0, 1.0], [2.0, 3.0]
        w = importance_weights([a, a, b], [a, b, b])
        # ratios (1/2, 1/2, 2), normalized
        assert np.allclose(w.values, [1 / 6, 1 / 6, 2 / 3])

    def test_identical_sets_give_uniform(self):
        rng = np.random.default_rng(0)
        atoms = rng.standard_normal((8, 3))
        w = importance_weights(atoms, atoms)
        assert np.allclose(w.values, 1.0 / 8)

    def test_absent_train_atom_gets_zero(self):
        a, b = [0.0], [1.0]
        w = importance_weights([a, b], [a])
        assert np.allclose(w.values, [1.0, 0.0])

    def test_reweighted_train_matches_test_distribution(self):
        # brute-force check: total weight per atom is its test frequency
        rng = np.random.default_rng(1)
        atoms = rng.standard_normal((4, 2))
        train_idx = np.array([0, 0, 0, 1, 1, 2, 3])
        test_idx = np.array([0, 1, 1, 1, 2, 2])
        w = importance_weights(atoms[train_idx], atoms[test_idx])
        for j in range(4):
            got = w.values[train_idx == j].sum()
            want = (test_idx == j).mean()
            assert got == pytest.approx(want)

    def test_unsupported_test_atom_raises(self):
        with pytest.raises(AbsoluteContinuityError):
            importance_weights([[0.0, 0.0]], [[1.0, 1.0]])

    @pytest.mark.parametrize("seed", range(5))
    def test_equals_counting_rows_in_python(self, seed):
        # the dictionary count importance_weights once ran, as the reference;
        # tuples of floats match by value too
        rng = np.random.default_rng(seed)
        pool = rng.standard_normal((5, 3))
        train = np.vstack([pool, pool[rng.integers(0, 5, 30)]])
        test = pool[rng.integers(0, 5, 20)]
        train_counts = collections.Counter(map(tuple, train))
        test_counts = collections.Counter(map(tuple, test))
        want = SimplexWeights.from_unnormalized(
            [test_counts[tuple(r)] / train_counts[tuple(r)] for r in train])
        assert np.array_equal(importance_weights(train, test).values,
                              want.values)

    def test_atoms_match_by_value(self):
        w = importance_weights([[0.0, 1.0], [1.0, 1.0]], [[-0.0, 1.0]])
        assert np.array_equal(w.values, [1.0, 0.0])

    @pytest.mark.parametrize("train, test, message", [
        ([[0.0], [np.nan]], [[0.0]], "atoms must be finite"),
        ([[0.0]], [[np.inf]], "atoms must be finite"),
        ([[np.nan]], [[np.nan]], "atoms must be finite"),
        ([[0.0, 1.0]], [[0.0]], "train and test atoms differ in length")],
        ids=["nan-train", "inf-test", "nan-both", "lengths"])
    def test_rejects_atoms_naming_the_fault(self, train, test, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            importance_weights(train, test)


class TestPersistence:
    def test_regression_round_trip_bit_identical(self, tmp_path):
        train, _, _, _ = gen_mixture(MixtureSpec(n=25, m=5, seed=7))
        path = tmp_path / "train.csv"
        save_dataset(train, path, seed=7)
        back = load_dataset(path)
        assert np.array_equal(back.features, train.features)
        assert np.array_equal(back.targets, train.targets)
        assert back.kind == train.kind

    def test_classification_round_trip(self, tmp_path):
        spec = CorruptionSpec(n=30, classes=4, d=3, n_test=5, n_val=5, seed=8)
        train, _, _, _ = gen_corrupted(spec)
        path = tmp_path / "train.csv"
        save_dataset(train, path, seed=8)
        back = load_dataset(path)
        assert np.array_equal(back.features, train.features)
        assert np.array_equal(back.targets, train.targets)
        assert back.n_classes == 4

    def test_sidecar_contents(self, tmp_path):
        train, _, _, _ = gen_mixture(MixtureSpec(n=10, m=5, seed=9))
        path = tmp_path / "d.csv"
        save_dataset(train, path, seed=9)
        meta = json.loads((tmp_path / "d.csv.json").read_text())
        assert meta == {"kind": "regression", "n": 10, "d": 2, "C": None,
                        "seed": 9}

    def test_csv_bytes(self, tmp_path):
        save_dataset(Dataset([[1.0, -0.5], [0.1, 2.0]], [3.0, -1e-20]),
                     tmp_path / "r.csv", seed=4)
        save_dataset(Dataset([[-0.0], [1e300]], [2, 0], "classification",
                             n_classes=3), tmp_path / "c.csv")
        assert (tmp_path / "r.csv").read_bytes() == (
            b"f0,f1,target\r\n1,-0.5,3\r\n"
            b"0.10000000000000001,2,-9.9999999999999995e-21\r\n")
        assert (tmp_path / "c.csv").read_bytes() == (
            b"f0,target\r\n-0,2\r\n1.0000000000000001e+300,0\r\n")

    def test_missing_sidecar(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("f0,target\n1.0,2.0\n")
        with pytest.raises(DatasetFormatError):
            load_dataset(path)

    def test_hand_written_csv(self, tmp_path):
        path = tmp_path / "hand.csv"
        path.write_text("f0,f1,target\n1.0,2.0,3.0\n-1.5,0.25,0.0\n")
        (tmp_path / "hand.csv.json").write_text(
            json.dumps({"kind": "regression"}))
        data = load_dataset(path)
        assert data.n == 2 and data.d == 2
        assert np.allclose(data.features, [[1.0, 2.0], [-1.5, 0.25]])
        assert np.allclose(data.targets, [3.0, 0.0])

    def _write(self, tmp_path, body, kind="regression"):
        path = tmp_path / "bad.csv"
        path.write_text(body)
        (tmp_path / "bad.csv.json").write_text(json.dumps({"kind": kind}))
        return path

    def test_wrong_column_count_reports_line(self, tmp_path):
        path = self._write(tmp_path, "f0,target\n1.0,2.0\n1.0\n")
        with pytest.raises(DatasetFormatError) as exc:
            load_dataset(path)
        assert exc.value.line == 3

    def test_non_numeric_entry_reports_line(self, tmp_path):
        path = self._write(tmp_path, "f0,target\nabc,2.0\n")
        with pytest.raises(DatasetFormatError) as exc:
            load_dataset(path)
        assert exc.value.line == 2

    def test_malformed_header(self, tmp_path):
        path = self._write(tmp_path, "f0,f1\n1.0,2.0\n")
        with pytest.raises(DatasetFormatError):
            load_dataset(path)

    def test_empty_file(self, tmp_path):
        path = self._write(tmp_path, "")
        with pytest.raises(DatasetFormatError):
            load_dataset(path)

    def test_header_only(self, tmp_path):
        path = self._write(tmp_path, "f0,target\n")
        with pytest.raises(DatasetFormatError):
            load_dataset(path)

    @pytest.mark.parametrize("body, sidecar, message", [
        ("f0,target\n1.0,2.0\ninf,2.0\n", {"kind": "regression"},
         "non-finite entry (line 3)"),
        ("f0,target\n1.0,nan\n", {"kind": "regression"},
         "non-finite entry (line 2)"),
        ("f0,target\n1.0,0\n1.0,-1\n", {"kind": "classification", "C": 2},
         "class label -1 outside 0..1 (line 3)"),
        ("f0,target\n1.0,0\n", {"kind": "classification", "C": 1},
         "classification needs an integer C >= 2, got 1"),
        ("f0,target\n1.0,0\n", {"kind": "classification", "C": True},
         "classification needs an integer C >= 2, got True"),
        ("f0,target\n1.0,0\n", {"kind": "classification"},
         "classification needs an integer C >= 2, got None")],
        ids=["inf-feature", "nan-target", "negative-label", "one-class",
             "bool-class-count", "no-class-count"])
    def test_value_dataset_refuses_names_the_file(self, tmp_path, body,
                                                  sidecar, message):
        path = tmp_path / "bad.csv"
        path.write_text(body)
        (tmp_path / "bad.csv.json").write_text(json.dumps(sidecar))
        with pytest.raises(DatasetFormatError) as exc:
            load_dataset(path)
        assert str(exc.value).endswith(message)
        assert str(exc.value).startswith(str(path))

    def test_unknown_kind_in_sidecar(self, tmp_path):
        path = self._write(tmp_path, "f0,target\n1.0,2.0\n", kind="ranking")
        with pytest.raises(DatasetFormatError):
            load_dataset(path)
