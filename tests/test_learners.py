"""Unit tests for the four synopsis learners and the base interface."""

import numpy as np
import pytest

from repro.learners import (
    LinearRegressionSynopsis,
    NaiveBayesSynopsis,
    SvmSynopsis,
    TanSynopsis,
    learner_names,
    make_learner,
)
from repro.learners.base import SynopsisLearner, register_learner


@pytest.fixture
def linear_data(rng):
    """Linearly separable data: every learner should nail this."""
    X = rng.normal(size=(200, 4))
    y = (X[:, 0] + X[:, 1] > 0).astype(int)
    return X, y


@pytest.fixture
def xor_data(rng):
    """XOR-ish data: only nonlinear learners can fit it."""
    X = rng.normal(size=(400, 2))
    y = ((X[:, 0] > 0) ^ (X[:, 1] > 0)).astype(int)
    return X, y


ALL_LEARNERS = ["lr", "naive", "svm", "tan"]


class TestRegistry:
    def test_papers_four_come_first(self):
        names = learner_names()
        assert names[:4] == ALL_LEARNERS  # the paper's table order
        assert "tree" in names  # extension baseline

    def test_make_learner_types(self):
        assert isinstance(make_learner("lr"), LinearRegressionSynopsis)
        assert isinstance(make_learner("naive"), NaiveBayesSynopsis)
        assert isinstance(make_learner("svm"), SvmSynopsis)
        assert isinstance(make_learner("tan"), TanSynopsis)

    def test_unknown_name_raises(self):
        with pytest.raises(KeyError):
            make_learner("gpt")

    def test_kwargs_forwarded(self):
        learner = make_learner("svm", C=3.0, kernel="linear")
        assert learner.C == 3.0
        assert learner.kernel == "linear"

    def test_custom_registration(self):
        @register_learner("always-one")
        class AlwaysOne(SynopsisLearner):
            def _fit(self, X, y):
                pass

            def _predict_proba(self, X):
                return np.ones(X.shape[0])

        learner = make_learner("always-one")
        learner.fit(np.zeros((2, 1)), np.array([0, 1]))
        assert learner.predict_one(np.zeros(1)) == 1
        assert "always-one" in learner_names()


class TestContract:
    @pytest.mark.parametrize("name", ALL_LEARNERS)
    def test_fit_predict_shapes(self, name, linear_data):
        X, y = linear_data
        learner = make_learner(name).fit(X, y)
        pred = learner.predict(X)
        assert pred.shape == (len(y),)
        assert set(np.unique(pred)) <= {0, 1}

    @pytest.mark.parametrize("name", ALL_LEARNERS)
    def test_predict_proba_in_unit_interval(self, name, linear_data):
        X, y = linear_data
        proba = make_learner(name).fit(X, y).predict_proba(X)
        assert (proba >= 0).all() and (proba <= 1).all()

    @pytest.mark.parametrize("name", ALL_LEARNERS)
    def test_predict_one_accepts_vector(self, name, linear_data):
        X, y = linear_data
        learner = make_learner(name).fit(X, y)
        assert learner.predict_one(X[0]) in (0, 1)

    @pytest.mark.parametrize("name", ALL_LEARNERS)
    def test_unfitted_predict_raises(self, name):
        with pytest.raises(RuntimeError):
            make_learner(name).predict(np.zeros((1, 2)))

    @pytest.mark.parametrize("name", ALL_LEARNERS)
    def test_input_validation(self, name):
        learner = make_learner(name)
        with pytest.raises(ValueError):
            learner.fit(np.zeros((2, 2)), np.array([0, 2]))
        with pytest.raises(ValueError):
            learner.fit(np.zeros((2, 2)), np.array([0]))
        with pytest.raises(ValueError):
            learner.fit(np.zeros((0, 2)), np.array([]))
        with pytest.raises(ValueError):
            learner.fit(np.zeros(3), np.array([0, 1, 0]))

    @pytest.mark.parametrize("name", ALL_LEARNERS)
    def test_single_class_training_predicts_that_class(self, name, rng):
        X = rng.normal(size=(30, 3))
        y = np.ones(30, dtype=int)
        learner = make_learner(name).fit(X, y)
        assert learner.predict(X).mean() > 0.9

    @pytest.mark.parametrize("name", ALL_LEARNERS)
    def test_constant_attribute_tolerated(self, name, rng):
        X = rng.normal(size=(100, 3))
        X[:, 1] = 7.0
        y = (X[:, 0] > 0).astype(int)
        learner = make_learner(name).fit(X, y)
        accuracy = (learner.predict(X) == y).mean()
        assert accuracy > 0.9


class TestAccuracy:
    @pytest.mark.parametrize("name", ALL_LEARNERS)
    def test_linear_problem_learned(self, name, linear_data):
        X, y = linear_data
        accuracy = (make_learner(name).fit(X, y).predict(X) == y).mean()
        assert accuracy > 0.85

    @pytest.mark.parametrize("name", ["svm", "tan"])
    def test_nonlinear_learners_fit_xor(self, name, xor_data):
        X, y = xor_data
        accuracy = (make_learner(name).fit(X, y).predict(X) == y).mean()
        assert accuracy > 0.8

    def test_lr_fails_xor(self, xor_data):
        """The paper: LR 'can only capture linear correlations'."""
        X, y = xor_data
        accuracy = (make_learner("lr").fit(X, y).predict(X) == y).mean()
        assert accuracy < 0.65


class TestLinearRegressionDetails:
    def test_attribute_selection_drops_noise(self, rng):
        X = rng.normal(size=(300, 6))
        y = (X[:, 0] > 0).astype(int)
        learner = LinearRegressionSynopsis(attribute_selection=True).fit(X, y)
        assert 0 in learner.selected_
        assert len(learner.selected_) < 6

    def test_selection_can_be_disabled(self, rng):
        X = rng.normal(size=(100, 4))
        y = (X[:, 0] > 0).astype(int)
        learner = LinearRegressionSynopsis(attribute_selection=False).fit(X, y)
        assert len(learner.selected_) == 4


class TestNaiveBayesDetails:
    def test_priors_reflect_class_balance(self, rng):
        X = rng.normal(size=(100, 2))
        y = np.array([1] * 80 + [0] * 20)
        learner = NaiveBayesSynopsis().fit(X, y)
        assert learner.priors_[1] > learner.priors_[0]

    def test_class_conditional_means(self, rng):
        X = np.vstack(
            [rng.normal(0.0, 1.0, (50, 1)), rng.normal(5.0, 1.0, (50, 1))]
        )
        y = np.array([0] * 50 + [1] * 50)
        learner = NaiveBayesSynopsis().fit(X, y)
        assert learner.means_[1][0] > learner.means_[0][0] + 3


class TestTanDetails:
    def test_tree_structure_is_valid(self, rng):
        X = rng.normal(size=(200, 5))
        y = (X[:, 0] > 0).astype(int)
        learner = TanSynopsis().fit(X, y)
        parents = learner.parents_
        assert parents[0] is None  # root
        assert sum(1 for p in parents if p is None) == 1
        # parent indices are valid and acyclic (tree built from root)
        for child, parent in enumerate(parents):
            if parent is not None:
                assert 0 <= parent < 5 and parent != child

    def test_single_attribute_degenerates_to_naive(self, rng):
        X = rng.normal(size=(100, 1))
        y = (X[:, 0] > 0).astype(int)
        learner = TanSynopsis().fit(X, y)
        assert learner.parents_ == [None]
        assert (learner.predict(X) == y).mean() >= 0.85

    def test_captures_attribute_dependency(self, rng):
        """Class depends on pairwise interaction naive Bayes misses."""
        a = rng.integers(0, 2, 600)
        b = rng.integers(0, 2, 600)
        y = (a ^ b).astype(int)
        noise = rng.normal(scale=0.05, size=(600, 2))
        X = np.column_stack([a, b]).astype(float) + noise
        tan_acc = (TanSynopsis(bins=2).fit(X, y).predict(X) == y).mean()
        nb_acc = (NaiveBayesSynopsis().fit(X, y).predict(X) == y).mean()
        # an axis-additive model tops out at 3 of the 4 XOR cells (75%)
        assert tan_acc > 0.95
        assert nb_acc < 0.8
        assert tan_acc > nb_acc + 0.1

    def test_invalid_alpha_rejected(self):
        with pytest.raises(ValueError):
            TanSynopsis(alpha=0.0)


class TestSvmDetails:
    def test_support_vectors_are_subset(self, linear_data):
        X, y = linear_data
        learner = SvmSynopsis().fit(X, y)
        assert 0 < learner.n_support_() <= len(y)

    def test_linear_kernel_works(self, linear_data):
        X, y = linear_data
        learner = SvmSynopsis(kernel="linear").fit(X, y)
        assert (learner.predict(X) == y).mean() > 0.9

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            SvmSynopsis(C=0.0)
        with pytest.raises(ValueError):
            SvmSynopsis(kernel="poly")

    def test_gamma_override(self, linear_data):
        X, y = linear_data
        learner = SvmSynopsis(gamma=0.5).fit(X, y)
        assert learner._gamma_value == 0.5


class TestDecisionTreeDetails:
    """The C4.5-style extension baseline ('tree')."""

    def test_registered_as_extra_learner(self):
        from repro.learners import DecisionTreeSynopsis

        learner = make_learner("tree")
        assert isinstance(learner, DecisionTreeSynopsis)
        assert "tree" in learner_names()

    def test_fits_linear_problem(self, linear_data):
        X, y = linear_data
        learner = make_learner("tree").fit(X, y)
        assert (learner.predict(X) == y).mean() > 0.85

    def test_fits_axis_aligned_nonlinearity(self, rng):
        """A band |x0| > 1 needs two splits on one variable — trivial
        for a tree, impossible for LR.  (Centered XOR is deliberately
        NOT tested: zero first-split gain defeats any greedy univariate
        tree, a textbook limitation.)"""
        X = rng.normal(size=(400, 3))
        y = (np.abs(X[:, 0]) > 1).astype(int)
        tree_acc = (make_learner("tree").fit(X, y).predict(X) == y).mean()
        lr_acc = (make_learner("lr").fit(X, y).predict(X) == y).mean()
        assert tree_acc > 0.95
        assert tree_acc > lr_acc + 0.15

    def test_pruning_shrinks_tree_on_noise(self, rng):
        X = rng.normal(size=(300, 3))
        y = (X[:, 0] > 0).astype(int)
        y[rng.integers(0, 300, 30)] ^= 1  # 10% label noise
        grown = make_learner("tree", prune=False).fit(X, y)
        pruned = make_learner("tree", prune=True).fit(X, y)
        assert pruned.n_leaves() <= grown.n_leaves()
        assert pruned.n_leaves() >= 2

    def test_single_class_gives_constant_leaf(self, rng):
        X = rng.normal(size=(20, 2))
        learner = make_learner("tree").fit(X, np.zeros(20, dtype=int))
        assert learner.n_leaves() == 1
        assert learner.predict(X).sum() == 0

    def test_roundtrip_serialization(self, linear_data):
        from repro.learners.base import SynopsisLearner

        X, y = linear_data
        original = make_learner("tree").fit(X, y)
        restored = SynopsisLearner.from_dict(original.to_dict())
        assert np.array_equal(restored.predict(X), original.predict(X))

    def test_tied_gains_keep_the_best_split(self):
        """Six copies of one attribute tie every candidate gain, and the
        float mean of the ties rounds above each of them; the max-gain
        candidate must stay eligible instead of leaving none."""
        from repro.learners import DecisionTreeSynopsis

        X = np.repeat([[2.0], [1.0], [1.0], [2.0]], 6, axis=1)
        y = np.array([0, 1, 1, 1])
        attribute, threshold, ratio = DecisionTreeSynopsis(
            min_leaf=1
        )._best_split(X, y.astype(float))
        assert attribute == 0
        assert threshold == 1.5
        assert ratio > 0.0
        learner = make_learner("tree", min_leaf=1, prune=False).fit(X, y)
        assert learner.n_leaves() == 2
        assert list(learner.predict(X)[1:3]) == [1, 1]

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            make_learner("tree", max_depth=0)
        with pytest.raises(ValueError):
            make_learner("tree", min_leaf=0)

    def test_works_as_synopsis_learner(self, mini_pipeline):
        synopsis = mini_pipeline.synopsis("ordering", "app", "hpc", "tree")
        test = mini_pipeline.dataset("ordering", "app", "hpc", training=False)
        assert synopsis.balanced_accuracy(test) > 0.7
