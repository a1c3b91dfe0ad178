"""Unit tests for the TPC-W workload model."""

import dataclasses

import numpy as np
import pytest

from repro.simulator.website import BROWSE, ORDER
from repro.workload.tpcw import (
    BROWSE_INTERACTIONS,
    BROWSING_MIX,
    INTERACTIONS,
    MarkovSessionModel,
    ORDER_INTERACTIONS,
    ORDERING_MIX,
    SHOPPING_MIX,
    STANDARD_MIXES,
    TrafficMix,
    _FLOW_EDGES,
    make_unknown_mix,
)


class TestInteractionTable:
    def test_fourteen_interactions(self):
        assert len(INTERACTIONS) == 14

    def test_class_split_six_eight(self):
        assert len(BROWSE_INTERACTIONS) == 6
        assert len(ORDER_INTERACTIONS) == 8

    def test_categories_consistent(self):
        for name in BROWSE_INTERACTIONS:
            assert INTERACTIONS[name].category == BROWSE
        for name in ORDER_INTERACTIONS:
            assert INTERACTIONS[name].category == ORDER

    def test_browse_class_is_db_heavy(self):
        browse_db = np.mean(
            [INTERACTIONS[n].db_demand for n in BROWSE_INTERACTIONS]
        )
        browse_app = np.mean(
            [INTERACTIONS[n].app_demand for n in BROWSE_INTERACTIONS]
        )
        assert browse_db > 2 * browse_app

    def test_order_class_is_app_heavy(self):
        order_db = np.mean(
            [INTERACTIONS[n].db_demand for n in ORDER_INTERACTIONS]
        )
        order_app = np.mean(
            [INTERACTIONS[n].app_demand for n in ORDER_INTERACTIONS]
        )
        assert order_app > 2 * order_db


class TestTrafficMix:
    def test_standard_mix_fractions(self):
        assert BROWSING_MIX.browse_fraction == 0.95
        assert SHOPPING_MIX.browse_fraction == 0.80
        assert ORDERING_MIX.browse_fraction == 0.50
        assert set(STANDARD_MIXES) == {"browsing", "shopping", "ordering"}

    def test_probabilities_sum_to_one(self):
        for mix in STANDARD_MIXES.values():
            assert sum(mix.probabilities().values()) == pytest.approx(1.0)

    def test_probabilities_respect_class_split(self):
        probs = BROWSING_MIX.probabilities()
        browse_mass = sum(probs[n] for n in BROWSE_INTERACTIONS)
        assert browse_mass == pytest.approx(0.95)

    def test_sampling_matches_distribution(self, rng):
        samples = [ORDERING_MIX.sample(rng) for _ in range(4000)]
        browse_frac = np.mean([s.category == BROWSE for s in samples])
        assert browse_frac == pytest.approx(0.5, abs=0.03)

    def test_mean_demands_ordering_vs_browsing(self):
        browsing = BROWSING_MIX.mean_demands()
        ordering = ORDERING_MIX.mean_demands()
        assert browsing["db"] > ordering["db"]
        assert ordering["app"] > browsing["app"]

    def test_with_browse_fraction(self):
        mix = ORDERING_MIX.with_browse_fraction(0.7)
        assert mix.browse_fraction == 0.7
        assert ORDERING_MIX.browse_fraction == 0.5  # original untouched

    def test_invalid_fraction_rejected(self):
        with pytest.raises(ValueError):
            TrafficMix("bad", browse_fraction=1.5)

    def test_weights_normalized(self):
        mix = TrafficMix(
            "w",
            browse_fraction=0.5,
            browse_weights={n: 2.0 for n in BROWSE_INTERACTIONS},
        )
        assert sum(mix.browse_weights.values()) == pytest.approx(1.0)

    def test_negative_weights_rejected(self):
        weights = {n: 1.0 for n in BROWSE_INTERACTIONS}
        weights["home"] = -1.0
        with pytest.raises(ValueError):
            TrafficMix("bad", browse_fraction=0.5, browse_weights=weights)


class TestUnknownMix:
    def test_deterministic_per_seed(self):
        a = make_unknown_mix(seed=3)
        b = make_unknown_mix(seed=3)
        assert a.probabilities() == b.probabilities()

    def test_differs_from_training_extremes(self):
        mix = make_unknown_mix()
        assert mix.browse_fraction not in (
            BROWSING_MIX.browse_fraction,
            ORDERING_MIX.browse_fraction,
        )
        assert mix.browse_weights != BROWSING_MIX.browse_weights

    def test_different_seeds_differ(self):
        assert (
            make_unknown_mix(seed=1).probabilities()
            != make_unknown_mix(seed=2).probabilities()
        )


class TestMarkovSessionModel:
    def test_zero_continuity_is_iid(self):
        model = MarkovSessionModel(ORDERING_MIX, continuity=0.0)
        pi = model.stationary_distribution()
        probs = ORDERING_MIX.probabilities()
        for name, p in pi.items():
            assert p == pytest.approx(probs[name], abs=1e-9)

    def test_transition_matrix_is_row_stochastic(self):
        model = MarkovSessionModel(BROWSING_MIX, continuity=0.3)
        matrix = model.transition_matrix()
        assert np.allclose(matrix.sum(axis=1), 1.0)
        assert (matrix >= 0).all()

    def test_stationary_browse_fraction_near_target(self):
        for mix in (BROWSING_MIX, ORDERING_MIX):
            model = MarkovSessionModel(mix, continuity=0.3)
            frac = model.stationary_browse_fraction()
            assert frac == pytest.approx(mix.browse_fraction, abs=0.12)

    def test_next_follows_flow_edges_sometimes(self, rng):
        model = MarkovSessionModel(ORDERING_MIX, continuity=0.9)
        current = INTERACTIONS["search_request"]
        follow = sum(
            model.next(current, rng).name == "search_results"
            for _ in range(300)
        )
        assert follow > 200

    def test_invalid_continuity_rejected(self):
        with pytest.raises(ValueError):
            MarkovSessionModel(ORDERING_MIX, continuity=1.0)

    def test_first_interaction_valid(self, rng):
        model = MarkovSessionModel(SHOPPING_MIX)
        for _ in range(20):
            assert model.first(rng).name in INTERACTIONS


def _choice_reference(mix, rng):
    """The draw before the CDF was kept: ``Generator.choice`` over the 14
    interactions with the mix's probabilities, rebuilt on every call."""
    names = list(INTERACTIONS)
    probs = mix.probabilities()
    return INTERACTIONS[names[rng.choice(len(names), p=[probs[n] for n in names])]]


def _first_reference(model, rng):
    return (
        INTERACTIONS["home"]
        if rng.uniform() < 0.5
        else _choice_reference(model.mix, rng)
    )


def _next_reference(model, current, rng):
    if rng.uniform() < model.continuity:
        follow = _FLOW_EDGES.get(current.name)
        if follow is not None:
            return INTERACTIONS[follow]
    return _choice_reference(model.mix, rng)


class _FixedDraw:
    """Stands in for a generator whose ``random()`` returns ``value``."""

    def __init__(self, value):
        self.value = value

    def random(self):
        return self.value


#: the standard mixes, two unknown mixes and a copy; shopping's and
#: unknown-19's probabilities sum to one ulp off 1.0
DRAW_MIXES = [
    BROWSING_MIX,
    SHOPPING_MIX,
    ORDERING_MIX,
    make_unknown_mix(seed=7),
    make_unknown_mix(seed=19),
    ORDERING_MIX.with_browse_fraction(0.6),
]


class TestDrawsAgainstReference:
    @pytest.mark.parametrize("mix", DRAW_MIXES, ids=lambda m: m.name)
    def test_sample_equals_choice_draw_for_draw(self, mix):
        for seed in range(5):
            rng = np.random.default_rng(seed)
            ref = np.random.default_rng(seed)
            for _ in range(2000):
                assert mix.sample(rng) is _choice_reference(mix, ref)
            assert rng.bit_generator.state == ref.bit_generator.state

    @pytest.mark.parametrize("mix", DRAW_MIXES, ids=lambda m: m.name)
    def test_sample_cuts_where_choice_cuts(self, mix):
        """Draws at and beside every CDF step land where choice's
        normalized CDF puts them, up to the largest draw below 1."""
        names = list(INTERACTIONS)
        probs = mix.probabilities()
        cdf = np.array([probs[n] for n in names]).cumsum()
        cdf /= cdf[-1]  # as Generator.choice builds it
        draws = {0.0, float(np.nextafter(1.0, 0.0))}
        for step in cdf:
            for u in (np.nextafter(step, 0.0), step, np.nextafter(step, 1.0)):
                if u < 1.0:
                    draws.add(float(u))
        for u in sorted(draws):
            expected = names[int(cdf.searchsorted(u, side="right"))]
            assert mix.sample(_FixedDraw(u)) is INTERACTIONS[expected]

    def test_kept_cdf_is_not_a_field(self):
        mix = make_unknown_mix(seed=7)
        assert [f.name for f in dataclasses.fields(mix)] == [
            "name", "browse_fraction", "browse_weights", "order_weights"
        ]
        assert set(dataclasses.asdict(mix)) == {
            "name", "browse_fraction", "browse_weights", "order_weights"
        }
        assert mix == make_unknown_mix(seed=7)
        assert mix != make_unknown_mix(seed=8)

    @pytest.mark.parametrize("mix", DRAW_MIXES[:4], ids=lambda m: m.name)
    @pytest.mark.parametrize("continuity", [0.0, 0.3, 0.9])
    def test_session_walk_equals_uniform_reference(self, mix, continuity):
        model = MarkovSessionModel(mix, continuity=continuity)
        for seed in range(3):
            rng = np.random.default_rng(seed)
            ref = np.random.default_rng(seed)
            current = model.first(rng)
            expected = _first_reference(model, ref)
            assert current is expected
            for step in range(1500):
                if step % 50 == 0:
                    current = model.first(rng)
                    expected = _first_reference(model, ref)
                else:
                    current = model.next(current, rng)
                    expected = _next_reference(model, expected, ref)
                assert current is expected
            assert rng.bit_generator.state == ref.bit_generator.state
