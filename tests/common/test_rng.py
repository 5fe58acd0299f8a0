"""Tests for the deterministic RNG helpers."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.rng import DeterministicRng


class TestDeterminism:
    def test_same_seed_same_sequence(self):
        first = DeterministicRng(42)
        second = DeterministicRng(42)
        assert [first.randint(0, 100) for _ in range(10)] == [
            second.randint(0, 100) for _ in range(10)
        ]

    def test_different_seeds_differ(self):
        first = DeterministicRng(1)
        second = DeterministicRng(2)
        assert [first.randint(0, 10_000) for _ in range(5)] != [
            second.randint(0, 10_000) for _ in range(5)
        ]

    def test_fork_is_deterministic_and_independent(self):
        parent_a = DeterministicRng(7)
        parent_b = DeterministicRng(7)
        child_a = parent_a.fork("eos")
        child_b = parent_b.fork("eos")
        other = parent_a.fork("xrp")
        sequence_a = [child_a.random() for _ in range(5)]
        sequence_b = [child_b.random() for _ in range(5)]
        assert sequence_a == sequence_b
        assert sequence_a != [other.random() for _ in range(5)]


class TestDistributions:
    def test_categorical_respects_weights(self):
        rng = DeterministicRng(3)
        draws = [rng.categorical({"a": 0.9, "b": 0.1}) for _ in range(2000)]
        share_a = draws.count("a") / len(draws)
        assert 0.85 < share_a < 0.95

    def test_categorical_single_outcome(self):
        rng = DeterministicRng(3)
        assert rng.categorical({"only": 1.0}) == "only"

    def test_categorical_rejects_empty(self):
        rng = DeterministicRng(3)
        with pytest.raises(ValueError):
            rng.categorical({})

    def test_categorical_rejects_zero_total(self):
        rng = DeterministicRng(3)
        with pytest.raises(ValueError):
            rng.categorical({"a": 0.0})

    def test_zipf_is_skewed_towards_low_indices(self):
        rng = DeterministicRng(5)
        draws = [rng.zipf_index(100, exponent=1.2) for _ in range(3000)]
        share_top = sum(1 for value in draws if value < 10) / len(draws)
        assert share_top > 0.5
        assert all(0 <= value < 100 for value in draws)

    def test_zipf_single_element(self):
        rng = DeterministicRng(5)
        assert rng.zipf_index(1) == 0

    def test_zipf_rejects_empty_population(self):
        rng = DeterministicRng(5)
        with pytest.raises(ValueError):
            rng.zipf_index(0)

    def test_poisson_mean_roughly_matches(self):
        rng = DeterministicRng(11)
        draws = [rng.poisson(6.0) for _ in range(3000)]
        mean = sum(draws) / len(draws)
        assert 5.5 < mean < 6.5

    def test_poisson_zero_mean(self):
        rng = DeterministicRng(11)
        assert rng.poisson(0.0) == 0

    def test_poisson_large_mean_uses_normal_approximation(self):
        rng = DeterministicRng(11)
        draws = [rng.poisson(5_000.0) for _ in range(100)]
        mean = sum(draws) / len(draws)
        assert 4_800 < mean < 5_200

    def test_poisson_rejects_negative(self):
        rng = DeterministicRng(11)
        with pytest.raises(ValueError):
            rng.poisson(-1.0)

    def test_bernoulli_edges(self):
        rng = DeterministicRng(13)
        assert rng.bernoulli(0.0) is False
        assert rng.bernoulli(1.0) is True

    def test_bernoulli_probability(self):
        rng = DeterministicRng(13)
        draws = [rng.bernoulli(0.25) for _ in range(4000)]
        share = sum(draws) / len(draws)
        assert 0.2 < share < 0.3

    def test_exponential_rejects_nonpositive_rate(self):
        rng = DeterministicRng(17)
        with pytest.raises(ValueError):
            rng.exponential(0.0)

    def test_hex_string_length_and_charset(self):
        rng = DeterministicRng(19)
        value = rng.hex_string(40)
        assert len(value) == 40
        assert set(value) <= set("0123456789abcdef")

    def test_pareto_amount_positive(self):
        rng = DeterministicRng(23)
        assert all(rng.pareto_amount(10.0) > 0 for _ in range(100))


# -- draw parity with the pre-table implementations ----------------------------------
#
# The table-driven draws must consume the random stream exactly as the linear
# scans they replaced and return the same values, or every generated store
# changes.  The reference functions below are those scans, kept verbatim.


def reference_zipf_index(random_source, population, exponent):
    if population == 1:
        return 0
    weights = [1.0 / math.pow(rank + 1, exponent) for rank in range(population)]
    total = sum(weights)
    point = random_source.random() * total
    cumulative = 0.0
    for index, weight in enumerate(weights):
        cumulative += weight
        if point < cumulative:
            return index
    return population - 1


def reference_categorical(random_source, weights):
    total = float(sum(weights.values()))
    point = random_source.random() * total
    cumulative = 0.0
    last_key = None
    for key, weight in weights.items():
        cumulative += weight
        last_key = key
        if point < cumulative:
            return key
    return last_key


def reference_hex_string(random_source, length):
    return "".join(random_source.choice("0123456789abcdef") for _ in range(length))


DRAWS = 200


class TestDrawParity:
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**31 - 1),
        population=st.integers(1, 5000),
        exponent=st.floats(0.5, 2.5),
    )
    def test_zipf_index_matches_the_linear_scan(self, seed, population, exponent):
        rng, reference = DeterministicRng(seed), random.Random(seed)
        assert [rng.zipf_index(population, exponent) for _ in range(DRAWS)] == [
            reference_zipf_index(reference, population, exponent) for _ in range(DRAWS)
        ]
        # Both consumed the same number of variates (none when population == 1).
        assert rng.random() == reference.random()

    def test_zipf_table_is_shared_between_rng_instances(self):
        first, second = DeterministicRng(5), DeterministicRng(6)
        reference_first, reference_second = random.Random(5), random.Random(6)
        drawn, expected = [], []
        for _ in range(DRAWS):  # interleaved: both instances read one cached table
            drawn += [first.zipf_index(300, 1.2), second.zipf_index(300, 1.2)]
            expected += [
                reference_zipf_index(reference_first, 300, 1.2),
                reference_zipf_index(reference_second, 300, 1.2),
            ]
        assert drawn == expected

    @pytest.mark.parametrize("point", [1.0 - 2**-53, 0.0])
    def test_zipf_edge_points_stay_in_range(self, point):
        # The largest variate random() can return lands in the last bucket or
        # in the float slack past it; either way the last index comes back.
        class Pinned(random.Random):
            def random(self):
                return point

        for population, exponent in [(2, 0.5), (200, 1.2), (5000, 2.5)]:
            rng = DeterministicRng(0)
            rng._random = Pinned(0)
            assert rng.zipf_index(population, exponent) == reference_zipf_index(
                Pinned(0), population, exponent
            )

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**31 - 1),
        weights=st.dictionaries(
            st.text(max_size=4),
            st.one_of(st.just(0.0), st.floats(1e-9, 1e6), st.integers(0, 50)),
            min_size=1,
            max_size=12,
        ).filter(lambda weights: sum(weights.values()) > 0),
    )
    def test_categorical_matches_the_resumming_scan(self, seed, weights):
        rng, reference = DeterministicRng(seed), random.Random(seed)
        assert [rng.categorical(weights) for _ in range(DRAWS)] == [
            reference_categorical(reference, weights) for _ in range(DRAWS)
        ]

    def test_categorical_sees_a_key_added_or_removed(self):
        weights = {"a": 1.0}
        rng = DeterministicRng(1)
        assert rng.categorical(weights) == "a"
        weights["b"] = 1e12
        assert [rng.categorical(weights) for _ in range(20)] == ["b"] * 20
        del weights["a"]
        assert rng.categorical(weights) == "b"

    def test_categorical_rejects_negative_weights(self):
        with pytest.raises(ValueError):
            DeterministicRng(1).categorical({"a": 2.0, "b": -1.0})

    @given(seed=st.integers(0, 2**31 - 1), length=st.integers(0, 80))
    def test_hex_string_matches_choice_per_character(self, seed, length):
        rng, reference = DeterministicRng(seed), random.Random(seed)
        assert rng.hex_string(length) == reference_hex_string(reference, length)
        assert rng.random() == reference.random()
