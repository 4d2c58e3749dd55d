"""Bayesian belief filtering: the scalar filter and the batch pass."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.belief import (
    BELIEF_CEIL,
    BELIEF_FLOOR,
    BeliefState,
    guarded_belief_pass,
)
from repro.core.parameters import BlockParameters


def make_params(p_empty=0.001, noise=1e-5, prior_down=0.002,
                prior_up=0.08, **kwargs):
    return BlockParameters(
        bin_seconds=300.0, p_empty_up=p_empty, noise_nonempty=noise,
        prior_down=prior_down, prior_up_recovery=prior_up, **kwargs)


class TestScalar:
    def test_traffic_keeps_belief_up(self):
        state = BeliefState(make_params())
        for _ in range(100):
            assert state.update(3)
        assert state.belief > 0.99

    def test_silence_drives_down(self):
        state = BeliefState(make_params())
        flips = 0
        for _ in range(5):
            if not state.update(0):
                flips += 1
        assert flips > 0
        assert state.belief < 0.1

    def test_recovery_flips_up(self):
        state = BeliefState(make_params())
        while state.update(0):
            pass
        assert state.update(5)
        assert state.belief > 0.9

    def test_hysteresis_no_flapping(self):
        # A block with weak evidence should hold its state between the
        # thresholds rather than oscillating.
        params = make_params(p_empty=0.5)
        state = BeliefState(params)
        states = [state.update(count) for count in (0, 1, 0, 1, 0, 1)]
        assert all(states)  # never confidently down

    def test_belief_clamped(self):
        state = BeliefState(make_params())
        for _ in range(1000):
            state.update(10)
        assert state.belief <= BELIEF_CEIL
        for _ in range(1000):
            state.update(0)
        assert state.belief >= BELIEF_FLOOR

    def test_count_strengthens_evidence(self):
        weak = BeliefState(make_params())
        strong = BeliefState(make_params())
        # pull both down first
        for state in (weak, strong):
            while state.update(0):
                pass
        weak.update(1)
        strong.update(50)
        assert strong.belief >= weak.belief

    def test_time_varying_override(self):
        state = BeliefState(make_params())
        # quiet-hour override: empty bin is expected, belief barely moves
        before = state.belief
        state.update(0, p_empty_up=0.999999)
        assert state.belief == pytest.approx(before, abs=0.01)
        assert state.is_up


class TestVector:
    def test_matches_scalar_exactly(self):
        rng = np.random.default_rng(8)
        n_blocks, n_bins = 7, 60
        counts = rng.poisson(2.0, size=(n_blocks, n_bins))
        counts[:, 20:30] = 0  # an outage window
        p_empty = rng.uniform(1e-4, 0.05, n_blocks)
        noise = rng.uniform(1e-6, 1e-4, n_blocks)
        prior_down = np.full(n_blocks, 0.002)
        prior_up = np.full(n_blocks, 0.08)

        states, beliefs, _ = guarded_belief_pass(
            counts, p_empty, noise, prior_down, prior_up,
            return_beliefs=True)

        for row in range(n_blocks):
            scalar = BeliefState(make_params(
                p_empty=float(p_empty[row]), noise=float(noise[row])))
            for bin_index in range(n_bins):
                is_up = scalar.update(int(counts[row, bin_index]))
                assert is_up == states[row, bin_index], (row, bin_index)
                assert scalar.belief == pytest.approx(
                    beliefs[row, bin_index], rel=1e-9)

    def test_time_varying_matrix(self):
        counts = np.zeros((1, 48), dtype=int)
        # identical silence, but expected at night (p_empty ~ 1)
        p_empty = np.full((1, 48), 1.0 - 1e-9)
        noise = np.array([1e-5])
        states, _, _ = guarded_belief_pass(
            counts, p_empty, noise, np.array([0.002]), np.array([0.08]))
        assert states.all()  # silence carried no evidence

    def test_shape_validation(self):
        counts = np.zeros((2, 10), dtype=int)
        good = np.ones(2) * 0.01
        with pytest.raises(ValueError):
            guarded_belief_pass(np.zeros(10), good, good, good, good)
        with pytest.raises(ValueError):
            guarded_belief_pass(counts, np.ones(3), good, good, good)
        with pytest.raises(ValueError):
            guarded_belief_pass(counts, np.ones((2, 9)), good, good, good)

    def test_initial_belief_respected(self):
        counts = np.ones((1, 1), dtype=int)
        states, beliefs, _ = guarded_belief_pass(
            np.zeros((1, 3), dtype=int), np.array([0.001]),
            np.array([1e-5]), np.array([0.002]), np.array([0.08]),
            initial_belief=np.array([0.05]), return_beliefs=True)
        # started almost-down; silence keeps it down immediately
        assert not states[0, 0]


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=20), min_size=1,
                max_size=120),
       st.floats(min_value=1e-6, max_value=0.5),
       st.floats(min_value=1e-8, max_value=1e-3))
def test_vector_scalar_equivalence_property(counts, p_empty, noise):
    """The two engines are the same filter, bit for bit (one block)."""
    matrix = np.array([counts])
    states, beliefs, _ = guarded_belief_pass(
        matrix, np.array([p_empty]), np.array([noise]),
        np.array([0.002]), np.array([0.08]), return_beliefs=True)
    scalar = BeliefState(make_params(p_empty=p_empty, noise=noise))
    for index, count in enumerate(counts):
        is_up = scalar.update(count)
        assert is_up == states[0, index]
        assert 0.0 < beliefs[0, index] < 1.0
        assert scalar.belief == pytest.approx(beliefs[0, index], rel=1e-9)
