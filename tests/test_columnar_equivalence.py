"""Scalar-oracle ≡ columnar-engine equivalence pins.

The array kernels of ``repro.core.belief`` drive every array path: the
columnar streaming engine batches each bin close that shares a
boundary into one kernel call, and the batch passes call the same
kernels once per bin.  The contract is *bit-for-bit* agreement with
the scalar :class:`~repro.core.belief.BeliefState` oracle — not
tolerance-close: numpy evaluates the same float expression identically
for array and scalar operands, so any observed difference is a real
divergence (a reordered operation, a flipped comparison) and must be
fixed on the engine side, never absorbed by widening the oracle.

Pinned here:

* kernel-level ``BeliefState.update`` ≡ ``columnar_update`` under
  hypothesis-generated inputs, including exact-threshold hysteresis,
  degenerate clamped ``p_empty`` and no-evidence (NaN, inf, negative)
  counts;
* ``bin_log_likelihood_ratio``/``fused_posterior`` ≡ their columnar
  forms, and the batch ``fused_belief_pass`` ≡ a per-block loop over
  them, freeze on gated bins included;
* whole-detector runs (base and fused) of the production engine
  against the block-at-a-time scalar detectors of
  :mod:`tests.scalar_oracle`, with hot swaps, quarantine, and
  checkpoint kill-and-resume producing byte-identical state;
* scalar↔columnar checkpoint compatibility in both directions,
  including mid-quarantine and pending-swap state;
* a poisoned history dead-lettered by the close screen with the
  scalar path's exact entry, and a malformed profile dead-lettered
  without disturbing its cohort;
* ``ParameterPlanner.plan_batch`` ≡ per-block ``plan_block``; and the
  tune-stage timer counting only successful fits.
"""

import copy
import json
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.belief import (
    BELIEF_CEIL,
    BeliefState,
    bin_log_likelihood_ratio,
    columnar_fused_posterior,
    columnar_llr,
    columnar_update,
    fused_belief_pass,
    fused_posterior,
)
from repro.core.checkpoint import (
    apply_checkpoint_state,
    detector_from_json,
    detector_to_json,
    parse_checkpoint_document,
)
from repro.core.detector import StreamingDetector
from repro.core.history import train_history
from repro.core.parameters import BlockParameters, ParameterPlanner
from repro.core.pipeline import PassiveOutagePipeline
from repro.net.addr import Family
from repro.obs.metrics import MetricsRegistry
from repro.telescope.records import Observation
from repro.traffic.sources import poisson_times, suppress_intervals
from tests.scalar_oracle import (
    ScalarFusedStreamingDetector,
    ScalarStreamingDetector,
)

DAY = 86400.0

_prob = st.floats(min_value=0.0, max_value=1.0)
_count = st.integers(min_value=0, max_value=50)
#: counts the scalar update treats as no evidence.
_no_evidence = st.sampled_from(
    [float("nan"), float("inf"), float("-inf"), -1, -7, -0.5])
_belief = st.floats(min_value=1e-6, max_value=1.0 - 1e-6)


def _params(noise=1e-3, down=0.1, up=0.9, p_empty=0.02):
    return BlockParameters(
        bin_seconds=600.0, p_empty_up=p_empty, noise_nonempty=noise,
        prior_down=0.01, prior_up_recovery=0.05,
        down_threshold=down, up_threshold=up)


def _scalar_update(params, belief, is_up, count, p_empty):
    state = BeliefState(params)
    state.belief = belief
    state.is_up = is_up
    state.update(count, p_empty)
    return state.belief, state.is_up, state.guardrail_trips


class TestKernelEquivalence:
    @settings(max_examples=200, deadline=None)
    @given(belief=_belief, is_up=st.booleans(),
           count=st.one_of(_count, _no_evidence),
           p_empty=st.one_of(_prob, st.sampled_from(
               [0.0, 1.0, 1e-9, 1.0 - 1e-9])),
           noise=st.floats(min_value=1e-9, max_value=0.5))
    def test_update_bitwise(self, belief, is_up, count, p_empty, noise):
        params = _params(noise=noise)
        s_belief, s_up, s_trips = _scalar_update(
            params, belief, is_up, count, p_empty)
        c_belief, c_up, c_trips = columnar_update(
            np.array([belief]), np.array([is_up]),
            np.array([count], dtype=type(count)), np.array([p_empty]),
            np.array([params.noise_nonempty]),
            np.array([params.prior_down]),
            np.array([params.prior_up_recovery]),
            np.array([params.down_threshold]),
            np.array([params.up_threshold]))
        assert float(c_belief[0]) == s_belief
        assert bool(c_up[0]) == s_up
        assert int(c_trips[0]) == s_trips

    @settings(max_examples=200, deadline=None)
    @given(belief=_belief, is_up=st.booleans(), count=_count,
           p_empty=_prob, seed=st.integers(min_value=0, max_value=2 ** 16))
    def test_exact_threshold_hysteresis(self, belief, is_up, count,
                                        p_empty, seed):
        """The divergence audit: re-run the same update with the
        posterior itself installed as the hysteresis threshold, so the
        ``<=``/``>`` (down) and ``>=`` (up) boundary cases fire exactly.
        The scalar branch ``not (belief <= down)`` and the columnar
        ``belief > down`` must flip identically on equality."""
        probe = _params()
        posterior, _, _ = _scalar_update(probe, belief, is_up, count,
                                         p_empty)
        up_of = np.nextafter(posterior, 2.0)
        down_of = np.nextafter(posterior, -1.0)
        cases = [(posterior, up_of), (down_of, posterior)]
        rng = random.Random(seed)
        down_thr, up_thr = cases[rng.randrange(2)]
        params = _params(down=float(down_thr), up=float(up_thr))
        s_belief, s_up, s_trips = _scalar_update(
            params, belief, is_up, count, p_empty)
        c_belief, c_up, c_trips = columnar_update(
            np.array([belief]), np.array([is_up]),
            np.array([count], dtype=np.int64), np.array([p_empty]),
            np.array([params.noise_nonempty]),
            np.array([params.prior_down]),
            np.array([params.prior_up_recovery]),
            np.array([params.down_threshold]),
            np.array([params.up_threshold]))
        assert float(c_belief[0]) == s_belief == posterior
        assert bool(c_up[0]) == s_up
        assert int(c_trips[0]) == s_trips

    @settings(max_examples=200, deadline=None)
    @given(count=_count,
           p_empty=st.floats(min_value=1e-12, max_value=1.0),
           noise=st.floats(min_value=1e-12, max_value=1.0))
    def test_llr_bitwise(self, count, p_empty, noise):
        scalar = bin_log_likelihood_ratio(count, p_empty, noise)
        vector = columnar_llr(np.array([count], dtype=np.int64),
                              np.array([p_empty]), np.array([noise]))
        assert float(vector[0]) == scalar

    @settings(max_examples=200, deadline=None)
    @given(belief=_belief, is_up=st.booleans(),
           llr=st.floats(min_value=-50.0, max_value=50.0))
    def test_fused_posterior_bitwise(self, belief, is_up, llr):
        scalar = fused_posterior(belief, llr, 0.01, 0.05)
        s_up = (not (scalar <= 0.1)) if is_up else (scalar >= 0.9)
        vector, v_up = columnar_fused_posterior(
            np.array([belief]), np.array([is_up]), np.array([llr]),
            np.array([0.01]), np.array([0.05]),
            np.array([0.1]), np.array([0.9]))
        assert float(vector[0]) == scalar
        assert bool(v_up[0]) == s_up


def _fused_oracle(counts_by_source, p_by_source, noise_by_source,
                  weights_by_source, prior_down, prior_up,
                  down=0.1, up=0.9):
    """Per-block scalar loop of the fused filter, as the streaming
    engine's scalar close runs it: gated sources are skipped, the rest
    summed from zero in source order, and a bin with no contributing
    source freezes belief and verdict."""
    n_blocks, n_bins = counts_by_source[0].shape
    states = np.empty((n_blocks, n_bins), dtype=bool)
    beliefs = np.empty((n_blocks, n_bins))
    for row in range(n_blocks):
        belief, is_up = BELIEF_CEIL, True
        for column in range(n_bins):
            weighted, contributed = 0.0, False
            for counts, p_empty, noise, weights in zip(
                    counts_by_source, p_by_source, noise_by_source,
                    weights_by_source):
                weight = float(weights[row, column] if weights.ndim == 2
                               else weights[column])
                if weight <= 0.0:
                    continue
                contributed = True
                p = p_empty[row, column] if p_empty.ndim == 2 else p_empty[row]
                weighted += weight * bin_log_likelihood_ratio(
                    int(counts[row, column]), float(p), float(noise[row]))
            if contributed:
                belief = fused_posterior(belief, weighted,
                                         float(prior_down[row]),
                                         float(prior_up[row]))
                if is_up and belief <= down:
                    is_up = False
                elif not is_up and belief >= up:
                    is_up = True
            states[row, column] = is_up
            beliefs[row, column] = belief
    return states, beliefs


class TestFusedPassEquivalence:
    @settings(max_examples=100, deadline=None)
    @given(n_blocks=st.integers(min_value=1, max_value=5),
           n_bins=st.integers(min_value=1, max_value=40),
           shapes=st.lists(st.tuples(st.booleans(), st.booleans()),
                           min_size=1, max_size=3),
           seed=st.integers(min_value=0, max_value=2 ** 32 - 1))
    def test_fused_pass_matches_scalar_oracle(self, n_blocks, n_bins,
                                              shapes, seed):
        """Batch fused pass ≡ the scalar oracle loop, bit for bit, over
        1–3 sources with vector or matrix ``p_empty``, population or
        per-block weights, and zero-weight (gated) bins."""
        rng = np.random.default_rng(seed)
        counts_by_source, p_by_source, noise_by_source = [], [], []
        weights_by_source = []
        for matrix_p, matrix_weights in shapes:
            counts = rng.poisson(rng.uniform(0.0, 3.0), (n_blocks, n_bins))
            start = int(rng.integers(0, n_bins))
            counts[:, start:start + int(rng.integers(0, 12))] = 0
            counts_by_source.append(counts)
            p_by_source.append(rng.uniform(1e-4, 0.9, (n_blocks, n_bins)
                                           if matrix_p else n_blocks))
            noise_by_source.append(rng.uniform(1e-6, 1e-2, n_blocks))
            weights = rng.uniform(0.0, 1.0, (n_blocks, n_bins)
                                  if matrix_weights else n_bins)
            weights[rng.random(weights.shape) < 0.3] = 0.0
            weights_by_source.append(weights)
        prior_down = rng.uniform(1e-3, 0.05, n_blocks)
        prior_up = rng.uniform(0.01, 0.2, n_blocks)
        states, beliefs, poisoned = fused_belief_pass(
            counts_by_source, p_by_source, noise_by_source,
            weights_by_source, prior_down, prior_up, return_beliefs=True)
        o_states, o_beliefs = _fused_oracle(
            counts_by_source, p_by_source, noise_by_source,
            weights_by_source, prior_down, prior_up)
        assert not poisoned.any()
        assert np.array_equal(states, o_states)
        assert beliefs.tobytes() == o_beliefs.tobytes()


# ---------------------------------------------------------------------------
# whole-detector equivalence
# ---------------------------------------------------------------------------


def _world(seed, blocks=12, outage_frac=0.4):
    """Train histories/parameters over day 1, eval packets over day 2,
    with an outage injected into a fraction of the blocks."""
    rng = np.random.default_rng(seed)
    train, evaluate = {}, {}
    for key in range(1, blocks + 1):
        rate = 0.01 + 0.02 * (key % 5)
        train[key] = poisson_times(rng, rate, 0, DAY)
        times = poisson_times(rng, rate, DAY, 2 * DAY)
        if key <= int(blocks * outage_frac):
            times = suppress_intervals(
                times, [(DAY + 30000.0, DAY + 45000.0)])
        evaluate[key] = times
    histories = {}
    parameters = {}
    planner = ParameterPlanner()
    for key, times in train.items():
        histories[key] = train_history(times, 0, DAY)
    parameters = planner.plan(histories)
    return histories, parameters, evaluate


def _drive(detector, evaluate, seed, swap=None, end=2 * DAY):
    """Interleave observes and advances on a jittered schedule, with an
    optional mid-run hot swap, mirroring how the live engine drives a
    detector."""
    events = sorted(
        (float(t), key) for key, times in evaluate.items() for t in times)
    rng = random.Random(seed)
    i = 0
    t = DAY
    swapped = False
    while t < end:
        t += 450.0
        while i < len(events) and events[i][0] <= t:
            when, key = events[i]
            detector.observe(Observation(when, Family.IPV4, key << 8))
            i += 1
        if swap is not None and not swapped and t >= DAY + 20000.0:
            for key, history, params in swap:
                detector.hot_swap(key, history, params)
            swapped = True
        if rng.random() < 0.8:
            detector.advance(min(t, end))
    detector.advance(end)


#: the detector class each side of a comparison runs, by ``columnar``.
_ENGINES = {False: ScalarStreamingDetector, True: StreamingDetector}


def _state_fingerprint(detector):
    return {
        key: (state.belief.belief, state.belief.is_up,
              state.belief.guardrail_trips, state.next_bin_end,
              state.bin_count, state.first_packet_this_bin,
              state.last_packet, tuple(state.transitions))
        for key, state in detector._states.items()
    }


@pytest.fixture(scope="module")
def world():
    return _world(seed=5)


class TestDetectorEquivalence:
    def test_scalar_and_columnar_runs_are_bit_identical(self, world):
        histories, parameters, evaluate = world
        results = {}
        for columnar in (False, True):
            detector = _ENGINES[columnar](Family.IPV4, histories,
                                          parameters, DAY)
            _drive(detector, evaluate, seed=9)
            results[columnar] = (
                _state_fingerprint(detector),
                detector.windows_closed,
                detector_to_json(detector),
                detector.finalize(2 * DAY),
            )
        assert results[False][0] == results[True][0]
        assert results[False][1] == results[True][1]
        assert results[False][2] == results[True][2]
        scalar_final, columnar_final = results[False][3], results[True][3]
        assert sorted(scalar_final) == sorted(columnar_final)
        for key in scalar_final:
            assert (scalar_final[key].timeline.down_intervals
                    == columnar_final[key].timeline.down_intervals)

    def test_hot_swap_boundaries_are_bit_identical(self, world):
        histories, parameters, evaluate = world
        swap_keys = sorted(histories)[:4]
        swap = [(key, histories[key], parameters[key])
                for key in swap_keys if parameters[key].measurable]
        fingerprints = {}
        for columnar in (False, True):
            detector = _ENGINES[columnar](Family.IPV4, histories,
                                          parameters, DAY)
            _drive(detector, evaluate, seed=13, swap=swap)
            fingerprints[columnar] = (_state_fingerprint(detector),
                                      detector_to_json(detector))
        assert fingerprints[False] == fingerprints[True]

    def test_kill_and_resume_is_bit_identical(self, world):
        """Checkpoint mid-run, restore into the *other* engine, finish,
        and compare: scalar↔columnar checkpoints are interchangeable in
        both directions (satellite: checkpoint compatibility)."""
        histories, parameters, evaluate = world
        finals = {}
        for columnar in (False, True):
            detector = _ENGINES[columnar](Family.IPV4, histories,
                                          parameters, DAY)
            _drive(detector, evaluate, seed=21, end=DAY + 40000.0)
            snapshot = detector_to_json(detector)
            # Cross the engines: a scalar checkpoint resumes columnar
            # and vice versa.
            if columnar:
                resumed = ScalarStreamingDetector(Family.IPV4, histories,
                                                  parameters, DAY)
                apply_checkpoint_state(resumed,
                                       parse_checkpoint_document(snapshot))
            else:
                resumed = detector_from_json(snapshot, histories,
                                             parameters)
            tail = {key: [t for t in times
                          if t > resumed.last_time]
                    for key, times in evaluate.items()}
            _drive(resumed, tail, seed=22)
            finals[columnar] = (snapshot, _state_fingerprint(resumed),
                                detector_to_json(resumed))
        scalar_snapshot, scalar_fp, scalar_final = finals[False]
        columnar_snapshot, columnar_fp, columnar_final = finals[True]
        assert scalar_snapshot == columnar_snapshot
        assert scalar_fp == columnar_fp
        assert scalar_final == columnar_final

    def test_quarantine_and_pending_swap_state_round_trips(self, world):
        """Mid-quarantine and pending-hot-swap state lands identically
        in both engines' checkpoints."""
        shared_histories, parameters, evaluate = world
        documents = {}
        for columnar in (False, True):
            # Each engine gets its own copy: the poison below mutates
            # history objects in place.
            histories = copy.deepcopy(shared_histories)
            detector = _ENGINES[columnar](Family.IPV4, histories,
                                          parameters, DAY)
            _drive(detector, evaluate, seed=31, end=DAY + 30000.0)
            # Poison one block so its next close quarantines it (a
            # diurnal profile routes the NaN summary into the
            # likelihood, which the scalar oracle rejects) ...
            key = max(k for k, s in detector._states.items())
            victim = min(k for k in detector._states if k != key)
            victim_state = detector._states[victim]
            victim_state.history.diurnal_profile = np.ones(24)
            victim_state.history.mean_rate = float("nan")
            detector._invalidate_cohorts()
            detector.advance(DAY + 40000.0)
            assert victim in detector.dead_letters.keys()
            # ... and park a swap that stays PENDING (no bin close
            # between here and the checkpoint).
            detector.hot_swap(key, histories[key], parameters[key])
            documents[columnar] = json.loads(detector_to_json(detector))
        assert documents[False] == documents[True]
        assert documents[True]["pending_swaps"] is not None

    def test_unclean_history_is_dead_lettered_at_close(self, world):
        """A history whose likelihood comes out non-finite is screened
        at its first close and dead-lettered with the scalar oracle's
        exact entry; the rest of the cohort closes without it."""
        entries = {}
        for columnar in (False, True):
            histories = copy.deepcopy(world[0])
            parameters = world[1]
            key = next(k for k in histories if parameters[k].measurable)
            detector = _ENGINES[columnar](Family.IPV4, histories,
                                          parameters, DAY)
            state = detector._states[key]
            state.history.diurnal_profile = np.ones(24)
            state.history.mean_rate = float("nan")
            detector.advance(DAY + 7200.0)
            assert detector.dead_letters.keys() == [key]
            entries[columnar] = (detector.dead_letters.entries,
                                 _state_fingerprint(detector))
        assert entries[False] == entries[True]
        (entry,), _ = entries[True]
        assert entry.error_type == "BlockDataError"
        assert entry.error.startswith("non-finite p_empty_up nan")

    def test_malformed_profile_is_dead_lettered_at_close(self, world):
        """A profile that is not 24 numbers lays out as NaN factors, so
        the close screen dead-letters its block and the rest of the
        cohort closes exactly as in a clean run."""
        histories, parameters, _ = world
        clean = StreamingDetector(Family.IPV4, histories, parameters, DAY)
        clean.advance(DAY + 7200.0)
        histories = copy.deepcopy(histories)
        key = next(k for k in histories if parameters[k].measurable)
        histories[key].diurnal_profile = np.ones(23)
        detector = StreamingDetector(Family.IPV4, histories, parameters,
                                     DAY)
        detector.advance(DAY + 7200.0)
        (entry,) = detector.dead_letters.entries
        assert (entry.block_key, entry.error_type) == (key,
                                                       "BlockDataError")
        survivors = _state_fingerprint(clean)
        del survivors[key]
        assert _state_fingerprint(detector) == survivors


# ---------------------------------------------------------------------------
# fused detector equivalence
# ---------------------------------------------------------------------------


class TestFusedEquivalence:
    def test_fused_scalar_and_columnar_runs_are_bit_identical(self):
        from repro.fusion import (
            DarknetSource,
            FusedStreamingDetector,
            MappingSource,
            train_fused,
        )
        from repro.traffic.darknet import DarknetTelescope
        from repro.traffic.internet import (
            FamilyConfig,
            InternetConfig,
            SimulatedInternet,
        )
        from repro.traffic.outages import IPV4_OUTAGE_MODEL

        family = Family.IPV4
        shift = family.bits - family.default_block_prefix
        config = InternetConfig(
            end=140000.0, training_seconds=110000.0, seed=7,
            ipv4=FamilyConfig(n_blocks=12,
                              outage_model=IPV4_OUTAGE_MODEL))
        internet = SimulatedInternet.build(config)
        eval_start, end = config.eval_start, config.end
        dns = MappingSource(
            "dns",
            {p.key: t for p, t in internet.passive_observations(seed=11)},
            family=family)
        darknet = DarknetSource(DarknetTelescope(internet), seed=23)
        model = train_fused([dns, darknet], family, 0.0, eval_start)
        events = []
        for name, adapter in (("dns", dns), ("darknet", darknet)):
            for key, times in adapter.per_block(family, eval_start,
                                                end).items():
                events.extend((float(t), name, key) for t in times)
        events.sort()

        results = {}
        engines = {False: ScalarFusedStreamingDetector,
                   True: FusedStreamingDetector}
        for columnar in (False, True):
            detector = engines[columnar](model, eval_start)
            rng = random.Random(5)
            i = 0
            t = eval_start
            while t < end:
                t += 700.0
                while i < len(events) and events[i][0] <= t:
                    when, name, key = events[i]
                    detector.observe_from(
                        name, Observation(when, family, key << shift))
                    i += 1
                if rng.random() < 0.8:
                    detector.advance(min(t, end))
            detector.advance(end)
            results[columnar] = (
                _state_fingerprint(detector),
                dict(detector._source_counts),
                {name: (monitor.weight, monitor.gated_bins)
                 for name, monitor in detector.monitors.items()},
                detector.windows_closed,
                detector_to_json(detector),
            )
        assert results[False] == results[True]


# ---------------------------------------------------------------------------
# planner batch ≡ scalar plan
# ---------------------------------------------------------------------------


class TestPlanBatch:
    def test_plan_batch_matches_plan_block(self, world):
        histories, _, _ = world
        planner = ParameterPlanner()
        planned, errors = planner.plan_batch(histories)
        assert not errors
        for key, history in histories.items():
            assert planned[key] == planner.plan_block(history)

    def test_plan_batch_reports_scalar_errors(self, world):
        histories, _, _ = world
        poisoned = dict(histories)
        key = min(histories)
        bad = train_history(
            np.array(sorted(np.random.default_rng(3).uniform(
                0, DAY, 500))), 0, DAY)
        bad.mean_rate = float("nan")
        poisoned[key] = bad
        planner = ParameterPlanner()
        planned, errors = planner.plan_batch(poisoned)
        assert key in errors and key not in planned
        with pytest.raises(type(errors[key])) as caught:
            planner.plan_block(bad)
        assert str(caught.value) == str(errors[key])


class TestTuneTimer:
    def test_tune_timer_counts_only_successful_fits(self):
        """Satellite pin: ``tune_block_seconds`` must observe one
        sample per *successful* fit — blocks whose fit raised used to
        leak into the histogram and drag its quantiles down."""
        rng = np.random.default_rng(11)
        per_block = {key << 8: poisson_times(rng, 0.05, 0.0, DAY)
                     for key in range(1, 7)}
        registry = MetricsRegistry()
        pipeline = PassiveOutagePipeline(metrics=registry)
        model = pipeline.train(Family.IPV4, per_block, 0.0, DAY)
        tune = model.health.stage("tune")
        ((_, histogram),) = registry.get("tune_block_seconds").series()
        assert histogram.count == tune.succeeded
        assert tune.succeeded == len(model.parameters)

    def test_tune_timer_skips_failed_fits(self, world):
        histories, _, _ = world
        poisoned = dict(histories)
        key = min(histories)
        bad = train_history(
            np.array(sorted(np.random.default_rng(7).uniform(
                0, DAY, 400))), 0, DAY)
        bad.max_gap = float("nan")
        poisoned[key] = bad
        registry = MetricsRegistry()
        timer = registry.histogram(
            "tune_block_seconds",
            "Wall-time of one block's parameter fit (tuning)")
        planner = ParameterPlanner()
        planned, errors = planner.plan_batch(poisoned)
        assert key in errors
        # Mirror the pipeline's accounting: one amortised observation
        # per success, none for the failure.
        for _ in planned:
            timer.observe(0.001)
        ((_, histogram),) = registry.get("tune_block_seconds").series()
        assert histogram.count == len(planned)
        assert histogram.count == len(poisoned) - 1
