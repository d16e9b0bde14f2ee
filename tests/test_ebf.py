from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from sensordiag import (
    NO_DECLARATION,
    EbfParams,
    EbfState,
    ebf_decide,
    ebf_step,
    filter_stream,
)
from sensordiag.errors import IndexOutOfRange
from conftest import oracle_ebf_decide, oracle_ebf_step


def exact_recurrence(winners, n, params=None):
    """Oracle: the accumulator in exact rational arithmetic.

    Returns the per-step evidence vectors as Fractions.
    """
    reward = Fraction("0.01") if params is None else Fraction(str(params.reward))
    penalty = Fraction("-0.005") if params is None else Fraction(str(params.penalty))
    lo, hi = Fraction(0), Fraction(1)
    s = [Fraction(0)] * n
    history = []
    for w in winners:
        s = [
            min(hi, max(lo, value + (reward if i == w else penalty)))
            for i, value in enumerate(s)
        ]
        history.append(list(s))
    return history


class TestParams:
    def test_defaults(self):
        p = EbfParams()
        assert (p.reward, p.penalty, p.decision_threshold) == (0.01, -0.005, 0.2)
        assert (p.lower_sat, p.upper_sat) == (0.0, 1.0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"reward": -0.01},
            {"penalty": 0.005},
            {"decision_threshold": 0.0},
            {"decision_threshold": 1.5},
            {"lower_sat": 0.1},
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(ValueError):
            EbfParams(**kwargs)


class TestStep:
    def test_constant_winner_reaches_threshold_at_twenty(self):
        params = EbfParams()
        state = EbfState.fresh(3)
        for step in range(1, 21):
            state = ebf_step(state, 0, params)
            declared = ebf_decide(state, params)
            if step < 20:
                assert declared is None, f"declared early at step {step}"
            else:
                assert declared == 0
        assert state.s[0] == pytest.approx(0.2, rel=1e-12)

    def test_never_selected_sensor_floors_at_zero(self):
        params = EbfParams()
        state = EbfState.fresh(4)
        for _ in range(100):
            state = ebf_step(state, 1, params)
        assert state.s[0] == 0.0
        assert state.s[2] == 0.0

    def test_alternating_winner_first_declaration(self):
        # target wins odd steps, a rival wins even steps; exact arithmetic
        # says evidence first reaches 0.2 at the 39th win (step 77)
        winners = [0 if step % 2 == 1 else 1 for step in range(1, 120)]
        history = exact_recurrence(winners, 2)
        expected_step = next(
            step
            for step, s in enumerate(history, start=1)
            if s[0] >= Fraction("0.2")
        )
        assert expected_step == 77
        assert sum(1 for w in winners[:expected_step] if w == 0) == 39

        params = EbfParams()
        state = EbfState.fresh(2)
        first = None
        for step, w in enumerate(winners, start=1):
            state = ebf_step(state, w, params)
            if first is None and ebf_decide(state, params) == 0:
                first = step
        assert first == expected_step

    def test_out_of_range_winner(self):
        with pytest.raises(IndexOutOfRange):
            ebf_step(EbfState.fresh(3), 3, EbfParams())

    @pytest.mark.parametrize(
        "winner, error",
        [
            (True, ValueError),
            (np.True_, ValueError),
            (1.0, ValueError),
            (np.float64(1.0), ValueError),
            (-1, IndexOutOfRange),
            (3, IndexOutOfRange),
        ],
        ids=["bool", "numpy-bool", "float", "numpy-float", "negative", "n"],
    )
    def test_rejects_the_winners_filter_stream_rejects(self, winner, error):
        """A bool would index every sensor and a float no sensor; both
        entry points refuse such a winner with the same exception."""
        params = EbfParams()
        with pytest.raises(Exception) as step:
            ebf_step(EbfState.fresh(3), winner, params)
        with pytest.raises(Exception) as stream:
            filter_stream([winner], 3, params)
        assert step.type is stream.type is error

    @pytest.mark.parametrize("winner", [1, np.int8(1), np.int64(1), np.uint64(1)])
    def test_accepts_python_and_numpy_integers(self, winner):
        got = ebf_step(EbfState.fresh(3), winner, EbfParams()).s
        assert got.tolist() == [0.0, 0.01, 0.0]

    @given(
        winners=st.lists(st.integers(min_value=0, max_value=3), min_size=1, max_size=120),
    )
    @settings(max_examples=50, deadline=None)
    def test_matches_exact_recurrence_oracle(self, winners):
        params = EbfParams()
        state = EbfState.fresh(4)
        oracle = exact_recurrence(winners, 4)
        for w, expected in zip(winners, oracle):
            state = ebf_step(state, w, params)
            np.testing.assert_allclose(
                state.s, [float(v) for v in expected], atol=1e-12
            )

    @given(
        winners=st.lists(st.integers(min_value=0, max_value=4), min_size=1, max_size=400),
    )
    @settings(max_examples=40, deadline=None)
    def test_bounded_in_saturation_band(self, winners):
        params = EbfParams()
        state = EbfState.fresh(5)
        for w in winners:
            state = ebf_step(state, w, params)
            assert (state.s >= 0.0).all() and (state.s <= 1.0).all()

    def test_monotone_evidence_for_repeated_winner(self):
        params = EbfParams()
        state = EbfState.fresh(3)
        prev = 0.0
        for _ in range(150):
            state = ebf_step(state, 2, params)
            assert state.s[2] >= prev
            prev = state.s[2]
        assert state.s[2] == 1.0  # saturated


class TestDecide:
    def test_fresh_state_declares_nothing(self):
        assert ebf_decide(EbfState.fresh(5), EbfParams()) is None

    def test_single_exceeder(self):
        state = EbfState(s=np.array([0.25, 0.1, 0.0]))
        assert ebf_decide(state, EbfParams()) == 0

    def test_tie_breaks_low(self):
        state = EbfState(s=np.array([0.3, 0.3]))
        assert ebf_decide(state, EbfParams()) == 0

    def test_argmax_among_exceeders(self):
        state = EbfState(s=np.array([0.25, 0.6, 0.3]))
        assert ebf_decide(state, EbfParams()) == 1


class TestReset:
    """A filter is reset by starting a fresh state."""

    def test_reset_then_decide_none(self):
        assert ebf_decide(EbfState.fresh(2), EbfParams()) is None

    def test_reset_after_saturation(self):
        params = EbfParams()
        state = EbfState.fresh(2)
        for _ in range(300):
            state = ebf_step(state, 0, params)
        assert state.s[0] == 1.0
        fresh = EbfState.fresh(state.s.shape[0])
        np.testing.assert_array_equal(fresh.s, np.zeros(2))
        assert ebf_decide(fresh, params) is None


class TestFilterStream:
    def test_equivalent_to_iterated_steps(self):
        rng = np.random.default_rng(70)
        winners = rng.integers(0, 4, size=500)
        params = EbfParams()
        out = filter_stream(winners, 4, params)
        state = EbfState.fresh(4)
        for t, w in enumerate(winners):
            state = ebf_step(state, int(w), params)
            declared = ebf_decide(state, params)
            assert out[t] == (NO_DECLARATION if declared is None else declared)

    def test_no_declaration_before_step_twenty(self):
        rng = np.random.default_rng(71)
        for _ in range(200):
            winners = rng.integers(0, 3, size=19)
            assert (filter_stream(winners, 3, EbfParams()) == NO_DECLARATION).all()

    def test_positive_drift_reaches_threshold(self):
        # winner correct 67% of steps: expected drift is positive, so the
        # threshold is reached in almost every trial
        params = EbfParams()
        rng = np.random.default_rng(72)
        trials = []
        for _ in range(1000):
            correct = rng.random(500) < 0.67
            trials.append(np.where(correct, 0, rng.integers(1, 5, size=500)))
        decided = filter_stream(np.array(trials), 5, params)
        reached = int((decided == 0).any(axis=1).sum())
        assert reached / 1000 > 0.99

    def test_rejects_bad_stream(self):
        with pytest.raises(IndexOutOfRange):
            filter_stream([0, 5], 3, EbfParams())

    def test_rejects_float_winners(self):
        # used to truncate silently: [1.7, 0.2] ran as [1, 0]
        with pytest.raises(ValueError):
            filter_stream([1.7, 0.2], 3, EbfParams())
        with pytest.raises(ValueError):
            filter_stream(np.array([[1.0, 0.0]]), 3, EbfParams())

    def test_rejects_bool_winners(self):
        with pytest.raises(ValueError):
            filter_stream([True, False], 3, EbfParams())

    @pytest.mark.parametrize("winners", [np.int64(1), np.zeros((2, 3, 4), dtype=int)])
    def test_rejects_other_ndim(self, winners):
        with pytest.raises(ValueError):
            filter_stream(winners, 3, EbfParams())

    @pytest.mark.parametrize("shape", [(0,), (0, 0), (0, 5), (3, 0)])
    def test_empty_stream_is_valid(self, shape):
        winners = [] if shape == (0,) else np.zeros(shape, dtype=int)
        out = filter_stream(winners, 3, EbfParams())
        assert out.shape == shape

    def test_batch_rows_start_fresh(self):
        # row 1 would declare at step 20 only if row 0's evidence leaked in
        params = EbfParams()
        batch = np.zeros((2, 25), dtype=np.int8)
        batch[1, :] = 1
        out = filter_stream(batch, 2, params)
        assert out.dtype == np.int8  # a signed batch keeps its compact dtype
        np.testing.assert_array_equal(out[0], filter_stream(batch[0], 2, params))
        assert (out[1, :19] == NO_DECLARATION).all() and out[1, 19] == 1


@st.composite
def ebf_params(draw):
    lower = draw(st.floats(min_value=-0.5, max_value=0.0))
    upper = draw(st.floats(min_value=0.01, max_value=2.0))
    return EbfParams(
        reward=draw(st.floats(min_value=0.001, max_value=0.3)),
        penalty=draw(st.floats(min_value=-0.3, max_value=-0.001)),
        decision_threshold=draw(
            st.floats(min_value=lower, max_value=upper, exclude_min=True)
        ),
        upper_sat=upper,
        lower_sat=lower,
    )


@st.composite
def winner_batches(draw):
    n = draw(st.integers(min_value=1, max_value=6))
    shape = (draw(st.integers(0, 5)), draw(st.integers(0, 80)))
    dtype = draw(st.sampled_from([np.int8, np.int16, np.int64, np.uint8]))
    return n, draw(arrays(dtype, shape, elements=st.integers(0, n - 1)))


class TestBatchedFilterOracle:
    @given(case=winner_batches(), params=ebf_params())
    @settings(max_examples=60, deadline=None)
    def test_rows_match_stream_and_iterated_steps(self, case, params):
        n, batch = case
        out = filter_stream(batch, n, params)
        assert out.shape == batch.shape
        for row, decided in zip(batch, out):
            np.testing.assert_array_equal(decided, filter_stream(row, n, params))
            state = EbfState.fresh(n)
            expected = []
            for w in row:
                state = ebf_step(state, int(w), params)
                declared = ebf_decide(state, params)
                expected.append(NO_DECLARATION if declared is None else declared)
            np.testing.assert_array_equal(decided, np.array(expected, dtype=int))


@st.composite
def step_cases(draw):
    """Valid params, an evidence vector inside their band, and a winner."""
    params = draw(ebf_params())
    n = draw(st.integers(1, 9))
    level = st.one_of(
        st.floats(min_value=params.lower_sat, max_value=params.upper_sat),
        st.sampled_from(
            [params.lower_sat, params.upper_sat, 0.0, -params.penalty, -params.reward]
        ).filter(lambda v: params.lower_sat <= v <= params.upper_sat),
    )
    s = np.array(draw(st.lists(level, min_size=n, max_size=n)), dtype=float)
    return params, EbfState(s=s), draw(st.integers(0, n - 1))


class TestStepOracle:
    @given(case=step_cases())
    @settings(max_examples=200, deadline=None)
    def test_step_and_decide_match_full_gain_clip(self, case):
        params, state, winner = case
        got, want = ebf_step(state, winner, params), oracle_ebf_step(state, winner, params)
        assert got.s.tobytes() == want.s.tobytes()  # signed zeros included
        assert ebf_decide(got, params) == oracle_ebf_decide(want, params)
        assert ebf_decide(state, params) == oracle_ebf_decide(state, params)

    @pytest.mark.parametrize("lower, upper", [(-0.0, 1.0), (-1.0, -0.0), (0.0, 1.0)])
    def test_sum_on_a_zero_bound_keeps_its_sign(self, lower, upper):
        # s + g is exactly +0.0 on both sensors; np.clip keeps it even where
        # the bound is -0.0, and the step must too.
        params = EbfParams(
            reward=0.25,
            penalty=-0.25,
            decision_threshold=0.5 if upper > 0 else -0.5,
            upper_sat=upper,
            lower_sat=lower,
        )
        state = EbfState(s=np.array([0.25, -0.25]))
        got = ebf_step(state, 1, params)
        assert got.s.tobytes() == oracle_ebf_step(state, 1, params).s.tobytes()
        assert not np.signbit(got.s).any()

    def test_state_is_not_modified(self):
        state = EbfState(s=np.array([0.1, 0.2]))
        ebf_step(state, 0, EbfParams())
        assert state.s.tolist() == [0.1, 0.2]


def test_a_state_needs_a_sensor():
    with pytest.raises(Exception) as caught:
        EbfState.fresh(0)
    assert (type(caught.value), str(caught.value)) == (ValueError, "need at least one sensor")
