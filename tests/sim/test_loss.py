"""Tests for repro.sim.loss — loss-rate and burstiness properties."""

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.sim.loss import BernoulliLoss, TwoStateMarkovLoss
from repro.util import spawn_rng


class TestBernoulliLoss:
    def test_empirical_rate(self):
        rng = spawn_rng(1)
        model = BernoulliLoss(0.2)
        times = np.arange(50_000) * 0.1
        lost = model.sample_at(times, rng)
        assert lost.mean() == pytest.approx(0.2, abs=0.01)

    def test_zero_and_one(self):
        rng = spawn_rng(1)
        times = np.arange(100) * 0.1
        assert not BernoulliLoss(0.0).sample_at(times, rng).any()
        assert BernoulliLoss(1.0).sample_at(times, rng).all()

    def test_stepper(self):
        rng = spawn_rng(2)
        stepper = BernoulliLoss(0.5).stepper(rng)
        outcomes = {stepper.is_lost(t) for t in range(100)}
        assert outcomes == {True, False}

    def test_invalid_p(self):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            BernoulliLoss(1.5)


class TestTwoStateMarkovLoss:
    def test_stationary_rate_matches_p(self):
        """Long-run loss fraction equals p (the model's calibration)."""
        rng = spawn_rng(3)
        model = TwoStateMarkovLoss(0.2)
        times = np.arange(200_000) * 0.01  # 10 ms grid, 2000 s
        lost = model.sample_at(times, rng)
        assert lost.mean() == pytest.approx(0.2, abs=0.01)

    def test_low_rate(self):
        rng = spawn_rng(4)
        model = TwoStateMarkovLoss(0.02)
        times = np.arange(400_000) * 0.01
        assert model.sample_at(times, rng).mean() == pytest.approx(
            0.02, abs=0.005
        )

    def test_burstiness_at_short_gaps(self):
        """Back-to-back packets see correlated loss: P(lost | prev lost)
        far exceeds the stationary rate."""
        rng = spawn_rng(5)
        model = TwoStateMarkovLoss(0.2, burst_scale_ms=100.0)
        times = np.arange(300_000) * 0.001  # 1 ms apart: inside bursts
        lost = model.sample_at(times, rng)
        pairs = lost[:-1] & lost[1:]
        p_joint = pairs.mean()
        p_conditional = p_joint / lost[:-1].mean()
        assert p_conditional > 0.8  # >> 0.2

    def test_wide_gaps_decorrelate(self):
        """Packets far apart (10 s) are nearly independent."""
        rng = spawn_rng(6)
        model = TwoStateMarkovLoss(0.2)
        times = np.arange(100_000) * 10.0
        lost = model.sample_at(times, rng)
        p_conditional = (lost[:-1] & lost[1:]).mean() / max(
            lost[:-1].mean(), 1e-12
        )
        assert p_conditional == pytest.approx(0.2, abs=0.02)

    def test_degenerate_rates(self):
        rng = spawn_rng(7)
        times = np.arange(50) * 0.1
        assert not TwoStateMarkovLoss(0.0).sample_at(times, rng).any()
        assert TwoStateMarkovLoss(1.0).sample_at(times, rng).all()

    def test_empty_times(self):
        rng = spawn_rng(8)
        assert TwoStateMarkovLoss(0.2).sample_at([], rng).size == 0

    def test_decreasing_times_rejected(self):
        rng = spawn_rng(9)
        with pytest.raises(SimulationError):
            TwoStateMarkovLoss(0.2).sample_at([1.0, 0.5], rng)

    def test_sample_matrix_matches_rate(self):
        rng = spawn_rng(10)
        model = TwoStateMarkovLoss(0.2)
        times = np.arange(200) * 0.1
        matrix = model.sample_matrix(times, 2000, rng)
        assert matrix.shape == (2000, 200)
        assert matrix.mean() == pytest.approx(0.2, abs=0.01)

    def test_sample_matrix_chains_independent(self):
        rng = spawn_rng(11)
        model = TwoStateMarkovLoss(0.5)
        times = np.arange(500) * 0.1
        matrix = model.sample_matrix(times, 2, rng)
        assert not np.array_equal(matrix[0], matrix[1])

    def test_stepper_matches_rate(self):
        rng = spawn_rng(12)
        stepper = TwoStateMarkovLoss(0.3).stepper(rng)
        lost = [stepper.is_lost(t * 0.05) for t in range(50_000)]
        assert np.mean(lost) == pytest.approx(0.3, abs=0.02)

    def test_stepper_rejects_time_reversal(self):
        rng = spawn_rng(13)
        stepper = TwoStateMarkovLoss(0.3).stepper(rng)
        stepper.is_lost(1.0)
        with pytest.raises(SimulationError):
            stepper.is_lost(0.5)

    def test_repr(self):
        assert "0.2" in repr(TwoStateMarkovLoss(0.2))


def sequential_chain(model, times, shape, rng):
    """Reference oracle: the burst-loss chain walked one column at a time.

    The per-column loop the samplers used before they were vectorized:
    each cell's threshold depends on its left neighbour's state.
    """
    times = np.asarray(times, dtype=float)
    if model.p in (0.0, 1.0):
        return np.full(shape, model.p == 1.0)
    p_given_good, p_given_loss = model._skeleton_probabilities(np.diff(times))
    draws = rng.random(shape).reshape(-1, times.size)
    lost = np.empty(draws.shape, dtype=bool)
    lost[:, 0] = draws[:, 0] < model.p
    for i in range(1, times.size):
        threshold = np.where(
            lost[:, i - 1], p_given_loss[i - 1], p_given_good[i - 1]
        )
        lost[:, i] = draws[:, i] < threshold
    return lost.reshape(shape)


def oracle_grids():
    """Regular grids from 1 us (long bursts) to 1 s, and a mixed one."""
    grids = {
        "%gs" % gap: np.arange(120) * gap for gap in (1e-6, 1e-3, 0.1, 1.0)
    }
    gaps = 10.0 ** spawn_rng(21).uniform(-6, 0, size=119)
    gaps[::17] = 0.0  # simultaneous sends: the chain cannot move
    grids["mixed"] = np.concatenate([[0.5], 0.5 + np.cumsum(gaps)])
    return grids


class TestSamplerMatchesSequentialOracle:
    """``sample_matrix`` and ``sample_at`` produce the oracle's bits and
    leave the generator exactly where the oracle leaves it."""

    @pytest.mark.parametrize("grid", sorted(oracle_grids()))
    @pytest.mark.parametrize("p", [0.0, 0.01, 0.2, 0.5, 1.0])
    @pytest.mark.parametrize("n_chains", [1, 3, 4097])
    def test_sample_matrix(self, grid, p, n_chains):
        times = oracle_grids()[grid]
        model = TwoStateMarkovLoss(p)
        rng, oracle_rng = spawn_rng(31), spawn_rng(31)
        got = model.sample_matrix(times, n_chains, rng)
        expected = sequential_chain(
            model, times, (n_chains, times.size), oracle_rng
        )
        assert got.dtype == bool and got.shape == expected.shape
        assert np.array_equal(got, expected)
        assert rng.random() == oracle_rng.random()

    @pytest.mark.parametrize("grid", sorted(oracle_grids()))
    @pytest.mark.parametrize("p", [0.0, 0.01, 0.2, 0.5, 1.0])
    def test_sample_at(self, grid, p):
        times = oracle_grids()[grid]
        model = TwoStateMarkovLoss(p)
        rng, oracle_rng = spawn_rng(32), spawn_rng(32)
        for _ in range(3):
            got = model.sample_at(times, rng)
            expected = sequential_chain(model, times, times.size, oracle_rng)
            assert np.array_equal(got, expected)
        assert rng.random() == oracle_rng.random()

    def test_single_time(self):
        model = TwoStateMarkovLoss(0.5)
        rng, oracle_rng = spawn_rng(33), spawn_rng(33)
        got = model.sample_matrix([0.0], 50, rng)
        assert np.array_equal(
            got, sequential_chain(model, [0.0], (50, 1), oracle_rng)
        )
        assert rng.random() == oracle_rng.random()


def unmemoized_steps(model, times, rng):
    """Reference oracle for ``stepper``: the walk with each gap's
    probabilities computed afresh on a one-element array."""
    if model.p in (0.0, 1.0):
        return [model.p == 1.0] * len(times)
    lost = bool(rng.random() < model.p)
    out = [lost]
    for previous, time in zip(times, times[1:]):
        p_good, p_loss = model._skeleton_probabilities(
            np.asarray([time - previous])
        )
        threshold = p_loss[0] if lost else p_good[0]
        lost = bool(rng.random() < threshold)
        out.append(lost)
    return out


class TestStepperMatchesUnmemoizedOracle:
    """The stepper's per-gap memo changes no draw: same indicators, and
    the generator left where the oracle leaves it."""

    @pytest.mark.parametrize(
        "grid", sorted(oracle_grids()) + ["slots", "many-gaps"]
    )
    @pytest.mark.parametrize("p", [0.0, 0.02, 0.2, 0.5, 1.0])
    def test_same_walk(self, grid, p):
        if grid == "slots":
            # The wire plane's query times: slot * spacing, whose float
            # gaps differ from the spacing in the last bits.
            times = [slot * 0.0103 for slot in range(400)]
        elif grid == "many-gaps":
            # More distinct gaps than the memo holds at once.
            times = list(np.cumsum(spawn_rng(22).uniform(0, 0.05, 300)))
        else:
            times = list(oracle_grids()[grid])
        model = TwoStateMarkovLoss(p)
        for chain in range(3):  # later chains start from a warm memo
            rng, oracle_rng = spawn_rng(40 + chain), spawn_rng(40 + chain)
            stepper = model.stepper(rng)
            got = [stepper.is_lost(time) for time in times]
            assert got == unmemoized_steps(model, times, oracle_rng)
            assert rng.random() == oracle_rng.random()

    def test_memo_holds_the_array_values(self):
        model = TwoStateMarkovLoss(0.2)
        times = [slot * 0.0103 for slot in range(200)]
        for previous, time in zip(times, times[1:]):
            p_good, p_loss = model._skeleton_probabilities(
                np.asarray([time - previous])
            )
            assert model._gap_probabilities(time - previous) == (
                p_good[0],
                p_loss[0],
            )
