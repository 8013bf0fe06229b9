"""Centralized matching learner: confidence weights, the round's assignment
against brute force, and the warm-up/update bookkeeping."""

import itertools
import math
import warnings

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

from fogbandit.errors import FeedbackError, ProtocolError
from fogbandit.game import GameSpec
from fogbandit.strategies import LlrBank


def brute_force_value(w):
    K, M = w.shape
    best = -np.inf
    n = min(K, M)
    for rows in itertools.permutations(range(K), n):
        for cols in itertools.permutations(range(M), n):
            best = max(best, sum(w[r, c] for r, c in zip(rows, cols)))
    return best


def bank_for(K, M, theta_hat=None, counts=1, t=None, xi=None):
    """A one-replica LLR bank on a K x M game with its estimates set; by
    default past the warm-up, with every pair observed once."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        spec = GameSpec(rho=np.full((K, M), 0.9), eps=np.full((K, M), 0.1),
                        kappa=np.full((K, M), 0.1))
    bank = LlrBank(spec, T=100, rngs=[np.random.default_rng(0)])
    bank.theta_hat[:] = 0.0 if theta_hat is None else theta_hat
    bank.counts[:] = counts
    bank.t = M + 1 if t is None else t
    if xi is not None:
        bank.xi = xi
    return bank


def match(w):
    """The bank's post-warm-up assignment when its sample means are w and
    every pair is observed equally often (a common confidence bonus, which
    every assignment of min(K, M) pairs collects alike)."""
    bank = bank_for(*w.shape, theta_hat=w)
    x = bank.act()[0]
    assert set(np.unique(x)) <= {0.0, 1.0}
    return x


class TestHungarian:
    def test_diagonal_dominance(self):
        x = match(np.array([[1.0, 0.0], [0.0, 1.0]]))
        assert x.tolist() == [[1.0, 0.0], [0.0, 1.0]]

    def test_anti_diagonal(self):
        x = match(np.array([[1.0, 2.0], [2.0, 1.0]]))
        assert x.tolist() == [[0.0, 1.0], [1.0, 0.0]]

    def test_matches_brute_force_on_random_instances(self, rng):
        for _ in range(100):
            w = rng.normal(size=(5, 5))
            value = (w * match(w)).sum()
            assert value == pytest.approx(brute_force_value(w), rel=1e-12)

    def test_rectangular_instances(self, rng):
        for K, M in [(3, 6), (6, 3), (2, 5), (5, 2)]:
            for _ in range(20):
                w = rng.normal(size=(K, M))
                x = match(w)
                assert x.sum() == min(K, M)
                assert np.all(x.sum(axis=1) <= 1.0)   # one task per node
                assert np.all(x.sum(axis=0) <= 1.0)   # one node per task
                assert (w * x).sum() == pytest.approx(brute_force_value(w),
                                                      rel=1e-10)


class TestUcbWeights:
    def test_reference_value(self):
        bank = bank_for(1, 1, theta_hat=0.5, t=3, xi=10)
        w = bank.ucb_weights()
        assert w[0, 0, 0] == pytest.approx(0.5 + math.sqrt(11 * math.log(3)), rel=1e-12)

    def test_no_confidence_term_on_first_round(self):
        bank = bank_for(2, 2, theta_hat=0.3, t=1, xi=2)
        assert np.allclose(bank.ucb_weights(), 0.3)

    def test_more_observations_shrink_the_bonus(self):
        few = bank_for(1, 1, counts=2, t=10, xi=1)
        many = bank_for(1, 1, counts=20, t=10, xi=1)
        assert many.ucb_weights()[0, 0, 0] < few.ucb_weights()[0, 0, 0]

    def test_unobserved_pair_is_protocol_error(self):
        bank = bank_for(2, 2, counts=np.array([[1, 0], [1, 1]]), t=3, xi=2)
        with pytest.raises(ProtocolError):
            bank.ucb_weights()


class TestLlrBank:
    def test_warmup_covers_every_pair(self, game2):
        bank = LlrBank(game2, T=100, rngs=[np.random.default_rng(0)])
        for _ in range(game2.M):
            x = bank.act()[0]
            assert np.all(x.sum(axis=1) == 1.0)   # every node plays one task
            bank.observe(np.zeros((1, 10, 10)))
        assert bank.counts.min() == 1

    def test_sample_means_are_replayable(self, game2, rng):
        bank = LlrBank(game2, T=100, rngs=[rng])
        seen = {}
        for t in range(40):
            x = bank.act()[0]
            obs = rng.normal(0.5, 0.2, (10, 10))
            for k, m in zip(*np.nonzero(x)):
                seen.setdefault((k, m), []).append(obs[k, m])
            bank.observe(obs[None])
        for (k, m), vals in seen.items():
            assert bank.theta_hat[0, k, m] == pytest.approx(np.mean(vals), rel=1e-12)
        for (k, m), vals in seen.items():
            assert bank.counts[0, k, m] == len(vals)

    @pytest.mark.parametrize("K,M", [(6, 4), (3, 5)])
    def test_record_matches_loop_reference(self, K, M, rng):
        # the played pairs' running means, updated one pair at a time
        bank = bank_for(K, M, counts=0, t=1)
        theta, counts = np.zeros((K, M)), np.zeros((K, M), dtype=int)
        for _ in range(30):
            x = bank.act()[0]
            obs = rng.normal(0.5, 0.2, (K, M))
            bank.observe(obs[None])
            for k, m in zip(*np.nonzero(x)):
                c = counts[k, m]
                theta[k, m] = (theta[k, m] * c + obs[k, m]) / (c + 1)
                counts[k, m] = c + 1
            assert np.array_equal(bank.theta_hat[0], theta)
            assert np.array_equal(bank.counts[0], counts)

    @pytest.mark.parametrize("K,M", [(6, 4), (3, 5), (4, 4)])
    def test_replicas_match_one_assignment_each(self, K, M, rng):
        # the flat indices of all replicas' pairs come from one expression;
        # the reference assigns and marks one replica at a time
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            spec = GameSpec(rho=np.full((K, M), 0.9), eps=np.full((K, M), 0.1),
                            kappa=np.full((K, M), 0.1))
        S = 3
        bank = LlrBank(spec, T=100, rngs=[np.random.default_rng(s) for s in range(S)])
        for t in range(1, M + 6):
            expected = np.zeros((S, K, M))
            if t <= M:
                for s in range(S):
                    expected[s, np.arange(K), (np.arange(K) + t - 1) % M] = 1.0
            else:
                for s, w in enumerate(bank.ucb_weights()):
                    expected[s][linear_sum_assignment(w, maximize=True)] = 1.0
            x = bank.act()
            assert np.array_equal(x, expected)
            bank.observe(rng.normal(0.5, 0.2, (S, K, M)))
            # every node plays in the warm-up, min(K, M) of them after it
            pulls = min(t, M) * K + max(0, t - M) * min(K, M)
            assert np.all(bank.counts.sum(axis=(1, 2)) == pulls)

    def test_more_nodes_than_tasks_idles_someone(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            spec = GameSpec(rho=[[0.9], [0.8]], eps=[[0.1], [0.1]],
                            kappa=[[0.2], [0.2]])
        bank = LlrBank(spec, T=50, rngs=[np.random.default_rng(1)])
        for t in range(20):
            x = bank.act()[0]
            if t >= spec.M:  # after warm-up the matching binds
                assert (x.sum(axis=1) == 1.0).sum() == 1
                assert (x.sum(axis=1) == 0.0).sum() == 1
            bank.observe(np.full((1, 2, 1), 0.3))

    def test_observe_needs_a_preceding_act(self):
        bank = bank_for(2, 2)
        with pytest.raises(ProtocolError, match="without a preceding act"):
            bank.observe(np.zeros((1, 2, 2)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_feedback_rejected(self, bad):
        bank = bank_for(2, 2, theta_hat=0.5)
        bank.act()
        with pytest.raises(FeedbackError, match="must be finite"):
            bank.observe(np.full((1, 2, 2), bad))
        assert np.all(bank.theta_hat == 0.5) and np.all(bank.counts == 1)

    def test_update_only_touches_played_pairs(self):
        bank = bank_for(3, 2, theta_hat=0.5)
        x = bank.act()[0]
        bank.observe(np.full((1, 3, 2), 0.9))
        played = x == 1.0
        assert played.sum() == 2
        assert np.allclose(bank.theta_hat[0][played], 0.7)
        assert np.all(bank.counts[0][played] == 2)
        assert np.all(bank.theta_hat[0][~played] == 0.5)
        assert np.all(bank.counts[0][~played] == 1)
