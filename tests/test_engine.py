"""Round loop and replica accounting: the action contract, feedback routing
by strategy class, regret against the fixed reference, the post-window
histogram, the regret log and the checkpoint profiles."""

import numpy as np
import pytest

from fogbandit.engine import run_round, run_seed
from fogbandit.errors import ConfigurationError, ProtocolError
from fogbandit.game import gradient_matrix, utility_matrix
from fogbandit.nash import NashSolution, deviation_utilities
from fogbandit.strategies import RsBank

X = np.array([[0.2, 0.7], [0.6, 0.1]])


class Stub:
    """A bank that plays a fixed profile and records every observe call."""

    def __init__(self, kind="bandit", x=X):
        self.feedback_kind = kind
        self.x = x
        self.received = []

    def act(self):
        return self.x

    def observe(self, *args):
        self.received.append(args)


def reference(spec):
    """A regret reference with zero utilities; no equilibrium is needed."""
    return NashSolution(x_star=np.zeros((spec.K, spec.M)),
                        utilities=np.zeros(spec.K), eps_gap=0.0, iterations=0,
                        converged=True)


def rs_seed(spec, T, **kwargs):
    """Run T rounds of random selection and collect every round's profile."""
    played = []
    res = run_seed(spec, RsBank(spec, T, np.random.default_rng(3)), T,
                   np.random.default_rng(4), reference(spec),
                   trace_sink=lambda rec: played.append(rec.x), **kwargs)
    return res, np.array(played)


class TestActionContract:
    def test_wrong_shape_is_protocol_error(self, game1):
        with pytest.raises(ProtocolError, match=r"round 7: .*shape \(3, 2\)"):
            run_round(game1, Stub(x=np.zeros((3, 2))), 7, np.random.default_rng(0))

    @pytest.mark.parametrize("bad", [-0.1, 1.5, np.nan])
    def test_action_outside_unit_interval_names_node_and_task(self, game1, bad):
        x = X.copy()
        x[1, 0] = bad
        with pytest.raises(ProtocolError, match="node 1 .* task 0"):
            run_round(game1, Stub(x=x), 1, np.random.default_rng(0))

    def test_unknown_feedback_kind(self, game1):
        with pytest.raises(ConfigurationError, match="feedback kind 'oracle'"):
            run_round(game1, Stub(kind="oracle"), 1, np.random.default_rng(0))


class TestFeedbackRouting:
    def test_bandit_sees_its_noisy_utilities(self, game1):
        bank = Stub("bandit")
        rec = run_round(game1, bank, 1, np.random.default_rng(0))
        [(observed,)] = bank.received
        assert np.array_equal(observed, rec.observed_utility)
        assert np.array_equal(rec.clean_utility, utility_matrix(X, game1))
        assert not np.array_equal(observed, rec.clean_utility)

    def test_gradient_play_sees_the_exact_gradient(self, game1):
        bank = Stub("gradient")
        run_round(game1, bank, 1, np.random.default_rng(0))
        [(gradient,)] = bank.received
        assert np.array_equal(gradient, gradient_matrix(X, game1))

    def test_best_response_sees_the_profile(self, game1):
        bank = Stub("profile")
        run_round(game1, bank, 1, np.random.default_rng(0))
        [(profile,)] = bank.received
        assert np.array_equal(profile, X)

    def test_random_selection_sees_nothing(self, game1):
        bank = Stub("none")
        run_round(game1, bank, 1, np.random.default_rng(0))
        assert bank.received == [()]


class TestAccounting:
    def test_regret_against_fixed_reference(self, game1):
        res, played = rs_seed(game1, 30, log_every=1)
        realized = utility_matrix(played, game1).sum(axis=-1)     # (T, K)
        assert np.allclose(res.cum_regret, np.cumsum(-realized, axis=0),
                           rtol=1e-12, atol=1e-12)

    def test_regret_against_per_round_best_response(self, game1):
        res, played = rs_seed(game1, 10, log_every=1, regret_mode="per_round_br")
        realized = utility_matrix(played, game1).sum(axis=-1)
        gain = deviation_utilities(played, game1) - realized
        assert np.all(gain >= -1e-12)
        assert np.allclose(res.cum_regret, np.cumsum(gain, axis=0),
                           rtol=1e-12, atol=1e-12)

    def test_unknown_regret_mode(self, game1):
        with pytest.raises(ConfigurationError, match="regret mode 'best'"):
            rs_seed(game1, 3, regret_mode="best")

    @pytest.mark.parametrize("T", [37, 50])
    def test_histogram_counts_post_window_rounds(self, game1, T):
        res, played = rs_seed(game1, T, post_fraction=0.9, hist_bins=7)
        post_rounds = T - int(0.9 * T)
        assert res.histogram.sum() == post_rounds * game1.K * game1.M
        assert np.all(res.histogram.sum(axis=-1) == post_rounds)
        assert np.allclose(res.post_window_avg, played[-post_rounds:].mean(axis=0))

    def test_log_rows_end_at_horizon(self, game1):
        res, _ = rs_seed(game1, 25, log_every=7)
        assert res.log_t.tolist() == [7, 14, 21, 25]
        assert res.cum_regret.shape == (4, game1.K)
        assert np.allclose(res.avg_regret, res.cum_regret / res.log_t[:, None])

    def test_checkpoint_profiles_are_running_means(self, game1):
        res, played = rs_seed(game1, 25, checkpoints=(10, 3, 25, 10))
        assert sorted(res.avg_profile) == [3, 10, 25]
        for t, profile in res.avg_profile.items():
            assert np.allclose(profile, played[:t].mean(axis=0), rtol=1e-12)
