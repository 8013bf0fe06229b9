"""Round loop and replica accounting: the (S, K, M) action contract,
feedback routing by strategy class, per-replica noise streams, regret
against the fixed reference, the post-window histogram, the regret log,
the checkpoint profiles and the regret slope."""

import dataclasses
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from fogbandit import engine
from fogbandit.campaign import STRATEGY_NAMES, make_bank, replica_streams
from fogbandit.engine import (HIST_BINS, POST_FRACTION, checkpoint_rounds,
                              regret_slope, run_round, run_seed)
from fogbandit.errors import ConfigurationError, ProtocolError
from fogbandit.game import (GameSpec, estimate_bounds, gradient_matrix, stack_game,
                            utility_matrix)
from fogbandit.nash import NashSolution, deviation_utilities
from fogbandit.strategies import BrBank, GpBank, RsBank, br_profile

X = np.array([[0.2, 0.7], [0.6, 0.1]])
XS = np.stack([X, X[::-1]])           # two replicas


def rngs(*seeds):
    return [np.random.default_rng(s) for s in seeds]


def noise(spec):
    """One round's (S, K, M) noise for the replicas of XS, each drawn from
    its own stream."""
    return np.stack([g.normal(0.0, spec.noise_std, X.shape) for g in rngs(0, 1)])


class Stub:
    """A bank that plays a fixed stack of profiles and records every
    observe call."""

    def __init__(self, kind="bandit", x=XS):
        self.feedback_kind = kind
        self.x = x
        self.received = []

    def act(self):
        return self.x

    def observe(self, *args):
        self.received.append(args)


def reference(spec):
    """A regret reference with zero utilities; no equilibrium is needed."""
    return NashSolution(x_star=np.zeros((spec.K, spec.M)), aggregate=np.zeros(spec.M),
                        utilities=np.zeros(spec.K), eps_gap=0.0, iterations=0,
                        converged=True)


def count_br_profile_calls(monkeypatch):
    """Record the shape of every br_profile call the engine and
    deviation_utilities make from now on; returns the list of shapes."""
    calls = []

    def counted(x, spec, *others):
        calls.append(x.shape)
        return br_profile(x, spec, *others)
    monkeypatch.setattr(engine, "br_profile", counted)
    monkeypatch.setattr("fogbandit.nash.br_profile", counted)
    return calls


def rs_seed(spec, T, **kwargs):
    """Run T rounds of random selection and collect every round's profile."""
    played = []
    [res] = run_seed(spec, RsBank(spec, T, rngs(3)), T, rngs(4),
                     reference(spec),
                     trace_sink=lambda rec: played.append(rec.x[0]), **kwargs)
    return res, np.array(played)


UNIT = st.floats(0.0, 1.0, exclude_min=True)
# each strategy's parameters across their valid ranges, step sizes 1e-6 to 1e6
PARAMS = {
    "bgam": st.fixed_dictionaries({}, optional={
        "xi": st.floats(0.0, 0.5, exclude_min=True),
        "beta": st.floats(0.0, 1.0, exclude_max=True),
        "nu": st.floats(1e-6, 1e6)}),
    "bgd": st.fixed_dictionaries({}, optional={
        "xi": st.floats(0.0, 0.5, exclude_min=True), "nu": st.floats(1e-6, 1e6)}),
    "lbwi": st.fixed_dictionaries({}, optional={
        "N": st.integers(2, 12), "gamma": UNIT,
        "pulls_per_interval": st.integers(1, 4)}),
    "gp": st.fixed_dictionaries({}, optional={"eta": st.floats(1e-6, 1e6)}),
}
PARAMS["lb"] = PARAMS["lbwi"]


@st.composite
def bank_cases(draw):
    """A strategy with valid parameters on a valid game of up to 4 x 3,
    with a horizon, a replica count and a master seed."""
    K, M = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    # GameSpec's floor on rho is 1e-100
    rho = draw(hnp.arrays(float, (K, M), elements=st.floats(1e-100, 1.0)))
    eps, kappa = (draw(hnp.arrays(float, (K, M), elements=UNIT)) for _ in range(2))
    name = draw(st.sampled_from(STRATEGY_NAMES))
    params = draw(PARAMS.get(name, st.just({})))
    return (rho, eps, kappa, draw(st.floats(0.0, 1.0)), name, params,
            draw(st.integers(2, 40)), draw(st.integers(1, 3)),
            draw(st.integers(0, 2**32 - 1)))


class TestActionContract:
    @settings(deadline=None, max_examples=30)
    @given(bank_cases())
    def test_every_bank_keeps_its_actions_in_range(self, case):
        # run_round raises ProtocolError for an action outside [0, 1]
        rho, eps, kappa, noise_std, name, params, T, S, seed = case
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            spec = GameSpec(rho=rho, eps=eps, kappa=kappa, noise_std=noise_std)
            streams = [replica_streams(seed, name, s) for s in range(S)]
            bank = make_bank(name, spec, T, [g for g, _ in streams], params,
                             estimate_bounds(spec))
        results = run_seed(spec, bank, T, [g for _, g in streams], reference(spec))
        assert len(results) == S

    def test_wrong_shape_is_protocol_error(self, game1):
        with pytest.raises(ProtocolError, match=r"round 7: .*shape \(3, 2\)"):
            run_round(stack_game(game1, 2), Stub(x=np.zeros((3, 2))), 7, noise(game1))

    @pytest.mark.parametrize("bad", [-0.1, 1.5, np.nan, np.inf, -np.inf])
    def test_action_outside_unit_interval_names_node_and_task(self, game1, bad):
        x = XS.copy()
        x[1, 1, 0] = bad
        with pytest.raises(ProtocolError, match="seed 1 node 1 .* task 0"):
            run_round(stack_game(game1, 2), Stub(x=x), 1, noise(game1))

    @pytest.mark.parametrize("edge", [-0.0, 0.0, 1.0])
    def test_actions_on_the_unit_interval_bounds_are_accepted(self, game1, edge):
        x = XS.copy()
        x[1, 1, 0] = edge
        rec = run_round(stack_game(game1, 2), Stub(x=x), 1, noise(game1))
        assert rec.x[1, 1, 0] == edge

    def test_unknown_feedback_kind(self, game1):
        with pytest.raises(ConfigurationError, match="feedback kind 'oracle'"):
            run_round(stack_game(game1, 2), Stub(kind="oracle"), 1, noise(game1))


class TestFeedbackRouting:
    def test_bandit_sees_its_noisy_utilities(self, game1):
        bank = Stub("bandit")
        rec = run_round(stack_game(game1, 2), bank, 1, noise(game1))
        [(observed,)] = bank.received
        assert np.array_equal(observed, rec.observed_utility)
        assert np.array_equal(rec.clean_utility, utility_matrix(XS, game1))
        assert np.array_equal(observed, rec.clean_utility + noise(game1))

    def test_each_replica_draws_its_noise_from_its_own_stream(self, game1):
        # run_seed reads the noise ahead in chunks; every round still sees
        # one normal draw per replica, in round order, across 4 refills
        records = []
        run_seed(game1, Stub(), 800, rngs(0, 1), reference(game1),
                 trace_sink=records.append)
        streams = rngs(0, 1)
        for rec in records:
            draw = np.stack([g.normal(0.0, game1.noise_std, X.shape)
                             for g in streams])
            assert np.array_equal(rec.observed_utility, rec.clean_utility + draw)

    def test_gradient_play_sees_the_exact_gradient(self, game1):
        bank = Stub("gradient")
        run_round(stack_game(game1, 2), bank, 1, noise(game1))
        [(gradient,)] = bank.received
        for s, x in enumerate(XS):
            assert np.array_equal(gradient[s], gradient_matrix(x, game1))

    def test_best_response_sees_the_best_response(self, game1):
        bank = Stub("best_response")
        rec = run_round(stack_game(game1, 2), bank, 1, noise(game1))
        [(best_response,)] = bank.received
        assert np.array_equal(best_response, br_profile(XS, stack_game(game1)))
        assert rec.br is best_response

    @pytest.mark.filterwarnings("ignore:rho <= 0.5")
    def test_noiseless_observation_is_the_clean_utility(self, game1):
        # a normal draw with std 0 is +0.0, so noise_std = 0 needs no branch
        spec = dataclasses.replace(game1, noise_std=0.0)
        rec = run_round(stack_game(spec, 2), Stub(), 1, noise(spec))
        assert rec.observed_utility.tobytes() == rec.clean_utility.tobytes()
        assert not np.shares_memory(rec.observed_utility, rec.clean_utility)

    def test_random_selection_sees_nothing(self, game1):
        bank = Stub("none")
        run_round(stack_game(game1, 2), bank, 1, noise(game1))
        assert bank.received == [()]


class NoNoise:
    """A noise stream that must not be read."""

    def normal(self, *args):
        raise AssertionError("the noise stream was read")


def per_round_draws(spec, seeds, T):
    """Each round's (S, K, M) noise, drawn round by round from fresh streams."""
    streams = rngs(*seeds)
    return [np.stack([g.normal(0.0, spec.noise_std, (spec.K, spec.M))
                      for g in streams]) for _ in range(T)]


class TestNoiseReads:
    """Only bandit feedback and traces read the noise, the allocation and
    the observed utilities."""

    @pytest.mark.parametrize("mode", ["ne_reference", "per_round_br"])
    @pytest.mark.parametrize("bank", [GpBank, BrBank, RsBank])
    def test_untraced_full_information_runs_draw_no_noise(self, game1, bank, mode):
        T = 30
        run_seed(game1, bank(game1, T, rngs(1, 2)), T, [NoNoise(), NoNoise()],
                 reference(game1), mode)
        # a trace sink reads the noise of the same run
        with pytest.raises(AssertionError, match="noise stream was read"):
            run_seed(game1, bank(game1, T, rngs(1, 2)), T, [NoNoise(), NoNoise()],
                     reference(game1), mode, trace_sink=lambda rec: None)

    def test_bandit_feedback_draws_every_round_in_order(self, game1):
        bank, T = Stub("bandit"), 800
        run_seed(game1, bank, T, rngs(0, 1), reference(game1))
        clean = utility_matrix(XS, game1)
        for (observed,), draw in zip(bank.received, per_round_draws(game1, (0, 1), T),
                                     strict=True):
            assert np.array_equal(observed, clean + draw)

    @pytest.mark.parametrize("bank", [GpBank, BrBank, RsBank])
    def test_traced_runs_draw_every_round_in_order(self, game1, bank):
        records, T = [], 600
        run_seed(game1, bank(game1, T, rngs(1, 2)), T, rngs(0, 1), reference(game1),
                 trace_sink=records.append)
        for rec, draw in zip(records, per_round_draws(game1, (0, 1), T), strict=True):
            assert np.array_equal(rec.observed_utility, rec.clean_utility + draw)

    def test_a_round_without_noise_records_no_allocation(self, game1):
        rec = run_round(stack_game(game1, 2), Stub("gradient"), 1, None)
        assert rec.a is None and rec.observed_utility is None
        assert np.array_equal(rec.clean_utility, utility_matrix(XS, game1))
        with pytest.raises(ProtocolError, match="bandit feedback needs the round's noise"):
            run_round(stack_game(game1, 2), Stub("bandit"), 1, None)

    @pytest.mark.parametrize("kind", ["gradient", "best_response", "none"])
    def test_wrong_shape_without_noise_names_the_expected_stack(self, game1, kind):
        with pytest.raises(ProtocolError, match=r"round 1: bank emitted shape "
                                                r"\(3, 2\), expected \(2, 2, 2\)"):
            run_seed(game1, Stub(kind, x=np.zeros((3, 2))), 5, [NoNoise(), NoNoise()],
                     reference(game1))


class TestAccounting:
    def test_regret_against_fixed_reference(self, game1):
        res, played = rs_seed(game1, 30)
        realized = utility_matrix(played, game1).sum(axis=-1)     # (T, K)
        assert np.allclose(res.cum_regret, np.cumsum(-realized, axis=0),
                           rtol=1e-12, atol=1e-12)

    def test_regret_against_per_round_best_response(self, game1):
        res, played = rs_seed(game1, 10, regret_mode="per_round_br")
        realized = utility_matrix(played, game1).sum(axis=-1)
        gain = deviation_utilities(played, stack_game(game1)) - realized
        assert np.all(gain >= -1e-12)
        assert np.allclose(res.cum_regret, np.cumsum(gain, axis=0),
                           rtol=1e-12, atol=1e-12)

    def test_best_response_solved_once_per_round(self, game1, monkeypatch):
        # br's feedback is the best response its per_round_br regret needs:
        # one br_profile call per round serves both, for all replicas
        calls = count_br_profile_calls(monkeypatch)
        T, played = 12, []
        results = run_seed(game1, BrBank(game1, T, rngs(1, 2)), T, rngs(3, 4),
                           reference(game1), "per_round_br",
                           trace_sink=lambda rec: played.append(rec.x))
        assert len(calls) == T
        played = np.array(played)                                 # (T, S, K, M)
        gain = (deviation_utilities(played, stack_game(game1))
                - utility_matrix(played, game1).sum(axis=-1))
        for s, res in enumerate(results):
            assert np.array_equal(res.cum_regret, np.cumsum(gain[:, s], axis=0))

    @pytest.mark.parametrize("bank,B,T,mode", [
        pytest.param(bank, B, T, mode, id=f"{bank.__name__}-{B}-{T}"
                     + ("" if mode == "per_round_br" else "-ne_reference"))
        for mode in ("per_round_br", "ne_reference")
        for bank, B, T in [*((bank, B, 20) for bank in (GpBank, RsBank, BrBank)
                             for B in (1, 3, 25)), (GpBank, 7, 2003)]
    ])
    def test_best_response_regret_blocks_sum_like_rounds(self, game1, monkeypatch,
                                                         bank, B, T, mode):
        # both regret modes are accounted B rounds per block, per_round_br
        # with one deviation_utilities call each. gp acts from the buffer its
        # observe clips into, so a block holding references would see only
        # its last round. T = 2003 logs every second round, inside the blocks.
        S = 2
        monkeypatch.setattr(engine, "BR_BLOCK_ELEMENTS", B * S * game1.K * game1.M)
        calls = count_br_profile_calls(monkeypatch)
        nash = NashSolution(x_star=X, aggregate=X.sum(axis=-2) + game1.barrier,
                            utilities=utility_matrix(X, game1).sum(axis=-1),
                            eps_gap=0.0, iterations=0, converged=True)
        played = []
        results = run_seed(game1, bank(game1, T, rngs(1, 2)), T, rngs(3, 4),
                           nash, mode,
                           trace_sink=lambda rec: played.append(
                               (rec.x.copy(), rec.br, rec.clean_utility.sum(axis=-1))))
        # br's own best responses serve the accounting; the others solve
        # once per per_round_br block, the last one cut at T
        solves = 0 if mode == "ne_reference" else -(-T // B)
        assert len(calls) == (T if bank is BrBank else solves)
        # the per-round gains, (T, S, K), summed in round order
        xs, brs, realized = zip(*played)
        if mode == "ne_reference":
            ref = nash.utilities
        else:
            ref = deviation_utilities(np.array(xs), stack_game(game1),
                                      np.array(brs) if bank is BrBank else None)
        cum = np.cumsum(ref - np.array(realized), axis=0)
        running = np.cumsum(xs, axis=0)
        logged = [t for t in range(1, T + 1) if t % max(1, T // 1000) == 0 or t == T]
        for s, res in enumerate(results):
            assert res.log_t.tolist() == logged
            assert np.array_equal(res.cum_regret, cum[res.log_t - 1, s])
            for t, profile in res.avg_profile.items():
                assert np.array_equal(profile, running[t - 1, s] / t)

    def test_unknown_regret_mode(self, game1):
        with pytest.raises(ConfigurationError, match="regret mode 'best'"):
            rs_seed(game1, 3, regret_mode="best")

    @pytest.mark.parametrize("T", [37, 50])
    def test_histogram_counts_post_window_rounds(self, game1, T):
        res, played = rs_seed(game1, T)
        post_rounds = T - int(POST_FRACTION * T)
        assert res.histogram.shape == (game1.K, game1.M, HIST_BINS)
        assert res.histogram.sum() == post_rounds * game1.K * game1.M
        assert np.all(res.histogram.sum(axis=-1) == post_rounds)
        assert np.allclose(res.post_window_avg, played[-post_rounds:].mean(axis=0))

    def test_log_rows_end_at_horizon(self, game1):
        # T // 1000 = 2: every second round, and the last one
        res, _ = rs_seed(game1, 2501)
        assert res.log_t[:3].tolist() == [2, 4, 6]
        assert res.log_t[-3:].tolist() == [2498, 2500, 2501]
        assert res.cum_regret.shape == (1251, game1.K)

    def test_checkpoint_profiles_are_running_means(self, game1):
        res, played = rs_seed(game1, 25)
        assert list(res.avg_profile) == checkpoint_rounds(25)   # in round order
        for t, profile in res.avg_profile.items():
            assert np.allclose(profile, played[:t].mean(axis=0), rtol=1e-12)


class TestRegretSlope:
    def test_exact_power_law(self):
        t = np.arange(1, 1001)
        assert regret_slope(t ** 0.75, t) == pytest.approx(0.75, abs=1e-12)

    @pytest.mark.parametrize("cumulative,undefined", [
        ([1.0, 2.0, 3.0, 0.0, 5.0], True),
        ([1.0, 2.0, 3.0, 4.0, -1e-300], True),
        ([-1.0, -2.0, 3.0, 4.0, 5.0], False),     # rounds 3 to 5 are the window
    ])
    def test_nan_where_the_window_holds_a_regret_at_or_below_zero(self, cumulative,
                                                                  undefined):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            slope = regret_slope(cumulative, np.arange(1, 6))
        assert np.isnan(slope) == undefined

    def test_horizon_one_is_nan(self, game1):
        res, _ = rs_seed(game1, 1)
        assert res.log_t.tolist() == [1]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert np.isnan(regret_slope(res.cum_regret[:, 0], res.log_t))
