import numpy as np
import pytest

from careql.bdesr import BdesrError, bdesr_report, cohort_split, discrepancy
from careql.dataset import (ActionIndex, DatasetError, DoseBins, OfflineDataset,
                            store_of)

from test_dataset import make_episode


class FixedPolicy:
    """Recommends a fixed flat action sequence per episode."""

    def __init__(self, actions_by_episode):
        self.actions_by_episode = actions_by_episode

    def greedy_rows(self, store):
        return np.concatenate([np.asarray(self.actions_by_episode[episode_id])
                               for episode_id in store.episode_id])


def episode_with_actions(flats, ep_id="e0", survived=True):
    actions = [ActionIndex.from_flat(f) for f in flats]
    features = [[float(i)] for i in range(len(flats) + 1)]
    return make_episode(features, survived=survived, ep_id=ep_id, actions=actions)


def dataset_of(episodes):
    return OfflineDataset(tuple(episodes), n_features=1, d_n=4,
                          bin_edges=DoseBins((0.5, 1.5, 2.5, 3.5), (0.5, 1.5, 2.5, 3.5)))


def score_one(ep, policy, alpha=0.5, beta=0.5):
    """(m_iv, m_vaso, m) of a one-episode store."""
    return tuple(float(x[0]) for x in discrepancy(store_of([ep]), policy, alpha, beta))


class TestEpisodeDiscrepancy:
    def test_perfect_agreement_scores_zero(self):
        ep = episode_with_actions([7, 12, 3])
        policy = FixedPolicy({"e0": [7, 12, 3]})
        m_iv, m_vaso, m = score_one(ep, policy)
        assert m == 0.0
        assert m_iv == 0.0 and m_vaso == 0.0

    def test_constant_iv_offset(self):
        # clinician levels (iv, vaso); policy recommends iv+1, same vaso
        clin = [ActionIndex(1, 2), ActionIndex(2, 0), ActionIndex(0, 4)]
        rec = [ActionIndex(2, 2).flat, ActionIndex(3, 0).flat, ActionIndex(1, 4).flat]
        ep = episode_with_actions([a.flat for a in clin])
        policy = FixedPolicy({"e0": rec})
        m_iv, m_vaso, m = score_one(ep, policy, alpha=0.5, beta=0.5)
        assert m_iv == 1.0
        assert m_vaso == 0.0
        assert m == 0.5

    def test_matches_hand_sum_random_six_steps(self):
        rng = np.random.default_rng(0)
        clin = rng.integers(0, 25, size=6)
        rec = rng.integers(0, 25, size=6)
        ep = episode_with_actions(list(clin))
        policy = FixedPolicy({"e0": list(rec)})
        m_iv, m_vaso, m = score_one(ep, policy, alpha=0.3, beta=0.7)
        iv_gaps = [abs(ActionIndex.from_flat(int(a)).iv_level
                       - ActionIndex.from_flat(int(b)).iv_level)
                   for a, b in zip(rec, clin)]
        vaso_gaps = [abs(ActionIndex.from_flat(int(a)).vaso_level
                         - ActionIndex.from_flat(int(b)).vaso_level)
                     for a, b in zip(rec, clin)]
        assert m_iv == pytest.approx(np.mean(iv_gaps))
        assert m_vaso == pytest.approx(np.mean(vaso_gaps))
        assert m == pytest.approx(0.3 * np.mean(iv_gaps) + 0.7 * np.mean(vaso_gaps))

    def test_weight_boundaries(self):
        ep = episode_with_actions([ActionIndex(1, 1).flat])
        policy = FixedPolicy({"e0": [ActionIndex(3, 4).flat]})
        m_iv, _, m = score_one(ep, policy, alpha=1.0, beta=0.0)
        assert m == m_iv == 2.0
        _, m_vaso, m = score_one(ep, policy, alpha=0.0, beta=1.0)
        assert m == m_vaso == 3.0

    def test_uniform_gap_increase_raises_m_by_one(self):
        ep = episode_with_actions([ActionIndex(1, 1).flat, ActionIndex(2, 2).flat])
        base_actions = [ActionIndex(1, 1).flat, ActionIndex(2, 2).flat]
        bumped = [ActionIndex(2, 2).flat, ActionIndex(3, 3).flat]
        base = score_one(ep, FixedPolicy({"e0": base_actions}))[2]
        up = score_one(ep, FixedPolicy({"e0": bumped}))[2]
        assert up == pytest.approx(base + 1.0)

    def test_bad_weights_rejected(self):
        ep = episode_with_actions([0])
        policy = FixedPolicy({"e0": [0]})
        with pytest.raises(BdesrError):
            score_one(ep, policy, alpha=0.7, beta=0.7)
        with pytest.raises(BdesrError):
            score_one(ep, policy, alpha=-0.2, beta=1.2)

    def test_scores_every_episode_of_the_store_in_order(self):
        eps = [episode_with_actions([ActionIndex(0, 0).flat] * (i + 1), ep_id=f"e{i}")
               for i in range(3)]
        policy = FixedPolicy({f"e{i}": [ActionIndex(i, 0).flat] * (i + 1)
                              for i in range(3)})
        m_iv, m_vaso, m = discrepancy(store_of(eps), policy)
        assert m_iv.tolist() == [0.0, 1.0, 2.0]
        assert m_vaso.tolist() == [0.0, 0.0, 0.0]
        assert m.tolist() == [0.0, 0.5, 1.0]


class TestCohortSplit:
    def test_percentiles_one_to_hundred(self):
        low, high, q_low, q_high = cohort_split(np.arange(1.0, 101.0), p=20.0)
        assert q_low == pytest.approx(20.8)
        assert q_high == pytest.approx(80.2)
        assert low.sum() == 20   # scores 1..20
        assert high.sum() == 20  # scores 81..100

    def test_two_distinct_scores(self):
        low, high, _, _ = cohort_split(np.array([0.5, 2.0]), p=20.0)
        assert low.tolist() == [True, False]
        assert high.tolist() == [False, True]

    def test_identical_scores_warns_and_includes_all(self):
        with pytest.warns(UserWarning, match="identical"):
            low, high, _, _ = cohort_split(np.array([1.0, 1.0, 1.0]), p=20.0)
        assert low.all() and high.all()

    def test_p_bounds(self):
        with pytest.raises(BdesrError):
            cohort_split(np.array([1.0, 2.0]), p=0.0)
        with pytest.raises(BdesrError):
            cohort_split(np.array([1.0, 2.0]), p=50.0)
        with pytest.raises(BdesrError):
            cohort_split(np.array([]), p=20.0)


def graded_dataset(survived):
    """One-step episodes e0..e4 whose scores under ``GRADED`` are 0..4."""
    return dataset_of([episode_with_actions([ActionIndex(0, 0).flat], ep_id=f"e{i}",
                                            survived=flag)
                       for i, flag in enumerate(survived)])


# recommends levels (i, i) in episode e_i, a gap of i on both drugs
GRADED = FixedPolicy({f"e{i}": [ActionIndex(i, i).flat] for i in range(5)})


class TestBdesrRates:
    def test_all_survive(self):
        report = bdesr_report(graded_dataset([True] * 5), GRADED, p=20.0)
        assert (report["low_bdesr"], report["high_bdesr"]) == (1.0, 1.0)

    def test_low_survives_high_dies(self):
        report = bdesr_report(graded_dataset([True, True, True, False, False]),
                              GRADED, p=20.0)
        assert report["cohorts"] == {"low": ["e0"], "high": ["e4"]}
        assert report["low_bdesr"] == 1.0
        assert report["high_bdesr"] == 0.0


class TestReport:
    def test_report_schema_and_consistency(self):
        episodes = []
        actions = {}
        rng = np.random.default_rng(1)
        for i in range(10):
            flats = list(rng.integers(0, 25, size=3))
            ep = episode_with_actions(flats, ep_id=f"e{i}", survived=bool(i % 2))
            episodes.append(ep)
            actions[f"e{i}"] = list(rng.integers(0, 25, size=3))
        report = bdesr_report(dataset_of(episodes), FixedPolicy(actions), p=20.0)
        assert set(report) == {"alpha", "beta", "p", "thresholds", "low_bdesr",
                               "high_bdesr", "cohorts", "scores"}
        assert len(report["scores"]) == 10
        ids = {s["episode_id"] for s in report["scores"]}
        assert set(report["cohorts"]["low"]) <= ids
        assert 0.0 <= report["low_bdesr"] <= 1.0

    def test_scale_invariance_under_level_relabeling(self):
        # shifting both clinician and policy by the same offset keeps m
        ep_a = episode_with_actions([ActionIndex(0, 1).flat, ActionIndex(1, 0).flat])
        pol_a = FixedPolicy({"e0": [ActionIndex(2, 2).flat, ActionIndex(0, 3).flat]})
        ep_b = episode_with_actions([ActionIndex(1, 2).flat, ActionIndex(2, 1).flat])
        pol_b = FixedPolicy({"e0": [ActionIndex(3, 3).flat, ActionIndex(1, 4).flat]})
        assert score_one(ep_a, pol_a)[2] == score_one(ep_b, pol_b)[2]


class TestPolicyAnswerChecks:
    def test_wrong_number_of_actions_raises(self):
        ep = episode_with_actions([7, 12, 3])
        with pytest.raises(BdesrError, match="for 3 decisions"):
            score_one(ep, FixedPolicy({"e0": [7, 12]}))

    @pytest.mark.parametrize("bad", [25, -1])
    def test_out_of_range_action_raises(self, bad):
        ep = episode_with_actions([7, 12, 3])
        with pytest.raises(DatasetError, match=rf"must be in \[0, 24\], got {bad}"):
            score_one(ep, FixedPolicy({"e0": [7, bad, 3]}))
