import numpy as np
import pytest

from careql.bdesr import (
    BdesrError,
    DiscrepancyScore,
    bdesr_rates,
    bdesr_report,
    cohort_split,
    episode_discrepancy,
)
from careql.dataset import ActionIndex, DatasetError, DoseBins, Episode, OfflineDataset

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


class TestEpisodeDiscrepancy:
    def test_perfect_agreement_scores_zero(self):
        ep = episode_with_actions([7, 12, 3])
        policy = FixedPolicy({"e0": [7, 12, 3]})
        score = episode_discrepancy(ep, policy)
        assert score.m == 0.0
        assert score.m_iv == 0.0 and score.m_vaso == 0.0

    def test_constant_iv_offset(self):
        # clinician levels (iv, vaso); policy recommends iv+1, same vaso
        clin = [ActionIndex(1, 2), ActionIndex(2, 0), ActionIndex(0, 4)]
        rec = [ActionIndex(2, 2).flat, ActionIndex(3, 0).flat, ActionIndex(1, 4).flat]
        ep = episode_with_actions([a.flat for a in clin])
        policy = FixedPolicy({"e0": rec})
        score = episode_discrepancy(ep, policy, alpha=0.5, beta=0.5)
        assert score.m_iv == 1.0
        assert score.m_vaso == 0.0
        assert score.m == 0.5

    def test_matches_hand_sum_random_six_steps(self):
        rng = np.random.default_rng(0)
        clin = rng.integers(0, 25, size=6)
        rec = rng.integers(0, 25, size=6)
        ep = episode_with_actions(list(clin))
        policy = FixedPolicy({"e0": list(rec)})
        score = episode_discrepancy(ep, policy, alpha=0.3, beta=0.7)
        iv_gaps = [abs(ActionIndex.from_flat(int(a)).iv_level
                       - ActionIndex.from_flat(int(b)).iv_level)
                   for a, b in zip(rec, clin)]
        vaso_gaps = [abs(ActionIndex.from_flat(int(a)).vaso_level
                         - ActionIndex.from_flat(int(b)).vaso_level)
                     for a, b in zip(rec, clin)]
        assert score.m_iv == pytest.approx(np.mean(iv_gaps))
        assert score.m_vaso == pytest.approx(np.mean(vaso_gaps))
        assert score.m == pytest.approx(0.3 * np.mean(iv_gaps) + 0.7 * np.mean(vaso_gaps))

    def test_weight_boundaries(self):
        ep = episode_with_actions([ActionIndex(1, 1).flat])
        policy = FixedPolicy({"e0": [ActionIndex(3, 4).flat]})
        only_iv = episode_discrepancy(ep, policy, alpha=1.0, beta=0.0)
        assert only_iv.m == only_iv.m_iv == 2.0
        only_vaso = episode_discrepancy(ep, policy, alpha=0.0, beta=1.0)
        assert only_vaso.m == only_vaso.m_vaso == 3.0

    def test_uniform_gap_increase_raises_m_by_one(self):
        ep = episode_with_actions([ActionIndex(1, 1).flat, ActionIndex(2, 2).flat])
        base_actions = [ActionIndex(1, 1).flat, ActionIndex(2, 2).flat]
        bumped = [ActionIndex(2, 2).flat, ActionIndex(3, 3).flat]
        base = episode_discrepancy(ep, FixedPolicy({"e0": base_actions}))
        up = episode_discrepancy(ep, FixedPolicy({"e0": bumped}))
        assert up.m == pytest.approx(base.m + 1.0)

    def test_bad_weights_rejected(self):
        ep = episode_with_actions([0])
        policy = FixedPolicy({"e0": [0]})
        with pytest.raises(BdesrError):
            episode_discrepancy(ep, policy, alpha=0.7, beta=0.7)
        with pytest.raises(BdesrError):
            episode_discrepancy(ep, policy, alpha=-0.2, beta=1.2)


def scores_from(values):
    return [DiscrepancyScore(f"e{i}", v, v, v) for i, v in enumerate(values)]


class TestCohortSplit:
    def test_percentiles_one_to_hundred(self):
        split = cohort_split(scores_from(np.arange(1.0, 101.0)), p=20.0)
        assert split.q_low == pytest.approx(20.8)
        assert split.q_high == pytest.approx(80.2)
        assert len(split.low_ids) == 20   # scores 1..20
        assert len(split.high_ids) == 20  # scores 81..100

    def test_two_distinct_scores(self):
        split = cohort_split(scores_from([0.5, 2.0]), p=20.0)
        assert split.low_ids == ("e0",)
        assert split.high_ids == ("e1",)

    def test_identical_scores_warns_and_includes_all(self):
        with pytest.warns(UserWarning, match="identical"):
            split = cohort_split(scores_from([1.0, 1.0, 1.0]), p=20.0)
        assert set(split.low_ids) == set(split.high_ids) == {"e0", "e1", "e2"}

    def test_p_bounds(self):
        with pytest.raises(BdesrError):
            cohort_split(scores_from([1.0, 2.0]), p=0.0)
        with pytest.raises(BdesrError):
            cohort_split(scores_from([1.0, 2.0]), p=50.0)
        with pytest.raises(BdesrError):
            cohort_split([], p=20.0)


class TestBdesrRates:
    def test_all_survive(self):
        split = cohort_split(scores_from([0.0, 1.0, 2.0, 3.0, 4.0]), p=20.0)
        low, high = bdesr_rates(split, {f"e{i}": True for i in range(5)})
        assert (low, high) == (1.0, 1.0)

    def test_low_survives_high_dies(self):
        split = cohort_split(scores_from([0.0, 1.0, 2.0, 3.0, 4.0]), p=20.0)
        survival = {"e0": True, "e1": True, "e2": True, "e3": False, "e4": False}
        low, high = bdesr_rates(split, survival)
        assert low == 1.0
        assert high == 0.0

    def test_missing_label_rejected(self):
        split = cohort_split(scores_from([0.0, 4.0]), p=20.0)
        with pytest.raises(BdesrError, match="survival label"):
            bdesr_rates(split, {"e0": True})


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
        ds = OfflineDataset(tuple(episodes), n_features=1, d_n=4,
                            bin_edges=DoseBins((0.5, 1.5, 2.5, 3.5),
                                               (0.5, 1.5, 2.5, 3.5)))
        report = bdesr_report(ds, FixedPolicy(actions), p=20.0)
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
        assert episode_discrepancy(ep_a, pol_a).m == \
            episode_discrepancy(ep_b, pol_b).m


class TestPolicyAnswerChecks:
    def test_wrong_number_of_actions_raises(self):
        ep = episode_with_actions([7, 12, 3])
        with pytest.raises(BdesrError, match="for 3 decisions"):
            episode_discrepancy(ep, FixedPolicy({"e0": [7, 12]}))

    @pytest.mark.parametrize("bad", [25, -1])
    def test_out_of_range_action_raises(self, bad):
        ep = episode_with_actions([7, 12, 3])
        with pytest.raises(DatasetError, match=rf"must be in \[0, 24\], got {bad}"):
            episode_discrepancy(ep, FixedPolicy({"e0": [7, bad, 3]}))
