import hashlib
import json
import os
import re
import shutil
import stat
import tempfile
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from careql import dataset as dataset_mod
from careql.dataset import (
    N_DOSE_LEVELS,
    SNAPSHOT_NAME,
    SNAPSHOT_VERSION,
    SPLITS,
    ActionIndex,
    DatasetError,
    DoseBins,
    OfflineDataset,
    compute_bin_edges,
    discretize_doses,
    export,
    ingest,
    normalize,
)
from careql.synthgym import GeneratorConfig, generate_mdp, near_clinician_behavior, rollout

from stores import DTYPES, EDGES, ingest_parsed, make_dataset, make_store, set_rows


def terminal_reward(t, n, survived):
    """Reward of transition t of n: +/-1 on the last, zero before it."""
    return (1.0 if survived else -1.0) if t == n - 1 else 0.0


class TestStoreReward:
    """``EpisodeStore.reward``, the reward rule ingest and training read."""

    def rewards(self, n, survived):
        store = make_store([{"structured": [[0.0]] * (n + 1), "survived": survived}])
        return store.reward.tolist()

    def test_survivor_five_steps(self):
        assert self.rewards(5, True) == [0, 0, 0, 0, 1]

    def test_single_step_death(self):
        assert self.rewards(1, False) == [-1]

    def test_three_step_death(self):
        assert self.rewards(3, False) == [0, 0, -1]

    def test_empty_episode_rejected(self):
        store = make_store([{"structured": [[0.0], [1.0]]},
                            {"structured": [[2.0]], "episode_id": "lone frame"}])
        with pytest.raises(DatasetError, match="episode 'lone frame' has no transitions"):
            OfflineDataset(store.views(), 1, 4)

class TestDiscretizeDose:
    def test_zero_dose_is_level_zero(self):
        assert discretize_doses([0.0], EDGES)[0] == 0

    def test_edge_goes_to_higher_bucket(self):
        assert discretize_doses([1.5], EDGES)[0] == 2
        assert discretize_doses([3.5], EDGES)[0] == 4

    def test_below_minimal_cut_is_level_zero(self):
        assert discretize_doses([0.25], EDGES)[0] == 0

    def test_negative_and_nan_rejected(self):
        with pytest.raises(DatasetError):
            discretize_doses([-0.1], EDGES)
        with pytest.raises(DatasetError):
            discretize_doses([float("nan")], EDGES)

    def test_uniform_doses_hit_quartiles(self):
        # Uniform(0, 1] doses against empirical quartile edges: levels 1..4
        # each receive 0.25 +/- 0.02 of the mass.
        rng = np.random.default_rng(0)
        doses = 1.0 - rng.random(100_000)  # (0, 1]
        edges = compute_bin_edges(doses)
        levels = discretize_doses(doses, edges)
        freqs = np.bincount(levels, minlength=5) / levels.size
        assert np.all(np.abs(freqs[1:] - 0.25) < 0.02)


class TestComputeBinEdges:
    def test_quartiles_of_positive_subset(self):
        edges = compute_bin_edges([0, 0, 1, 2, 3, 4])
        expected = (1.0,) + tuple(np.percentile([1, 2, 3, 4], [25, 50, 75]))
        assert edges == pytest.approx(expected)

    def test_single_positive_rejected(self):
        with pytest.raises(DatasetError, match="distinct positive"):
            compute_bin_edges([0.0] * 9 + [2.0])

    def test_equal_positives_rejected(self):
        with pytest.raises(DatasetError):
            compute_bin_edges([3.0] * 10)

    def test_all_zero_suggests_fallback(self):
        with pytest.raises(DatasetError, match="fallback"):
            compute_bin_edges([0.0, 0.0, 0.0])


class TestActionIndex:
    def test_bijection_over_all_25(self):
        seen = set()
        for flat in range(25):
            a = ActionIndex.from_flat(flat)
            assert a.flat == flat
            seen.add((a.iv_level, a.vaso_level))
        assert len(seen) == 25
        for iv in range(5):
            for vaso in range(5):
                assert ActionIndex.from_flat(ActionIndex(iv, vaso).flat) == ActionIndex(iv, vaso)

    def test_out_of_range_rejected(self):
        with pytest.raises(DatasetError):
            ActionIndex(5, 0)
        with pytest.raises(DatasetError):
            ActionIndex.from_flat(25)



class TestEpisodeInvariants:
    def test_reward_sparsity(self):
        ep = make_dataset([{"structured": [[0.0], [1.0], [2.0], [3.0]],
                            "survived": False}]).episodes[0]
        rewards = [t.reward for t in ep.transitions]
        assert sum(abs(r) for r in rewards) == 1.0
        assert rewards[-1] == -1.0

    def test_a_view_indexes_like_a_tuple(self):
        ep = make_dataset([{"structured": [[0.0], [1.0], [2.0]], "action": [3, 4]}]).episodes[0]
        assert len(ep.transitions) == 2
        assert [tr.action.flat for tr in ep.transitions] == [3, 4]
        assert ep.transitions[-1].action.flat == ep.transitions[1].action.flat == 4
        with pytest.raises(IndexError):
            ep.transitions[2]


class TestStoreCheck:
    """An ``OfflineDataset`` checks the one store its episodes are views of."""

    EPISODES = [{"structured": [[0.0], [1.0], [2.0]]},
                {"structured": [[3.0], [4.0]], "split": "test"}]

    def test_episodes_of_two_stores_are_rejected(self):
        first, second = make_store(self.EPISODES).views(), make_store(self.EPISODES).views()
        with pytest.raises(DatasetError, match="views of one store"):
            OfflineDataset((first[0], second[1]), 1, 4)

    @pytest.mark.parametrize("name", ["structured", "note_present", "state_id", "action",
                                      "behavior_prob", "lengths", "survived", "episode_id"])
    def test_arrays_that_disagree_with_lengths_are_rejected(self, name):
        store = make_store(self.EPISODES)
        short = replace(store, **{name: getattr(store, name)[:-1]})
        with pytest.raises(DatasetError, match="but lengths and widths give"):
            OfflineDataset(short.views(), 1, 4)

    def test_an_unknown_split_is_rejected(self):
        store = make_store([{"structured": [[0.0], [1.0]], "split": "holdout"}])
        with pytest.raises(DatasetError, match="episode 'ep0' has a split outside"):
            OfflineDataset(store.views(), 1, 4)

    @pytest.mark.parametrize("name, value, message", [
        ("action", 30, "has an action outside 0..24"),
        ("action", -1, "has an action outside 0..24"),
        ("behavior_prob", 1.7, "has a behavior_prob that is neither NaN nor in"),
        ("behavior_prob", -0.1, "has a behavior_prob that is neither NaN nor in"),
        ("behavior_prob", np.inf, "has a behavior_prob that is neither NaN nor in"),
    ], ids=["action_30", "action_negative", "prob_above_one", "prob_negative", "prob_inf"])
    def test_a_value_out_of_range_names_the_first_episode_holding_one(self, name, value,
                                                                      message):
        store = set_rows(make_store(self.EPISODES * 2), [1, 3], **{name: value})
        with pytest.raises(DatasetError, match=f"episode 'ep1' {message}"):
            OfflineDataset(store.views(), 1, 4)

    @pytest.mark.parametrize("prob", [0.0, 1.0, np.nan])
    def test_a_behavior_prob_at_a_bound_or_unknown_is_kept(self, prob):
        store = set_rows(make_store(self.EPISODES), [0], behavior_prob=prob)
        ds = OfflineDataset(store.views(), 1, 4)
        assert np.array_equal(ds.store.behavior_prob, store.behavior_prob, equal_nan=True)

    @pytest.mark.parametrize("n_features, d_n", [(2, 4), (1, 3)])
    def test_frames_of_another_width_are_rejected(self, n_features, d_n):
        with pytest.raises(DatasetError, match="but lengths and widths give"):
            OfflineDataset(make_store(self.EPISODES).views(), n_features, d_n)

    @pytest.mark.parametrize("empty", ["split", "no episodes"])
    def test_an_empty_dataset_keeps_its_widths(self, empty):
        ds = make_dataset([{"structured": [[0.0, 1.0]] * 3}], d_n=3)
        none = ds.split("val") if empty == "split" else replace(ds, episodes=())
        assert (len(none), none.n_transitions, none.n_features, none.d_n) == (0, 0, 2, 3)
        assert_store_equals(none.store, {name: getattr(ds.store, name)[:0] for name in DTYPES})


class TestNormalize:
    def make_dataset(self, col):
        # one episode whose feature-0 column over frames equals `col`
        return make_dataset([{"structured": [[c] for c in col]}])

    def frame_values(self, ds):
        return np.array([f.structured[0] for f in ds.episodes[0].frames()])

    def test_population_zscore(self):
        ds = normalize(self.make_dataset([1.0, 2.0, 3.0]))
        expected = np.array([-1.224744871391589, 0.0, 1.224744871391589])
        assert np.abs(self.frame_values(ds) - expected).max() < 1e-6

    def test_constant_column_maps_to_zero(self):
        ds = normalize(self.make_dataset([7.0, 7.0, 7.0]))
        assert np.all(self.frame_values(ds) == 0.0)

    def test_idempotent(self):
        once = normalize(self.make_dataset([1.0, 5.0, 6.0, -2.0]))
        twice = normalize(once)
        a = self.frame_values(once)
        b = self.frame_values(twice)
        assert np.abs(a - b).max() < 1e-9
        assert abs(a.mean()) < 1e-9 and abs(a.std() - 1.0) < 1e-9

    def test_stats_come_from_train_split_only(self):
        ds = normalize(make_dataset([
            {"structured": [[0.0], [2.0]], "episode_id": "a"},
            {"structured": [[100.0], [102.0]], "episode_id": "b", "split": "test"}]))
        train_vals = np.array([f.structured[0] for f in ds.episodes[0].frames()])
        assert train_vals == pytest.approx([-1.0, 1.0])
        test_vals = np.array([f.structured[0] for f in ds.episodes[1].frames()])
        assert test_vals == pytest.approx([99.0, 101.0])

    def test_shared_frames_stay_consistent(self):
        ds = normalize(self.make_dataset([1.0, 2.0, 3.0]))
        ep = ds.episodes[0]
        assert np.array_equal(ep.transitions[0].next_obs.structured,
                              ep.transitions[1].obs.structured)

    def test_non_finite_feature_names_index_and_episode(self):
        # write into the stored array to simulate a corrupted frame
        ds = make_dataset([{"structured": [[1.0], [2.0]], "episode_id": "a"},
                           {"structured": [[1.0], [2.0], [3.0]], "episode_id": "b"}])
        ds.store.structured[3, 0] = np.inf
        with pytest.raises(DatasetError, match="feature 0 in episode 'b'"):
            normalize(ds)

    # finite values whose sum (and so the mean) or spread overflows
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("column", [[1e308, 1e308, 0.0], [1e308, -1e308, 0.0]])
    def test_overflowing_statistics_name_the_feature(self, column):
        ds = make_dataset([{"structured": [[1.0, c] for c in column]}])
        with pytest.raises(DatasetError, match="feature 1 is too large to standardize"):
            normalize(ds)


def two_frames(**episode):
    """An episode of one transition and its two frames, with ``episode``'s rows."""
    return {"structured": [[0.0], [1.0]], **episode}


def edited_store(episodes, **arrays) -> OfflineDataset:
    """The dataset of ``make_store(episodes)`` with some arrays replaced,
    each by its result on the store's own: ``name=lambda a: ...``."""
    store = make_store(episodes)
    store = replace(store, **{name: edit(getattr(store, name)) for name, edit in arrays.items()})
    return OfflineDataset(store.views(), store.structured.shape[1], 4,
                          bin_edges=DoseBins(EDGES, EDGES))


# datasets whose files ingest would refuse, and the message export refuses them with
EXPORT_REFUSALS = {
    "nan_feature": (lambda: make_dataset([two_frames(structured=[[0.0], [np.nan]])]),
                    "episode 'ep0' step 1: f0 is nan"),
    "negative_dose": (lambda: make_dataset([two_frames(iv_dose=[-1.0])]),
                      "episode 'ep0' step 0: iv_dose is -1.0"),
    "inf_embedding": (lambda: make_dataset([two_frames(notes={1: [0.0, np.inf, 0.0, 0.0]})]),
                      "episode 'ep0' step 1: note embedding must be finite"),
    "repeated_id": (lambda: make_dataset([two_frames(episode_id="a"),
                                          two_frames(episode_id="a")]),
                    "lists episode 'a' twice"),
    "descending_edges": (lambda: make_dataset([two_frames()], bins=DoseBins(EDGES[::-1], EDGES)),
                         r"bad bin_edges \(bin edges must be strictly increasing"),
    "three_edges": (lambda: make_dataset([two_frames()], bins=DoseBins(EDGES, EDGES[:3])),
                    r"bad bin_edges \(expected 4 bin edges"),
    "integer_id": (lambda: make_dataset([two_frames(episode_id=7)]),
                   "episode id 7 is not a string"),
    "boolean_embedding": (lambda: edited_store([two_frames(notes={0: [1.0, 0.0, 1.0, 0.0]})],
                                               note_embedding=lambda a: a.astype(bool)),
                          "note embeddings must be numbers, got dtype bool"),
}


class TestIngestExport:
    def make_dataset(self):
        emb0 = [0.125, -1.5, 2.0, 0.0]
        return make_dataset([
            {"structured": [[0.5, 1.0], [1.5, -0.25], [2.5, 0.75]], "episode_id": "ep000",
             "notes": {0: emb0, 2: emb0}},
            {"structured": [[0.0, 0.0], [1.0, 1.0]], "survived": False, "episode_id": "ep001",
             "split": "val"}])
    def test_round_trip_byte_exact(self, tmp_path):
        ds = self.make_dataset()
        paths = export(ds, tmp_path / "a")
        loaded = ingest_parsed(paths.values())
        paths2 = export(loaded, tmp_path / "b")
        for key in paths:
            assert paths[key].read_bytes() == paths2[key].read_bytes(), key

    def test_export_of_an_empty_split_is_refused(self, tmp_path):
        empty = self.make_dataset().split("test")
        with pytest.raises(DatasetError, match="no episodes"):
            export(empty, tmp_path / "out")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("bad_id", ["a,b", "a\nb", "a\r", "\x0b", "\x0c", "\x1c",
                                        "\x1d", "\x1e", "\x85", "a\u2028", "\u2029b"])
    def test_export_refuses_an_id_that_ingest_would_split(self, tmp_path, bad_id):
        ds = make_dataset([{"structured": [[0.0], [1.0]], "episode_id": "ep0"},
                           {"structured": [[0.0], [1.0]], "episode_id": bad_id}])
        with pytest.raises(DatasetError, match=re.escape(f"episode id {bad_id!r}")):
            export(ds, tmp_path / "out")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("make, message", list(EXPORT_REFUSALS.values()),
                             ids=list(EXPORT_REFUSALS))
    def test_export_refuses_what_ingest_would_refuse(self, tmp_path, make, message):
        with pytest.raises(DatasetError, match=message):
            export(make(), tmp_path / "out")
        assert not (tmp_path / "out").exists()

    def test_export_of_ids_in_order_gathers_no_rows(self, tmp_path):
        # a rollout numbers its episodes in order, so export writes its store
        mdp = generate_mdp(GeneratorConfig(n_severity=3, n_context=2, n_features=4, d_n=4,
                                           min_gap=0.0), seed=3)
        ds = rollout(mdp, near_clinician_behavior(mdp, 0.3), n_episodes=12, max_len=6, seed=1)
        assert ds.store.take(np.arange(12)) is ds.store
        with mock.patch.object(dataset_mod, "_ranges", side_effect=AssertionError("gathered")):
            export(ds, tmp_path)

    def test_reingest_preserves_content(self, tmp_path):
        ds = self.make_dataset()
        paths = export(ds, tmp_path)
        loaded = ingest_parsed(paths.values())
        assert len(loaded) == 2
        ep = loaded.episodes[0]
        assert ep.episode_id == "ep000"
        assert [t.done for t in ep.transitions] == [False, True]
        assert ep.transitions[0].obs.note_present
        assert not ep.transitions[0].next_obs.note_present
        assert np.array_equal(ep.transitions[0].obs.note_embedding,
                              np.array([0.125, -1.5, 2.0, 0.0]))
        assert ep.transitions[0].action == ActionIndex(1, 2)
        assert loaded.episodes[1].split == "val"
        assert not loaded.episodes[1].survived

    def test_empty_notes_file_means_no_notes(self, tmp_path):
        ds = make_dataset([{"structured": [[0.0], [1.0], [2.0]], "episode_id": "e"}])
        paths = export(ds, tmp_path)
        assert paths["notes"].read_text() == ""
        loaded = ingest_parsed(paths.values())
        for ep in loaded.episodes:
            for frame in ep.frames():
                assert not frame.note_present
                assert np.all(frame.note_embedding == 0.0)

    def test_unknown_episode_id_rejected(self, tmp_path):
        paths = export(self.make_dataset(), tmp_path)
        man = json.loads(paths["manifest"].read_text())
        man["episodes"] = [e for e in man["episodes"] if e["id"] != "ep001"]
        paths["manifest"].write_text(json.dumps(man))
        with pytest.raises(DatasetError, match="ep001"):
            ingest(paths["structured"], paths["notes"], paths["manifest"])

    def test_duplicate_step_rejected(self, tmp_path):
        paths = export(self.make_dataset(), tmp_path)
        lines = paths["structured"].read_text().splitlines()
        lines.append(lines[1])
        paths["structured"].write_text("\n".join(lines) + "\n")
        with pytest.raises(DatasetError, match="duplicate"):
            ingest(paths["structured"], paths["notes"], paths["manifest"])

    def test_embedding_dimension_mismatch_rejected(self, tmp_path):
        paths = export(self.make_dataset(), tmp_path)
        note = {"episode_id": "ep001", "step": 0, "embedding": [1.0, 2.0]}
        with paths["notes"].open("a") as fh:
            fh.write(json.dumps(note) + "\n")
        with pytest.raises(DatasetError, match="d_n"):
            ingest(paths["structured"], paths["notes"], paths["manifest"])

    def test_note_for_unknown_frame_rejected(self, tmp_path):
        paths = export(self.make_dataset(), tmp_path)
        note = {"episode_id": "ep001", "step": 99, "embedding": [0.0] * 4}
        with paths["notes"].open("a") as fh:
            fh.write(json.dumps(note) + "\n")
        with pytest.raises(DatasetError, match="unknown frame"):
            ingest(paths["structured"], paths["notes"], paths["manifest"])


def per_transition_columns(episodes):
    """Reference for the store's per-transition columns, from the episodes'
    rows: one Python loop per transition."""
    rows = {name: [] for name in ("action", "reward", "done", "behavior_prob",
                                  "state_id", "next_state_id", "episode_index")}
    for i, ep in enumerate(episodes):
        n = len(ep["action"])
        for t in range(n):
            rows["action"].append(ep["action"][t])
            rows["reward"].append(terminal_reward(t, n, ep["survived"]))
            rows["done"].append(t == n - 1)
            rows["behavior_prob"].append(ep["behavior_prob"][t])
            rows["state_id"].append(ep["state_id"][t])
            rows["next_state_id"].append(ep["state_id"][t + 1])
            rows["episode_index"].append(i)
    dtypes = {"reward": np.float64, "behavior_prob": np.float64, "done": bool}
    out = {name: np.array(values, dtype=dtypes.get(name, np.int64))
           for name, values in rows.items()}
    out["lengths"] = np.array([len(ep["action"]) for ep in episodes], dtype=np.int64)
    out["offsets"] = np.array([sum(len(e["action"]) for e in episodes[:i])
                               for i in range(len(episodes))], dtype=np.int64)
    out["frame_episode"] = np.array([i for i, ep in enumerate(episodes)
                                     for _ in ep["structured"]], dtype=np.int64)
    return out


@st.composite
def logged_episodes(draw):
    """Rows of episodes of random lengths; probs and state ids missing on random ones."""
    episodes = []
    for _ in range(draw(st.integers(1, 6))):
        n = draw(st.integers(1, 5))
        probs = draw(st.none() | st.lists(st.floats(1e-6, 1.0), min_size=n, max_size=n))
        states = draw(st.none() | st.lists(st.integers(0, 30), min_size=n + 1,
                                           max_size=n + 1))
        episodes.append({"structured": [[float(t)] for t in range(n + 1)],
                         "action": draw(st.lists(st.integers(0, 24), min_size=n, max_size=n)),
                         "survived": draw(st.booleans()),
                         "behavior_prob": [np.nan] * n if probs is None else probs,
                         "state_id": [-1] * (n + 1) if states is None else states})
    return episodes


class TestTransitionColumns:
    @settings(max_examples=60, deadline=None)
    @given(logged_episodes())
    def test_equals_per_transition_reference(self, episodes):
        store = make_store(episodes)
        frame = store.decision_frame
        cols = {"action": store.action, "reward": store.reward, "done": store.done,
                "behavior_prob": store.behavior_prob, "state_id": store.state_id[frame],
                "next_state_id": store.state_id[frame + 1],
                "episode_index": store.episode_index, "lengths": store.lengths,
                "offsets": store.offsets, "frame_episode": store.frame_episode}
        for name, expected in per_transition_columns(episodes).items():
            got = cols[name]
            assert got.dtype == expected.dtype and got.shape == expected.shape, name
            assert got.tobytes() == expected.tobytes(), name
        missing = np.isnan(store.behavior_prob)
        first = next((i for i, ep in enumerate(episodes)
                      if np.isnan(ep["behavior_prob"]).any()), None)
        assert store.first_episode(missing) == first


# ---------------------------------------------------------------------------
# The episode store
# ---------------------------------------------------------------------------


def assert_store_equals(store, expected):
    for name, want in expected.items():
        got = getattr(store, name)
        assert got.dtype == want.dtype and got.shape == want.shape, name
        if want.dtype == object:
            assert got.tolist() == want.tolist(), name
        else:
            assert got.tobytes() == want.tobytes(), name


def assert_same_frames(a, b):
    assert len(a) == len(b)
    for x, y in zip(a, b):
        assert x.structured.tobytes() == y.structured.tobytes()
        assert x.note_embedding.tobytes() == y.note_embedding.tobytes()
        assert x.note_present == y.note_present


def assert_same_episodes(got, want):
    assert len(got) == len(want)
    for ep, ref in zip(got, want):
        assert (ep.episode_id, ep.split, ep.survived, len(ep)) == \
            (ref.episode_id, ref.split, ref.survived, len(ref))
        assert_same_frames(ep.frames(), ref.frames())
        for tr, tr_ref in zip(ep.transitions, ref.transitions):
            assert_same_frames([tr.obs, tr.next_obs], [tr_ref.obs, tr_ref.next_obs])
            for name in ("action", "reward", "done", "state_id", "next_state_id"):
                assert getattr(tr, name) == getattr(tr_ref, name), name
            for name in ("iv_dose", "vaso_dose", "behavior_prob"):
                assert repr(getattr(tr, name)) == repr(getattr(tr_ref, name)), name


def assert_views_read(views, episodes, d_n):
    """Each view reads the rows it was made from: its id, split and outcome,
    its frames, and per transition the values its rows log or imply."""
    assert len(views) == len(episodes)
    for view, ep in zip(views, episodes):
        n = len(ep["action"])
        assert (view.episode_id, view.split, view.survived, len(view)) == \
            (ep["episode_id"], ep["split"], ep["survived"], n)
        frames = view.frames()
        assert len(frames) == n + 1
        for step, frame in enumerate(frames):
            note = ep["notes"].get(step)
            assert frame.structured.tobytes() == np.array(ep["structured"][step]).tobytes()
            assert frame.note_embedding.tobytes() == \
                np.array([0.0] * d_n if note is None else note, dtype=np.float64).tobytes()
            assert frame.note_present == (note is not None)
        for t, tr in enumerate(view.transitions):
            assert_same_frames([tr.obs, tr.next_obs], frames[t:t + 2])
            assert (tr.action.flat, tr.reward, tr.done) == \
                (ep["action"][t], terminal_reward(t, n, ep["survived"]), t == n - 1)
            assert [tr.state_id, tr.next_state_id] == \
                [None if s < 0 else s for s in ep["state_id"][t:t + 2]]
            prob = ep["behavior_prob"][t]
            assert repr(tr.behavior_prob) == repr(None if np.isnan(prob) else prob)
            assert (repr(tr.iv_dose), repr(tr.vaso_dose)) == \
                (repr(ep["iv_dose"][t]), repr(ep["vaso_dose"][t]))


# finite floats, with the awkward ones drawn often: signed zeros, subnormals
# and values near the largest double
awkward = st.sampled_from([0.0, -0.0, 5e-324, -2.2250738585072e-308,
                           1.7976931348623157e308, -1e308, 0.1])
finite = st.one_of(awkward, st.floats(allow_nan=False, allow_infinity=False))
dose = st.one_of(st.sampled_from([0.0, -0.0, 5e-324, 1e308]),
                 st.floats(min_value=0.0, allow_infinity=False))
edges = st.lists(st.floats(1e-3, 1e3), min_size=4, max_size=4, unique=True).map(sorted)


# episode ids a CSV cell holds whole (no comma, no line break), drawn with
# non-ASCII letters and trailing NULs often
id_chars = st.one_of(st.characters(blacklist_categories=("Cs", "Cc", "Zl", "Zp"),
                                   blacklist_characters=","), st.just("\x00"))
awkward_ids = st.builds(lambda stem, tail: stem + tail, st.text(id_chars, max_size=3),
                        st.sampled_from(["", "\x00", "\x00\x00", "é", "病\x00"]))


@st.composite
def cohort_rows(draw, with_ground_truth=False, ids=None):
    """The rows of a cohort, as ``(episodes, d_n, bins)`` for ``make_dataset``:
    random F and d_n, episodes of 1-6 transitions, notes on random frames and
    actions discretized from random doses; with ground truth, state ids and
    behaviour probabilities on random episodes. Episode ids are ep000,
    ep001, ... or, given ``ids``, drawn from it."""
    n_features, d_n = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    bins = DoseBins(tuple(draw(edges)), tuple(draw(edges)))
    n_episodes = draw(st.integers(1, 4))
    names = [f"ep{i:03d}" for i in range(n_episodes)] if ids is None else \
        draw(st.lists(ids, min_size=n_episodes, max_size=n_episodes, unique=True))
    episodes = []
    for name in names:
        n = draw(st.integers(1, 6))
        structured, notes = [], {}
        for step in range(n + 1):
            if draw(st.booleans()):
                notes[step] = draw(st.lists(finite, min_size=d_n, max_size=d_n))
            structured.append(draw(st.lists(finite, min_size=n_features, max_size=n_features)))
        known = with_ground_truth and draw(st.booleans())
        iv = [draw(dose) for _ in range(n)]
        vaso = [draw(dose) for _ in range(n)]
        episodes.append({
            "structured": structured, "notes": notes, "iv_dose": iv, "vaso_dose": vaso,
            "action": (N_DOSE_LEVELS * discretize_doses(iv, bins.iv)
                       + discretize_doses(vaso, bins.vaso)).tolist(),
            "state_id": draw(st.lists(st.integers(0, 30), min_size=n + 1, max_size=n + 1))
            if known else [-1] * (n + 1),
            "behavior_prob": [draw(st.floats(1e-6, 1.0)) for _ in range(n)]
            if known else [np.nan] * n,
            "survived": draw(st.booleans()), "episode_id": name,
            "split": draw(st.sampled_from(SPLITS))})
    return episodes, d_n, bins


def cohorts(**kwargs):
    """Datasets made from ``cohort_rows``."""
    return cohort_rows(**kwargs).map(lambda rows: make_dataset(*rows))


def read_files(paths):
    return {key: path.read_bytes() for key, path in paths.items()}


class TestEpisodeStore:
    @settings(max_examples=60, deadline=None)
    @given(cohort_rows(with_ground_truth=True))
    def test_views_read_the_rows_they_were_made_from(self, rows):
        episodes, d_n, _ = rows
        assert_views_read(make_dataset(*rows).episodes, episodes, d_n)

    @settings(max_examples=60, deadline=None)
    @given(cohort_rows())
    def test_ingested_store_matches_the_reference(self, rows):
        episodes, d_n, _ = rows
        with tempfile.TemporaryDirectory() as tmp:
            loaded = ingest_parsed(export(make_dataset(*rows), tmp).values())
        assert_store_equals(loaded.store, {name: getattr(make_store(episodes, d_n), name)
                                           for name in DTYPES})
        assert_views_read(loaded.episodes, episodes, d_n)

    @settings(max_examples=30, deadline=None)
    @given(cohort_rows(with_ground_truth=True), st.data())
    def test_some_episodes_gather_their_rows(self, rows, data):
        episodes, d_n, _ = rows
        ds = make_dataset(*rows)
        picked = data.draw(st.lists(st.sampled_from(range(len(episodes))), min_size=1,
                                    max_size=6))
        sub = OfflineDataset(tuple(ds.episodes[i] for i in picked), ds.n_features, ds.d_n)
        reference = make_store([episodes[i] for i in picked], d_n)
        assert_store_equals(sub.store, {name: getattr(reference, name) for name in DTYPES})
        assert_views_read(sub.episodes, [episodes[i] for i in picked], d_n)

    @settings(max_examples=30, deadline=None)
    @given(cohort_rows(with_ground_truth=True))
    def test_a_split_is_the_dataset_of_its_episodes(self, rows):
        episodes, d_n, _ = rows
        ds = make_dataset(*rows)
        for name in SPLITS:
            picked = [ep for ep in episodes if ep["split"] == name]
            split = ds.split(name)
            assert (split.n_features, split.d_n, split.bin_edges) == \
                (ds.n_features, ds.d_n, ds.bin_edges)
            assert_views_read(split.episodes, picked, d_n)
            if picked:
                reference = make_store(picked, d_n)
                assert_store_equals(split.store, {name: getattr(reference, name)
                                                  for name in DTYPES})
            assert (split is ds) == (len(picked) == len(ds))


class TestExportIngestProperties:
    @settings(max_examples=60, deadline=None)
    @given(cohorts(), st.randoms(use_true_random=False))
    def test_export_of_ingest_is_the_files_in_any_row_order(self, ds, rng):
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            paths = export(ds, tmp / "a")
            files = read_files(paths)
            assert read_files(export(ingest_parsed(paths.values()), tmp / "b")) == files

            shuffled = tmp / "shuffled"
            shuffled.mkdir()
            header, *rows = files["structured"].decode().splitlines()
            notes = files["notes"].decode().splitlines()
            rng.shuffle(rows)
            rng.shuffle(notes)
            (shuffled / "structured.csv").write_text("\n".join([header] + rows) + "\n")
            (shuffled / "notes.jsonl").write_text("".join(line + "\n" for line in notes))
            (shuffled / "manifest.json").write_bytes(files["manifest"])
            loaded = ingest(shuffled / "structured.csv", shuffled / "notes.jsonl",
                            shuffled / "manifest.json")
            assert read_files(export(loaded, tmp / "c")) == files

    @settings(max_examples=60, deadline=None)
    @given(cohort_rows(ids=awkward_ids), st.randoms(use_true_random=False))
    def test_export_orders_episodes_by_their_ids(self, rows, rng):
        # ids with non-ASCII letters and trailing NULs, in a shuffled order:
        # the files are those of the same episodes built in id order
        episodes, d_n, bins = rows
        shuffled = list(episodes)
        rng.shuffle(shuffled)
        ordered = sorted(episodes, key=lambda ep: ep["episode_id"])
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            files = read_files(export(make_dataset(shuffled, d_n, bins), tmp / "a"))
            assert files == read_files(export(make_dataset(ordered, d_n, bins), tmp / "b"))
        assert [ep["id"] for ep in json.loads(files["manifest"])["episodes"]] == \
            [ep["episode_id"] for ep in ordered]

    @settings(max_examples=60, deadline=None)
    @given(cohorts())
    def test_ingest_of_export_has_the_datasets_arrays(self, ds):
        with tempfile.TemporaryDirectory() as tmp:
            loaded = ingest_parsed(export(ds, tmp).values())
        assert (loaded.n_features, loaded.d_n, loaded.bin_edges) == \
            (ds.n_features, ds.d_n, ds.bin_edges)
        assert_store_equals(loaded.store, {name: getattr(ds.store, name)
                                           for name in DTYPES})


# Three hand-written files: rows and notes out of order, a -0.0 feature, an
# integer bin edge and an episode with no note.
FIXTURE = {
    "structured.csv": (
        "episode_id,step,f0,f1,iv_dose,vaso_dose,done,survived\n"
        "b,1,0.5,-0.0,0.0,0.0,1,0\n"
        "a,0,1.25,3.0,0.0,0.05,0,1\n"
        "c,0,2.0,2.0,1.5,0.0,0,1\n"
        "a,1,-2.5,1e-3,3.0,0.0,0,1\n"
        "a,2,0.0,7.5,0.0,0.0,1,1\n"
        "b,0,4.0,2.0,5.0,0.2,0,0\n"
        "c,1,2.5,2.0,0.0,0.0,1,1\n"),
    "notes.jsonl": (
        '{"episode_id": "a", "step": 2, "embedding": [0.5, -1.0]}\n'
        '{"episode_id": "b", "step": 0, "embedding": [3, 4.25]}\n'
        '{"episode_id": "a", "step": 0, "embedding": [0.0, 1e-300]}\n'),
    "manifest.json": (
        '{"episodes": [{"id": "b", "split": "test"}, {"id": "a", "split": "train"},\n'
        '              {"id": "c", "split": "val"}],\n'
        ' "n_features": 2, "d_n": 2,\n'
        ' "bin_edges": {"iv": [0.5, 1, 2.5, 4.0], "vaso": [0.01, 0.02, 0.05, 0.1]}}\n'),
}
# ``dataset_digest`` of the dataset ingested from FIXTURE's files
FIXTURE_DIGEST = "6ae1fc25a915c068fbf5e49cd6bc779ee08e005a6eaae92ab9fe1db193353f22"


def write_fixture(directory: Path, files=FIXTURE) -> list[Path]:
    directory.mkdir(parents=True, exist_ok=True)
    for name, text in files.items():
        (directory / name).write_text(text, encoding="utf-8")
    return [directory / name for name in ("structured.csv", "notes.jsonl", "manifest.json")]


def dataset_digest(ds) -> str:
    """sha256 of everything ingest returns: widths, bin edges (JSON keeps an
    integer edge an integer) and every store array's dtype, shape and values."""
    h = hashlib.sha256(json.dumps([ds.n_features, ds.d_n, ds.bin_edges.iv,
                                   ds.bin_edges.vaso]).encode())
    for name in DTYPES:
        a = getattr(ds.store, name)
        h.update(f"{name} {a.dtype.str} {a.shape}".encode())
        h.update(json.dumps(a.tolist()).encode() if a.dtype == object else a.tobytes())
    return h.hexdigest()


def count_parses(monkeypatch) -> list:
    """One entry per parse of a structured file from now on."""
    parses = []
    read = dataset_mod._read_structured

    def spy(*args, **kwargs):
        parses.append(args[0])
        return read(*args, **kwargs)

    monkeypatch.setattr(dataset_mod, "_read_structured", spy)
    return parses


def refuse(*args, **kwargs):
    raise OSError("read-only file system")


class TestSnapshot:
    @settings(max_examples=60, deadline=None)
    @given(cohorts(ids=awkward_ids))
    def test_a_hit_returns_the_store_of_the_miss(self, ds):
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            paths = export(ds, tmp / "files")
            files = read_files(paths)
            # export wrote a snapshot; without it, the first ingest parses
            (tmp / "files" / SNAPSHOT_NAME).unlink()
            miss = ingest(*paths.values())
            assert (tmp / "files" / SNAPSHOT_NAME).is_file()
            with mock.patch.object(dataset_mod, "_read_structured", side_effect=AssertionError):
                hit = ingest(*paths.values())
            assert (hit.n_features, hit.d_n, hit.bin_edges) == \
                (miss.n_features, miss.d_n, miss.bin_edges)
            assert_store_equals(hit.store, {name: getattr(miss.store, name)
                                            for name in DTYPES})
            assert hit.store.episode_id.tolist() == [ep.episode_id for ep in
                                                     sorted(ds.episodes,
                                                            key=lambda ep: ep.episode_id)]
            assert_same_episodes(hit.episodes, miss.episodes)
            assert read_files(export(hit, tmp / "hit")) == files
            assert read_files(export(miss, tmp / "miss")) == files

    def test_the_ingested_store_is_pinned(self, tmp_path):
        paths = write_fixture(tmp_path)
        for kind in ("miss", "hit"):
            assert dataset_digest(ingest(*paths)) == FIXTURE_DIGEST, (
                f"ingest returns another dataset for the same bytes ({kind}): bump "
                f"SNAPSHOT_VERSION (now {SNAPSHOT_VERSION}) so that snapshots written "
                f"before this change are parsed again, then record the new digest")

    @pytest.mark.parametrize("spoil", ["truncated", "garbage", "foreign_npz", "version",
                                       "other_digest"])
    def test_an_unusable_snapshot_is_parsed_again(self, tmp_path, monkeypatch, spoil):
        paths = write_fixture(tmp_path / "a")
        expected = dataset_digest(ingest(*paths))
        snapshot = tmp_path / "a" / SNAPSHOT_NAME
        if spoil == "truncated":
            snapshot.write_bytes(snapshot.read_bytes()[:snapshot.stat().st_size // 2])
        elif spoil == "garbage":
            snapshot.write_bytes(bytes(range(256)) * 4)
        elif spoil == "foreign_npz":
            with snapshot.open("wb") as fh:
                np.savez(fh, meta=np.arange(3))
        elif spoil == "version":
            snapshot.unlink()
            with monkeypatch.context() as m:
                m.setattr(dataset_mod, "SNAPSHOT_VERSION", SNAPSHOT_VERSION + 1)
                ingest(*paths)
        else:
            other = dict(FIXTURE, **{"notes.jsonl": ""})
            ingest(*write_fixture(tmp_path / "b", other))
            shutil.copyfile(tmp_path / "b" / SNAPSHOT_NAME, snapshot)
        parses = count_parses(monkeypatch)
        assert dataset_digest(ingest(*paths)) == expected
        assert len(parses) == 1
        # the parse replaced the snapshot with one the next ingest uses
        assert dataset_digest(ingest(*paths)) == expected
        assert len(parses) == 1

    @pytest.mark.parametrize("step", ["mkstemp", "replace"])
    def test_a_snapshot_that_cannot_be_written_is_skipped(self, tmp_path, monkeypatch, step):
        paths = write_fixture(tmp_path)
        monkeypatch.setattr(tempfile if step == "mkstemp" else os, step, refuse)
        assert dataset_digest(ingest(*paths)) == FIXTURE_DIGEST
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(FIXTURE)

    def test_a_missing_notes_file_is_part_of_the_key(self, tmp_path, monkeypatch):
        # an empty notes file and no notes file give the same dataset, but
        # each is parsed once and served from its own snapshot after that
        paths = write_fixture(tmp_path, dict(FIXTURE, **{"notes.jsonl": ""}))
        parses = count_parses(monkeypatch)
        with_empty = dataset_digest(ingest(*paths))
        paths[1].unlink()
        assert dataset_digest(ingest(*paths)) == with_empty
        assert dataset_digest(ingest(*paths)) == with_empty
        assert len(parses) == 2


def snapshot_arrays(path: Path) -> dict:
    """The dtype, shape and bytes of each array of the snapshot at ``path``,
    its JSON ``meta`` string among them."""
    with np.load(path) as npz:
        return {name: (npz[name].dtype.str, npz[name].shape, npz[name].tobytes())
                for name in npz.files}


def with_absent_rows(embedding):
    """``embedding`` with frames 1 and 2, which have no note, not zero."""
    embedding = embedding.copy()
    embedding[1] = [1.0, -0.0, np.inf, 2.0]
    embedding[2] = -0.0
    return embedding


NOTED = [{"structured": [[0.5], [1.5], [2.5]], "notes": {0: [0.25, -0.0, 1e16, 3.0]},
          "iv_dose": [0.0, 2.0], "vaso_dose": [5e-324, 1e16]},
         {"structured": [[1.0], [2.0]], "episode_id": "a", "iv_dose": [1.0],
          "vaso_dose": [0.75]}]


class TestExportSnapshot:
    """The snapshot export writes is the one a parse of its files writes."""

    @settings(max_examples=60, deadline=None)
    @given(cohorts(ids=awkward_ids))
    @example(make_dataset([two_frames(structured=[[-0.0, 5e-324], [1e16, 0.5]],
                                      notes={0: [-0.0, 5e-324, 1e16, 1.0]})]))
    @example(make_dataset([two_frames(iv_dose=[1.0], vaso_dose=[2.0])],
                          bins=DoseBins((1, 2, 3, 4), (0.5, 1, 2.5, 4.0))))
    @example(edited_store(NOTED, note_embedding=with_absent_rows))
    @example(make_dataset([two_frames(action=[24], iv_dose=[0.0], vaso_dose=[9.0]),
                           {"structured": [[0.0], [1.0], [2.0]], "action": [0, 3],
                            "episode_id": "b"}]))
    @example(edited_store(NOTED, structured=lambda a: a.astype(np.float32),
                          lengths=lambda a: a.astype(np.int32),
                          survived=lambda a: a.astype(np.int8)))
    def test_export_writes_the_snapshot_a_parse_writes(self, ds):
        with tempfile.TemporaryDirectory() as tmp:
            paths = export(ds, tmp)
            snapshot = Path(tmp) / SNAPSHOT_NAME
            exported = snapshot_arrays(snapshot)
            snapshot.unlink()
            ingest(*paths.values())
            assert snapshot_arrays(snapshot) == exported

    @pytest.mark.parametrize("umask", [0o022, 0o077], ids=["umask022", "umask077"])
    def test_the_snapshot_has_the_mode_of_the_data(self, tmp_path, umask):
        def mode(path: Path) -> int:
            return stat.S_IMODE(path.stat().st_mode)

        snapshot = tmp_path / SNAPSHOT_NAME
        previous = os.umask(umask)
        try:
            paths = export(make_dataset(NOTED), tmp_path)
            assert mode(paths["structured"]) == 0o666 & ~umask
            assert mode(snapshot) == mode(paths["structured"])
            # the snapshot of a parse takes the structured file's mode too
            paths["structured"].chmod(0o640)
            snapshot.unlink()
            ingest(*paths.values())
            assert mode(snapshot) == 0o640
        finally:
            os.umask(previous)


class TestManifestBinEdges:
    """Each dose bin edge is a JSON int or float, and an int stays an int."""

    @staticmethod
    def with_iv_edges(text: str) -> dict:
        manifest = FIXTURE["manifest.json"].replace("[0.5, 1, 2.5, 4.0]", text)
        assert manifest != FIXTURE["manifest.json"]
        return dict(FIXTURE, **{"manifest.json": manifest})

    @pytest.mark.parametrize("edges", ['["0.5", "1", "2.5", "4.0"]', "[0.5, true, 2.5, 4.0]",
                                       '[0.5, "1", 2.5, 4.0]'])
    def test_an_edge_that_is_not_a_number_is_rejected(self, tmp_path, edges):
        paths = write_fixture(tmp_path, self.with_iv_edges(edges))
        with pytest.raises(DatasetError, match="bad bin_edges .*must be numbers"):
            ingest(*paths)
        assert not (tmp_path / SNAPSHOT_NAME).exists()

    def test_an_integer_edge_exports_as_an_integer(self, tmp_path):
        ds = ingest(*write_fixture(tmp_path / "in"))
        manifest = json.loads(export(ds, tmp_path / "out")["manifest"].read_text())
        assert manifest["bin_edges"]["iv"] == [0.5, 1, 2.5, 4.0]
        assert [type(edge) for edge in manifest["bin_edges"]["iv"]] == [float, int, float, float]

    def test_a_snapshot_that_holds_strings_is_not_served(self, tmp_path, monkeypatch):
        # a snapshot written while string edges were taken holds the strings;
        # it is a miss, and the parse that follows rejects the manifest
        paths = write_fixture(tmp_path, self.with_iv_edges('["0.5", "1", "2.5", "4.0"]'))
        with monkeypatch.context() as m:
            m.setattr(dataset_mod, "_dose_bins", lambda edges: DoseBins(
                **{drug: tuple(edges[drug]) for drug in ("iv", "vaso")}))
            assert ingest(*paths).bin_edges.iv == ("0.5", "1", "2.5", "4.0")
        assert (tmp_path / SNAPSHOT_NAME).is_file()
        with pytest.raises(DatasetError, match="bad bin_edges"):
            ingest(*paths)


# ids that JSON must escape, and numbers whose repr is awkward
note_ids = st.text(st.one_of(st.sampled_from('"\\\x00\x01\x1f\x7f\x85\u2028é病'),
                             st.characters()))
note_numbers = st.one_of(st.sampled_from([-0.0, 5e-324, 1e-5, 1e16, 1.7976931348623157e308]),
                         st.floats(allow_nan=False, allow_infinity=False),
                         st.integers(-2 ** 53, 2 ** 53).map(float))


class TestNoteLine:
    @settings(max_examples=200, deadline=None)
    @given(note_ids, st.integers(0, 10 ** 6), st.lists(note_numbers, min_size=1, max_size=8))
    @example('q"\\\x00\x1f\x7fé病', 0, [-0.0, 5e-324, 1e-5, 1e16, 1.7976931348623157e308, 3.0])
    def test_a_note_line_is_the_json_of_its_object(self, ep_id, step, embedding):
        assert dataset_mod._note_line(ep_id, step, embedding) == json.dumps(
            {"episode_id": ep_id, "step": step, "embedding": embedding}, sort_keys=True)
