import hashlib
import json
import os
import shutil
import tempfile
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from careql import dataset as dataset_mod
from careql.dataset import (
    SNAPSHOT_NAME,
    SNAPSHOT_VERSION,
    SPLITS,
    ActionIndex,
    DatasetError,
    DoseBins,
    Episode,
    JointObservation,
    OfflineDataset,
    Transition,
    compute_bin_edges,
    discretize_doses,
    export,
    ingest,
    normalize,
    store_of,
)

EDGES = (0.5, 1.5, 2.5, 3.5)


def obs(features, emb=None, present=False):
    d_n = 4
    if emb is None:
        emb = np.zeros(d_n)
    return JointObservation(np.asarray(features, float), np.asarray(emb, float), present)


def make_episode(feature_cols, survived=True, ep_id="ep0", split="train",
                 actions=None, embeddings=None):
    """feature_cols: list of frame feature vectors (length T+1)."""
    n = len(feature_cols) - 1
    frames = []
    for i, f in enumerate(feature_cols):
        if embeddings is not None and embeddings[i] is not None:
            frames.append(obs(f, embeddings[i], present=True))
        else:
            frames.append(obs(f))
    transitions = []
    for t in range(n):
        a = actions[t] if actions else ActionIndex(1, 2)
        transitions.append(Transition(
            obs=frames[t], action=a, reward=terminal_reward(t, n, survived),
            next_obs=frames[t + 1],
            done=(t == n - 1), iv_dose=float(a.iv_level), vaso_dose=float(a.vaso_level),
        ))
    return Episode(tuple(transitions), survived, ep_id, split=split)


def terminal_reward(t, n, survived):
    """Reward of transition t of n: +/-1 on the last, zero before it."""
    return (1.0 if survived else -1.0) if t == n - 1 else 0.0


class TestStoreReward:
    """``EpisodeStore.reward``, the reward rule ingest and training read."""

    def rewards(self, n, survived):
        return store_of([make_episode([[0.0]] * (n + 1), survived)]).reward.tolist()

    def test_survivor_five_steps(self):
        assert self.rewards(5, True) == [0, 0, 0, 0, 1]

    def test_single_step_death(self):
        assert self.rewards(1, False) == [-1]

    def test_three_step_death(self):
        assert self.rewards(3, False) == [0, 0, -1]

    def test_empty_episode_rejected(self):
        with pytest.raises(DatasetError, match="no transitions"):
            Episode((), True, "ep0")


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
        ep = make_episode([[0.0], [1.0], [2.0], [3.0]], survived=False)
        rewards = [t.reward for t in ep.transitions]
        assert sum(abs(r) for r in rewards) == 1.0
        assert rewards[-1] == -1.0

    def test_done_must_be_last_only(self):
        f = [[0.0], [1.0], [2.0]]
        ep = make_episode(f, survived=True)
        bad = list(ep.transitions)
        bad[0] = Transition(bad[0].obs, bad[0].action, 1.0, bad[0].next_obs, True)
        with pytest.raises(DatasetError):
            Episode(tuple(bad), True, "bad")

    def test_terminal_reward_matches_survival(self):
        with pytest.raises(DatasetError, match="survived"):
            tr = Transition(obs([0.0]), ActionIndex(0, 0), -1.0, obs([1.0]), True)
            Episode((tr,), True, "bad")

    def test_absent_note_must_be_zero(self):
        with pytest.raises(DatasetError, match="all-zeros"):
            JointObservation(np.zeros(2), np.array([0.0, 0.1]), note_present=False)


class TestNormalize:
    def make_dataset(self, col):
        # one episode whose feature-0 column over frames equals `col`
        ep = make_episode([[c] for c in col])
        return OfflineDataset((ep,), n_features=1, d_n=4, bin_edges=DoseBins(EDGES, EDGES))

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
        ep_train = make_episode([[0.0], [2.0]], ep_id="a", split="train")
        ep_test = make_episode([[100.0], [102.0]], ep_id="b", split="test")
        ds = normalize(OfflineDataset((ep_train, ep_test), 1, 4,
                                      bin_edges=DoseBins(EDGES, EDGES)))
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
        ds = self.make_dataset([1.0, 2.0, 3.0])
        ds.store.structured[0, 0] = np.inf
        with pytest.raises(DatasetError, match="feature 0 in episode 'ep0'"):
            normalize(ds)


class TestIngestExport:
    def make_dataset(self):
        emb0 = [0.125, -1.5, 2.0, 0.0]
        eps = (
            make_episode([[0.5, 1.0], [1.5, -0.25], [2.5, 0.75]], survived=True,
                         ep_id="ep000", embeddings=[emb0, None, emb0]),
            make_episode([[0.0, 0.0], [1.0, 1.0]], survived=False, ep_id="ep001",
                         split="val"),
        )
        return OfflineDataset(eps, n_features=2, d_n=4, bin_edges=DoseBins(EDGES, EDGES))

    def test_round_trip_byte_exact(self, tmp_path):
        ds = self.make_dataset()
        paths = export(ds, tmp_path / "a")
        loaded = ingest(paths["structured"], paths["notes"], paths["manifest"])
        paths2 = export(loaded, tmp_path / "b")
        for key in paths:
            assert paths[key].read_bytes() == paths2[key].read_bytes(), key

    def test_reingest_preserves_content(self, tmp_path):
        ds = self.make_dataset()
        paths = export(ds, tmp_path)
        loaded = ingest(paths["structured"], paths["notes"], paths["manifest"])
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
        eps = (make_episode([[0.0], [1.0], [2.0]], ep_id="e"),)
        ds = OfflineDataset(eps, 1, 4, bin_edges=DoseBins(EDGES, EDGES))
        paths = export(ds, tmp_path)
        assert paths["notes"].read_text() == ""
        loaded = ingest(paths["structured"], paths["notes"], paths["manifest"])
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
    """Reference for the store's per-transition columns: one Python loop per
    transition."""
    rows = {name: [] for name in ("action", "reward", "done", "behavior_prob",
                                  "state_id", "next_state_id", "episode_index")}
    for i, ep in enumerate(episodes):
        for t, tr in enumerate(ep.transitions):
            rows["action"].append(tr.action.flat)
            rows["reward"].append(tr.reward)
            rows["done"].append(tr.done)
            rows["behavior_prob"].append(np.nan if tr.behavior_prob is None
                                         else tr.behavior_prob)
            rows["state_id"].append(-1 if tr.state_id is None else tr.state_id)
            rows["next_state_id"].append(-1 if tr.next_state_id is None
                                         else tr.next_state_id)
            rows["episode_index"].append(i)
    dtypes = {"reward": np.float64, "behavior_prob": np.float64, "done": bool}
    out = {name: np.array(values, dtype=dtypes.get(name, np.int64))
           for name, values in rows.items()}
    out["lengths"] = np.array([len(ep.transitions) for ep in episodes], dtype=np.int64)
    out["offsets"] = np.array([sum(len(e.transitions) for e in episodes[:i])
                               for i in range(len(episodes))], dtype=np.int64)
    return out


@st.composite
def logged_episodes(draw):
    """Episodes of random lengths; probs and state ids missing on random ones."""
    episodes = []
    for i in range(draw(st.integers(1, 6))):
        n = draw(st.integers(1, 5))
        flats = draw(st.lists(st.integers(0, 24), min_size=n, max_size=n))
        probs = draw(st.none() | st.lists(st.floats(1e-6, 1.0), min_size=n, max_size=n))
        states = draw(st.none() | st.lists(st.integers(0, 30), min_size=n + 1,
                                           max_size=n + 1))
        ep = make_episode([[float(t)] for t in range(n + 1)], survived=draw(st.booleans()),
                          ep_id=f"ep{i}", actions=[ActionIndex.from_flat(f) for f in flats])
        episodes.append(replace(ep, transitions=tuple(
            replace(tr, behavior_prob=None if probs is None else probs[t],
                    state_id=None if states is None else states[t],
                    next_state_id=None if states is None else states[t + 1])
            for t, tr in enumerate(ep.transitions))))
    return episodes


class TestTransitionColumns:
    @settings(max_examples=60, deadline=None)
    @given(logged_episodes())
    def test_equals_per_transition_reference(self, episodes):
        store = store_of(episodes)
        frame = store.decision_frame
        cols = {"action": store.action, "reward": store.reward, "done": store.done,
                "behavior_prob": store.behavior_prob, "state_id": store.state_id[frame],
                "next_state_id": store.state_id[frame + 1],
                "episode_index": store.episode_index, "lengths": store.lengths,
                "offsets": store.offsets}
        for name, expected in per_transition_columns(episodes).items():
            got = cols[name]
            assert got.dtype == expected.dtype and got.shape == expected.shape, name
            assert got.tobytes() == expected.tobytes(), name
        missing = np.isnan(store.behavior_prob)
        first = next((i for i, ep in enumerate(episodes)
                      if any(tr.behavior_prob is None for tr in ep.transitions)), None)
        assert store.first_episode(missing) == first


# ---------------------------------------------------------------------------
# The episode store
# ---------------------------------------------------------------------------

STORE_DTYPES = {"structured": np.float64, "note_embedding": np.float64,
                "note_present": bool, "state_id": np.int64, "action": np.int64,
                "iv_dose": np.float64, "vaso_dose": np.float64,
                "behavior_prob": np.float64, "lengths": np.int64, "survived": bool,
                "episode_id": object, "split": object}


def per_transition_store(episodes):
    """Reference for the store arrays: one Python loop over every transition,
    plus each episode's final frame."""
    rows = {name: [] for name in STORE_DTYPES}

    def add_frame(obs, state_id):
        rows["structured"].append(obs.structured)
        rows["note_embedding"].append(obs.note_embedding)
        rows["note_present"].append(obs.note_present)
        rows["state_id"].append(-1 if state_id is None else state_id)

    for ep in episodes:
        for tr in ep.transitions:
            add_frame(tr.obs, tr.state_id)
            rows["action"].append(tr.action.flat)
            rows["iv_dose"].append(tr.iv_dose)
            rows["vaso_dose"].append(tr.vaso_dose)
            rows["behavior_prob"].append(np.nan if tr.behavior_prob is None
                                         else tr.behavior_prob)
        add_frame(ep.transitions[-1].next_obs, ep.transitions[-1].next_state_id)
        rows["lengths"].append(len(ep.transitions))
        rows["survived"].append(ep.survived)
        rows["episode_id"].append(ep.episode_id)
        rows["split"].append(ep.split)
    return {name: np.array(values, dtype=STORE_DTYPES[name])
            for name, values in rows.items()}


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
def cohorts(draw, with_ground_truth=False, ids=None):
    """A hand-built dataset: random F and d_n, episodes of 1-6 transitions,
    notes on random frames and actions discretized from random doses; with
    ground truth, state ids and behaviour probabilities on random episodes.
    Episode ids are ep000, ep001, ... or, given ``ids``, drawn from it."""
    n_features, d_n = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    bins = DoseBins(tuple(draw(edges)), tuple(draw(edges)))
    n_episodes = draw(st.integers(1, 4))
    names = [f"ep{i:03d}" for i in range(n_episodes)] if ids is None else \
        draw(st.lists(ids, min_size=n_episodes, max_size=n_episodes, unique=True))
    episodes = []
    for name in names:
        n = draw(st.integers(1, 6))
        frames = []
        for _ in range(n + 1):
            present = draw(st.booleans())
            note = draw(st.lists(finite, min_size=d_n, max_size=d_n)) if present else [0.0] * d_n
            features = draw(st.lists(finite, min_size=n_features, max_size=n_features))
            frames.append(JointObservation(np.array(features), np.array(note), present))
        known = with_ground_truth and draw(st.booleans())
        states = draw(st.lists(st.integers(0, 30), min_size=n + 1, max_size=n + 1)) \
            if known else [None] * (n + 1)
        survived = draw(st.booleans())
        transitions = []
        for t in range(n):
            iv, vaso = draw(dose), draw(dose)
            transitions.append(Transition(
                obs=frames[t], next_obs=frames[t + 1], reward=terminal_reward(t, n, survived),
                done=t == n - 1,
                action=ActionIndex(int(discretize_doses([iv], bins.iv)[0]),
                                   int(discretize_doses([vaso], bins.vaso)[0])),
                iv_dose=iv, vaso_dose=vaso, state_id=states[t], next_state_id=states[t + 1],
                behavior_prob=draw(st.floats(1e-6, 1.0)) if known else None))
        episodes.append(Episode(transitions, survived, name,
                                split=draw(st.sampled_from(SPLITS))))
    return OfflineDataset(tuple(episodes), n_features, d_n, bin_edges=bins)


def hand_built(dataset):
    """Fresh hand-built copies of a dataset's episodes."""
    return [Episode(tuple(ep.transitions), ep.survived, ep.episode_id, ep.split)
            for ep in dataset.episodes]


def read_files(paths):
    return {key: path.read_bytes() for key, path in paths.items()}


class TestEpisodeStore:
    @settings(max_examples=60, deadline=None)
    @given(cohorts(with_ground_truth=True))
    def test_packed_hand_built_episodes_match_the_reference(self, ds):
        episodes = hand_built(ds)
        packed = OfflineDataset(tuple(episodes), ds.n_features, ds.d_n, bin_edges=ds.bin_edges)
        assert_store_equals(packed.store, per_transition_store(episodes))
        assert_same_episodes(packed.episodes, episodes)

    @settings(max_examples=60, deadline=None)
    @given(cohorts())
    def test_ingested_store_matches_the_reference(self, ds):
        episodes = hand_built(ds)
        with tempfile.TemporaryDirectory() as tmp:
            loaded = ingest(*export(ds, tmp).values())
        assert_store_equals(loaded.store, per_transition_store(episodes))
        assert_same_episodes(loaded.episodes, episodes)

    @settings(max_examples=30, deadline=None)
    @given(cohorts(with_ground_truth=True), st.data())
    def test_some_episodes_gather_their_rows(self, ds, data):
        picked = data.draw(st.lists(st.sampled_from(ds.episodes), min_size=1, max_size=6))
        sub = OfflineDataset(tuple(picked), ds.n_features, ds.d_n)
        assert_store_equals(sub.store, per_transition_store(picked))
        assert_same_episodes(sub.episodes, picked)

    @settings(max_examples=30, deadline=None)
    @given(cohorts(with_ground_truth=True))
    def test_a_split_is_the_dataset_of_its_episodes(self, ds):
        for name in SPLITS:
            picked = [ep for ep in ds.episodes if ep.split == name]
            split = ds.split(name)
            assert (split.n_features, split.d_n, split.bin_edges) == \
                (ds.n_features, ds.d_n, ds.bin_edges)
            assert_same_episodes(split.episodes, picked)
            if picked:
                assert_store_equals(split.store, per_transition_store(picked))
            assert (split is ds) == (len(picked) == len(ds))


class TestExportIngestProperties:
    @settings(max_examples=60, deadline=None)
    @given(cohorts(), st.randoms(use_true_random=False))
    def test_export_of_ingest_is_the_files_in_any_row_order(self, ds, rng):
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            paths = export(ds, tmp / "a")
            files = read_files(paths)
            assert read_files(export(ingest(*paths.values()), tmp / "b")) == files

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
    @given(cohorts())
    def test_ingest_of_export_has_the_datasets_arrays(self, ds):
        with tempfile.TemporaryDirectory() as tmp:
            loaded = ingest(*export(ds, tmp).values())
        assert (loaded.n_features, loaded.d_n, loaded.bin_edges) == \
            (ds.n_features, ds.d_n, ds.bin_edges)
        assert_store_equals(loaded.store, {name: getattr(ds.store, name)
                                           for name in STORE_DTYPES})


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
    for name in STORE_DTYPES:
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
            miss = ingest(*paths.values())
            assert (tmp / "files" / SNAPSHOT_NAME).is_file()
            with mock.patch.object(dataset_mod, "_read_structured", side_effect=AssertionError):
                hit = ingest(*paths.values())
            assert (hit.n_features, hit.d_n, hit.bin_edges) == \
                (miss.n_features, miss.d_n, miss.bin_edges)
            assert_store_equals(hit.store, {name: getattr(miss.store, name)
                                            for name in STORE_DTYPES})
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
