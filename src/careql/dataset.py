"""Offline two-modality dataset model and file ingestion.

An episode is a sequence of observation frames on a fixed 4-hour step grid.
Each frame pairs a structured feature vector with a note embedding (all-zeros
plus a presence flag when no note was written in that frame). Decisions are
25-way joint dose levels (5 IV-fluid x 5 vasopressor). Rewards are sparse:
zero everywhere except the terminal step, which pays +1 for survival and -1
otherwise.

A dataset keeps its episodes in one ``EpisodeStore`` of contiguous arrays
(the flat layout of D4RL, Fu et al. 2020). ``OfflineDataset.episodes`` are
views of it, whose ``Transition`` and ``JointObservation`` objects are built
only when ``transitions`` or ``frames()`` is read. Ingest, normalization,
rediscretization, export and every flattening reader work on the arrays.

File layout (see ``ingest`` / ``export``):
  structured CSV  one row per frame: episode_id, step, f0..f{F-1},
                  iv_dose, vaso_dose, done, survived. The final frame of an
                  episode has done=1 and carries no decision (doses written
                  as 0). T+1 frame rows encode T transitions.
  notes JSONL     one object per frame that has a note:
                  {"episode_id", "step", "embedding": [d_n floats]}.
  manifest JSON   episode ids with split assignment, F, d_n and the dose
                  bin edges used for level discretization.

Rows and note lines may come in any order. Export writes them in the
canonical (episode_id, step) order, so it mirrors ingest byte for byte.

Ingest parses the text once per content: it keeps the dataset of a
successful parse in a snapshot beside the structured CSV (``SNAPSHOT_NAME``),
keyed by the sha256 of the three files' bytes, and later ingests of the same
bytes load its arrays instead.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import tempfile
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass, field, replace
from functools import cached_property
from pathlib import Path

import numpy as np

Array = np.ndarray

N_DOSE_LEVELS = 5
N_ACTIONS = N_DOSE_LEVELS * N_DOSE_LEVELS

SPLITS = ("train", "val", "test")


class DatasetError(ValueError):
    """Malformed dataset contents or files."""


def _built(cls, **fields):
    """An instance of a frozen dataclass from fields already checked in bulk."""
    obj = object.__new__(cls)
    obj.__dict__.update(fields)
    return obj


# ---------------------------------------------------------------------------
# Domain types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class JointObservation:
    """One frame: structured feature vector plus note embedding."""

    structured: Array
    note_embedding: Array
    note_present: bool

    def __post_init__(self):
        object.__setattr__(self, "structured", np.asarray(self.structured, dtype=np.float64))
        object.__setattr__(self, "note_embedding", np.asarray(self.note_embedding, dtype=np.float64))
        if self.structured.ndim != 1:
            raise DatasetError(f"structured must be 1-d, got shape {self.structured.shape}")
        if self.note_embedding.ndim != 1:
            raise DatasetError(f"note_embedding must be 1-d, got shape {self.note_embedding.shape}")
        if not np.isfinite(self.structured).all():
            raise DatasetError("structured features must be finite")
        if not np.isfinite(self.note_embedding).all():
            raise DatasetError("note embedding must be finite")
        if not self.note_present and np.any(self.note_embedding != 0.0):
            raise DatasetError("absent note must use the all-zeros embedding")


@dataclass(frozen=True)
class ActionIndex:
    """Joint (IV-fluid level, vasopressor level) decision, flat index 0..24."""

    iv_level: int
    vaso_level: int

    def __post_init__(self):
        for name, level in (("iv_level", self.iv_level), ("vaso_level", self.vaso_level)):
            if not (0 <= level < N_DOSE_LEVELS):
                raise DatasetError(f"{name} must be in [0, {N_DOSE_LEVELS - 1}], got {level}")

    @property
    def flat(self) -> int:
        return N_DOSE_LEVELS * self.iv_level + self.vaso_level

    @classmethod
    def from_flat(cls, flat: int) -> "ActionIndex":
        if not (0 <= flat < N_ACTIONS):
            raise DatasetError(f"flat action must be in [0, {N_ACTIONS - 1}], got {flat}")
        return cls(iv_level=flat // N_DOSE_LEVELS, vaso_level=flat % N_DOSE_LEVELS)


@dataclass(frozen=True)
class Transition:
    obs: JointObservation
    action: ActionIndex
    reward: float
    next_obs: JointObservation
    done: bool
    behavior_prob: float | None = None
    # raw doses preserved for file round-trips
    iv_dose: float = 0.0
    vaso_dose: float = 0.0
    # latent state ids, known for synthetic data only; enable tabular oracles
    state_id: int | None = None
    next_state_id: int | None = None

    def __post_init__(self):
        if self.reward not in (-1.0, 0.0, 1.0):
            raise DatasetError(f"reward must be in {{-1, 0, +1}}, got {self.reward}")
        if not self.done and self.reward != 0.0:
            raise DatasetError("nonzero reward on a non-terminal transition")
        if self.behavior_prob is not None and not (0.0 < self.behavior_prob <= 1.0):
            raise DatasetError(f"behavior_prob must be in (0, 1], got {self.behavior_prob}")


@dataclass(frozen=True)
class Episode:
    """T transitions over T + 1 frames.

    Either built by hand from ``Transition`` objects, or a view of one
    episode of an ``EpisodeStore``, whose transitions are built from the
    arrays on first read.
    """

    transitions: Sequence[Transition]
    survived: bool
    episode_id: str
    split: str = "train"

    def __post_init__(self):
        object.__setattr__(self, "transitions", tuple(self.transitions))
        if len(self.transitions) < 1:
            raise DatasetError(f"episode {self.episode_id!r} has no transitions")
        if self.split not in SPLITS:
            raise DatasetError(f"unknown split {self.split!r}")
        done_flags = [t.done for t in self.transitions]
        if done_flags != [False] * (len(done_flags) - 1) + [True]:
            raise DatasetError(
                f"episode {self.episode_id!r}: exactly the last transition must have done=True"
            )
        expected = 1.0 if self.survived else -1.0
        if self.transitions[-1].reward != expected:
            raise DatasetError(
                f"episode {self.episode_id!r}: terminal reward {self.transitions[-1].reward} "
                f"inconsistent with survived={self.survived}"
            )

    def __len__(self) -> int:
        return len(self.transitions)

    def frames(self) -> list[JointObservation]:
        """All distinct observation frames, in time order (length T+1)."""
        return [t.obs for t in self.transitions] + [self.transitions[-1].next_obs]

    def discounted_return(self, gamma: float) -> float:
        # every reward before the terminal one is zero
        return (gamma ** (len(self) - 1)) * (1.0 if self.survived else -1.0)


class _StoredTransitions(Sequence):
    """The transitions of a stored episode, built on first read."""

    def __init__(self, store: "EpisodeStore", index: int):
        self._store, self._index, self._items = store, index, None

    def __len__(self) -> int:
        return int(self._store.lengths[self._index])

    def __getitem__(self, key):
        return self._built()[key]

    def __iter__(self):
        return iter(self._built())

    def __repr__(self) -> str:
        return repr(self._built())

    def _built(self) -> tuple[Transition, ...]:
        if self._items is None:
            self._items = self._store.episode_transitions(self._index)
        return self._items


@dataclass(frozen=True)
class FeatureStats:
    mean: Array
    std: Array

    def __post_init__(self):
        object.__setattr__(self, "mean", np.asarray(self.mean, dtype=np.float64))
        object.__setattr__(self, "std", np.asarray(self.std, dtype=np.float64))

    def standardize(self, x: Array) -> Array:
        """Z-scores of the rows of ``x``; a zero-variance feature maps to 0."""
        z = (x - self.mean) / np.where(self.std > 0.0, self.std, 1.0)
        z[:, self.std == 0.0] = 0.0
        return z


@dataclass(frozen=True)
class DoseBins:
    """Per-drug discretization thresholds (4 ascending edges each)."""

    iv: tuple[float, float, float, float]
    vaso: tuple[float, float, float, float]


_FRAME_FIELDS = ("structured", "note_embedding", "note_present", "state_id")
_TRANSITION_FIELDS = ("action", "iv_dose", "vaso_dose", "behavior_prob")
_EPISODE_FIELDS = ("lengths", "survived", "episode_id", "split")


def _ranges(starts: Array, counts: Array) -> Array:
    """The ranges [starts[i], starts[i] + counts[i]), concatenated."""
    ends = np.cumsum(counts)
    return np.repeat(starts - ends + counts, counts) + np.arange(ends[-1] if ends.size else 0)


@dataclass(frozen=True, eq=False)
class EpisodeStore:
    """Contiguous arrays of a list of episodes, in order.

    Episode i owns ``lengths[i]`` transition rows from ``offsets[i]`` and
    ``lengths[i] + 1`` frame rows from ``frame_offsets[i]``; its last frame
    carries no decision. Rewards and done flags follow from ``lengths`` and
    ``survived``, and a transition's next state is its next frame's.
    """

    structured: Array       # (n_frames, F) float64
    note_embedding: Array   # (n_frames, d_n) float64, zeros where no note
    note_present: Array     # (n_frames,) bool
    state_id: Array         # (n_frames,) int64, -1 when unknown
    action: Array           # (N,) int64 flat action index
    iv_dose: Array          # (N,) float64
    vaso_dose: Array        # (N,) float64
    behavior_prob: Array    # (N,) float64, nan when unknown
    lengths: Array          # (n,) int64 transitions per episode
    survived: Array         # (n,) bool
    episode_id: Array       # (n,) object, str
    split: Array            # (n,) object, one of SPLITS

    @cached_property
    def offsets(self) -> Array:
        return np.cumsum(self.lengths) - self.lengths

    @cached_property
    def frame_offsets(self) -> Array:
        return self.offsets + np.arange(self.lengths.shape[0])

    @cached_property
    def episode_index(self) -> Array:
        """Episode of each transition row."""
        return np.repeat(np.arange(self.lengths.shape[0], dtype=np.int64), self.lengths)

    @cached_property
    def decision_frame(self) -> Array:
        """Frame row of each transition, the state its decision reads; the
        row after it is its next state. Each earlier episode's final frame,
        which has no decision, shifts it by one."""
        return np.arange(self.action.shape[0]) + self.episode_index

    @cached_property
    def done(self) -> Array:
        """True on each episode's last transition."""
        done = np.zeros(self.action.shape[0], dtype=bool)
        done[np.cumsum(self.lengths) - 1] = True
        return done

    @cached_property
    def reward(self) -> Array:
        """Zero except on each episode's last transition: +1 survived, -1 not."""
        reward = np.zeros(self.action.shape[0])
        reward[np.cumsum(self.lengths) - 1] = np.where(self.survived, 1.0, -1.0)
        return reward

    def first_episode(self, rows: Array) -> int | None:
        """Index of the episode that owns the first True transition row, or None."""
        return int(self.episode_index[rows.argmax()]) if rows.any() else None

    def views(self) -> tuple[Episode, ...]:
        """One view per episode. The store keeps no reference to them, so
        dropping a dataset frees its arrays without waiting for the cycle
        collector."""
        return tuple(
            _built(Episode, transitions=_StoredTransitions(self, i), survived=survived,
                   episode_id=episode_id, split=split, _store=self, _index=i)
            for i, (survived, episode_id, split) in enumerate(
                zip(self.survived.tolist(), self.episode_id, self.split)))

    def take(self, index: Array) -> "EpisodeStore":
        """The store of episodes ``index``, in that order."""
        lengths = self.lengths[index]
        rows = {**dict.fromkeys(_FRAME_FIELDS, _ranges(self.frame_offsets[index], lengths + 1)),
                **dict.fromkeys(_TRANSITION_FIELDS, _ranges(self.offsets[index], lengths)),
                **dict.fromkeys(_EPISODE_FIELDS, index)}
        return EpisodeStore(**{name: getattr(self, name)[r] for name, r in rows.items()})

    def episode_transitions(self, i: int) -> tuple[Transition, ...]:
        """The transitions of episode ``i``, sharing frame objects; their
        arrays are views of the store's rows."""
        length, first = int(self.lengths[i]), int(self.frame_offsets[i])
        rows, cut = slice(first, first + length + 1), slice(first - i, first - i + length)
        frames = [_built(JointObservation, structured=x, note_embedding=e, note_present=p)
                  for x, e, p in zip(self.structured[rows], self.note_embedding[rows],
                                     self.note_present[rows].tolist())]
        states = [None if s < 0 else s for s in self.state_id[rows].tolist()]
        terminal = 1.0 if self.survived[i] else -1.0
        return tuple(
            _built(Transition, obs=frames[t], action=ActionIndex.from_flat(a),
                   reward=terminal if t == length - 1 else 0.0, next_obs=frames[t + 1],
                   done=t == length - 1, behavior_prob=None if math.isnan(p) else p,
                   iv_dose=iv, vaso_dose=vaso, state_id=states[t],
                   next_state_id=states[t + 1])
            for t, (a, p, iv, vaso) in enumerate(zip(
                self.action[cut].tolist(), self.behavior_prob[cut].tolist(),
                self.iv_dose[cut].tolist(), self.vaso_dose[cut].tolist())))

    @classmethod
    def pack(cls, episodes: Sequence[Episode], n_features: int = 0,
             d_n: int = 0) -> "EpisodeStore":
        """The arrays of any episodes, read through their objects; an empty
        list gives frame widths ``n_features`` and ``d_n``. A frame's state id
        is its transition's ``state_id``, the final frame's the last
        ``next_state_id``."""
        frames = [f for ep in episodes for f in ep.frames()]
        trs = [tr for ep in episodes for tr in ep.transitions]
        states = [s for ep in episodes
                  for s in [tr.state_id for tr in ep.transitions] + [ep.transitions[-1].next_state_id]]

        def stack(rows: list[Array], width: int) -> Array:
            return np.stack(rows) if rows else np.zeros((0, width))

        return cls(
            structured=stack([f.structured for f in frames], n_features),
            note_embedding=stack([f.note_embedding for f in frames], d_n),
            note_present=np.array([f.note_present for f in frames], dtype=bool),
            state_id=np.array([-1 if s is None else s for s in states], dtype=np.int64),
            action=np.array([tr.action.flat for tr in trs], dtype=np.int64),
            iv_dose=np.array([tr.iv_dose for tr in trs], dtype=np.float64),
            vaso_dose=np.array([tr.vaso_dose for tr in trs], dtype=np.float64),
            behavior_prob=np.array([np.nan if tr.behavior_prob is None else tr.behavior_prob
                                    for tr in trs], dtype=np.float64),
            lengths=np.array([len(ep.transitions) for ep in episodes], dtype=np.int64),
            survived=np.array([ep.survived for ep in episodes], dtype=bool),
            episode_id=np.array([ep.episode_id for ep in episodes], dtype=object),
            split=np.array([ep.split for ep in episodes], dtype=object),
        )


def store_of(episodes: Sequence[Episode], n_features: int = 0, d_n: int = 0) -> EpisodeStore:
    """One store of ``episodes`` in order: their own store when they are all
    of its episodes in its order, rows gathered from it when they are some of
    them, and a pack (see ``EpisodeStore.pack``) otherwise."""
    stores = [ep.__dict__.get("_store") for ep in episodes]
    store = stores[0] if stores else None
    if store is None or any(s is not store for s in stores):
        return EpisodeStore.pack(episodes, n_features, d_n)
    index = np.fromiter((ep.__dict__["_index"] for ep in episodes), dtype=np.int64,
                        count=len(episodes))
    if index.shape == store.lengths.shape and (index == np.arange(index.size)).all():
        return store
    return store.take(index)


def _frame_widths(ep: Episode) -> tuple[set[int], set[int]]:
    """Structured and note widths of an episode's frames."""
    store = ep.__dict__.get("_store")
    if store is not None:
        return {store.structured.shape[1]}, {store.note_embedding.shape[1]}
    frames = ep.frames()
    return ({f.structured.shape[0] for f in frames},
            {f.note_embedding.shape[0] for f in frames})


@dataclass(frozen=True)
class OfflineDataset:
    """A cohort: its episodes, frame widths, feature statistics and dose bins.

    ``store`` holds the arrays of every episode and ``episodes`` are its
    views; hand-built episodes are packed into a new store.
    """

    episodes: tuple[Episode, ...]
    n_features: int
    d_n: int
    feature_stats: FeatureStats | None = None
    bin_edges: DoseBins | None = None
    store: EpisodeStore = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        episodes = tuple(self.episodes)
        for ep in episodes:
            structured, notes = _frame_widths(ep)
            for width in structured - {self.n_features}:
                raise DatasetError(f"episode {ep.episode_id!r}: structured width "
                                   f"{width} != F={self.n_features}")
            for width in notes - {self.d_n}:
                raise DatasetError(f"episode {ep.episode_id!r}: embedding width "
                                   f"{width} != d_n={self.d_n}")
        store = store_of(episodes, self.n_features, self.d_n)
        if not episodes or episodes[0].__dict__.get("_store") is not store:
            episodes = store.views()
        object.__setattr__(self, "store", store)
        object.__setattr__(self, "episodes", episodes)

    def __len__(self) -> int:
        return len(self.episodes)

    @property
    def n_transitions(self) -> int:
        return int(self.store.lengths.sum())

    def split(self, name: str) -> "OfflineDataset":
        """The episodes of split ``name`` as a dataset on a store gathered
        from this one; this dataset itself when every episode is in it."""
        index = np.flatnonzero(self.store.split == name)
        if index.size == len(self):
            return self
        return replace(self, episodes=self.store.take(index).views())


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------


def discretize_doses(doses, bin_edges: Sequence[float]) -> Array:
    """Map raw doses to levels 0..4.

    Level 0 is the zero dose; positive doses fall into half-open buckets
    [edge_k, edge_{k+1}) over the 4 ascending edges, so a dose equal to an
    edge lands in the higher bucket.
    """
    edges = _validate_edges(bin_edges)
    doses = np.asarray(doses, dtype=np.float64)
    if np.isnan(doses).any():
        raise DatasetError("dose is NaN")
    negative = doses < 0.0
    if negative.any():
        raise DatasetError(f"dose must be nonnegative, got {doses[negative][0]}")
    return np.searchsorted(edges, doses, side="right")


def _flat_actions(iv_dose: Array, vaso_dose: Array, bins: DoseBins) -> Array:
    return (N_DOSE_LEVELS * discretize_doses(iv_dose, bins.iv)
            + discretize_doses(vaso_dose, bins.vaso))


def compute_bin_edges(doses: Iterable[float]) -> tuple[float, float, float, float]:
    """Quartile edges over strictly positive doses, below a minimal cut.

    Returns (min positive dose, q25, q50, q75) of the positive subset.
    """
    arr = np.asarray(list(doses), dtype=np.float64)
    if arr.size and (np.isnan(arr).any() or (arr < 0).any()):
        raise DatasetError("doses must be nonnegative and finite")
    positive = arr[arr > 0.0]
    if positive.size == 0:
        raise DatasetError(
            "all doses are zero; drug has a single level -- use a constant level-0 "
            "fallback instead of quartile bins"
        )
    if np.unique(positive).size < 4:
        raise DatasetError(
            f"need at least 4 distinct positive doses for quartile bins, "
            f"got {np.unique(positive).size}"
        )
    q25, q50, q75 = np.percentile(positive, [25.0, 50.0, 75.0])
    edges = (float(positive.min()), float(q25), float(q50), float(q75))
    if not all(a < b for a, b in zip(edges, edges[1:])):
        raise DatasetError(f"degenerate dose distribution: edges {edges} not strictly increasing")
    return edges


def _validate_edges(bin_edges: Sequence[float]) -> Array:
    edges = np.asarray(bin_edges, dtype=np.float64)
    if edges.shape != (4,):
        raise DatasetError(f"expected 4 bin edges, got {edges.shape}")
    if edges[0] <= 0.0 or not np.all(np.diff(edges) > 0.0):
        raise DatasetError(f"bin edges must be strictly increasing and positive: {edges}")
    return edges


def compute_feature_stats(dataset: OfflineDataset) -> FeatureStats:
    """Population mean/std per structured feature over the training split."""
    store = dataset.store
    train = store.split == "train"
    rows = store.structured[np.repeat(train, store.lengths + 1)] if train.any() \
        else store.structured
    return FeatureStats(mean=rows.mean(axis=0), std=rows.std(axis=0))


def normalize(dataset: OfflineDataset, stats: FeatureStats | None = None) -> OfflineDataset:
    """Z-score structured features using training-split statistics.

    Zero-variance features map to 0. Idempotent on already-standardized
    data. Pass ``stats`` to normalize against another dataset's training
    statistics (cross-dataset evaluation).
    """
    store = dataset.store
    finite = np.isfinite(store.structured)
    if not finite.all():
        frame, feature = np.argwhere(~finite)[0]
        episode = np.searchsorted(store.frame_offsets, frame, side="right") - 1
        raise DatasetError(
            f"non-finite feature {feature} in episode {store.episode_id[episode]!r}")
    if stats is None:
        stats = compute_feature_stats(dataset)
    z = stats.standardize(store.structured)
    return replace(dataset, episodes=replace(store, structured=z).views(), feature_stats=stats)


def rediscretize(dataset: OfflineDataset, bins: DoseBins) -> OfflineDataset:
    """Rebuild action levels from raw doses under different bin edges.

    Used when a cross-evaluation shares the training cohort's dose bins
    instead of the evaluation cohort's own.
    """
    store = dataset.store
    action = _flat_actions(store.iv_dose, store.vaso_dose, bins)
    return replace(dataset, episodes=replace(store, action=action).views(), bin_edges=bins)


# ---------------------------------------------------------------------------
# File ingestion and export
# ---------------------------------------------------------------------------


def _csv_header(n_features: int) -> list[str]:
    return (["episode_id", "step"] + [f"f{i}" for i in range(n_features)]
            + ["iv_dose", "vaso_dose", "done", "survived"])


SNAPSHOT_NAME = ".careql-store.npz"
# Bump whenever ingest returns something else for the same bytes, so that
# snapshots written by older code are parsed again instead of served.
SNAPSHOT_VERSION = 1
# the store arrays a snapshot holds as they are; ids and splits go in its
# JSON header, which keeps every character of an id
_SNAPSHOT_ARRAYS = ("structured", "note_embedding", "note_present", "state_id", "action",
                    "iv_dose", "vaso_dose", "behavior_prob", "lengths", "survived")


def ingest(structured_file: str | Path, notes_file: str | Path,
           manifest: str | Path) -> OfflineDataset:
    """Build an OfflineDataset from the three canonical files.

    Rows and note lines may come in any order. A malformed file raises a
    ``DatasetError`` that names it, and the line where there is one; so does
    a file that is not UTF-8 text.

    Each file is read once and the three are hashed together (sha256; a
    missing notes file hashes as absent). The dataset is loaded from the
    snapshot ``SNAPSHOT_NAME`` in the structured file's directory when that
    snapshot was written by this ``SNAPSHOT_VERSION`` for the same digest;
    otherwise the files are parsed and a successful parse replaces the
    snapshot atomically. A snapshot that cannot be read counts as a miss and
    one that cannot be written is skipped, so neither changes the result.
    Files that list no episodes are an error, whether parsed or read from a
    snapshot, and leave no snapshot.
    """
    paths = tuple(map(Path, (structured_file, notes_file, manifest)))
    structured_path, notes_path, manifest_path = paths
    for required in (structured_path, manifest_path):
        if not required.exists():
            raise DatasetError(f"missing dataset file: {required}")
    contents = {"structured": _read_bytes(structured_path),
                "notes": _read_bytes(notes_path) if notes_path.exists() else None,
                "manifest": _read_bytes(manifest_path)}
    digest = _digest(contents.values())
    snapshot = structured_path.parent / SNAPSHOT_NAME
    dataset = _load_snapshot(snapshot, digest)
    parsed = dataset is None
    if parsed:
        dataset = _parse(paths, contents)
    if not len(dataset):
        raise DatasetError(f"manifest {manifest_path}: lists no episodes")
    if parsed:
        _write_snapshot(snapshot, digest, dataset)
    return dataset


def _read_bytes(path: Path) -> bytes:
    try:
        return path.read_bytes()
    except OSError as exc:
        raise DatasetError(f"cannot read {path} ({exc})") from exc


def _text(data: bytes, name: str) -> str:
    """``data`` decoded as ``Path.read_text(encoding="utf-8")`` would,
    universal newlines included; a decode error names the file."""
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise DatasetError(f"{name}: not UTF-8 text ({exc})") from None
    return text.replace("\r\n", "\n").replace("\r", "\n")


def _digest(contents: Iterable[bytes | None]) -> str:
    """sha256 of the files' bytes, each prefixed by its length or marked absent."""
    h = hashlib.sha256()
    for data in contents:
        if data is None:
            h.update(b"absent;")
        else:
            h.update(b"%d;" % len(data))
            h.update(data)
    return h.hexdigest()


def _parse(paths: Sequence[Path], contents: dict[str, bytes | None]) -> OfflineDataset:
    """The dataset of the files' ``contents``. Each file's bytes are taken
    out of ``contents`` as they are decoded, so they are freed before the
    next file is parsed."""
    structured_path, notes_path, manifest_path = paths
    n_features, d_n, splits, bins = _read_manifest(
        manifest_path, _text(contents.pop("manifest"), f"manifest {manifest_path}"))
    columns = _read_structured(
        structured_path, _text(contents.pop("structured"), str(structured_path)).splitlines(),
        n_features, splits)
    n_frames = columns["structured"].shape[0]
    store = EpisodeStore(**columns, note_embedding=np.zeros((n_frames, d_n)),
                         note_present=np.zeros(n_frames, dtype=bool),
                         action=_flat_actions(columns["iv_dose"], columns["vaso_dose"], bins))
    if contents["notes"] is not None:
        _read_notes(notes_path, _text(contents.pop("notes"), str(notes_path)).splitlines(), store)
    return OfflineDataset(store.views(), n_features=n_features, d_n=d_n, bin_edges=bins)


def _load_snapshot(path: Path, digest: str) -> OfflineDataset | None:
    """The dataset of the snapshot at ``path`` if it was written by this
    ``SNAPSHOT_VERSION`` for ``digest``, else None."""
    try:
        with np.load(path, allow_pickle=False) as npz:
            meta = json.loads(str(npz["meta"]))
            if meta["version"] != SNAPSHOT_VERSION or meta["digest"] != digest:
                return None
            arrays = {name: npz[name] for name in _SNAPSHOT_ARRAYS}
        store = EpisodeStore(**arrays, episode_id=np.array(meta["episode_id"], dtype=object),
                             split=np.array(meta["split"], dtype=object))
        return OfflineDataset(store.views(), n_features=meta["n_features"], d_n=meta["d_n"],
                              bin_edges=DoseBins(**{drug: tuple(edges) for drug, edges
                                                    in meta["bin_edges"].items()}))
    except Exception:
        # The file may hold anything, and NumPy and zipfile raise many
        # exception types on a malformed archive; every one of them is a
        # miss, which the parse that follows makes invisible.
        return None


def _write_snapshot(path: Path, digest: str, dataset: OfflineDataset) -> None:
    """Write ``dataset``'s snapshot to a temporary file beside ``path`` and
    rename it over ``path``; skipped if the directory cannot be written."""
    store = dataset.store
    meta = {"version": SNAPSHOT_VERSION, "digest": digest, "n_features": dataset.n_features,
            "d_n": dataset.d_n, "bin_edges": {"iv": list(dataset.bin_edges.iv),
                                              "vaso": list(dataset.bin_edges.vaso)},
            "episode_id": store.episode_id.tolist(), "split": store.split.tolist()}
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".", suffix=".tmp")
        with os.fdopen(fd, "wb") as fh:
            np.savez(fh, meta=np.array(json.dumps(meta)),
                     **{name: getattr(store, name) for name in _SNAPSHOT_ARRAYS})
        os.replace(tmp, path)
    except OSError:
        if tmp is not None:
            Path(tmp).unlink(missing_ok=True)


def _read_manifest(path: Path, text: str) -> tuple[int, int, dict[str, str], DoseBins]:
    def error(message: str) -> DatasetError:
        return DatasetError(f"manifest {path}: {message}")

    try:
        man = json.loads(text)
    except json.JSONDecodeError as exc:
        raise error(f"invalid JSON ({exc})") from exc
    if not isinstance(man, dict):
        raise error("expected a JSON object")
    for key in ("episodes", "n_features", "d_n", "bin_edges"):
        if key not in man:
            raise error(f"missing field {key!r}")
    for key in ("n_features", "d_n"):
        if type(man[key]) is not int or man[key] < 1:
            raise error(f"{key} must be an integer >= 1, got {man[key]!r}")
    if not isinstance(man["episodes"], list):
        raise error("episodes must be a list")
    splits = {}
    for k, entry in enumerate(man["episodes"]):
        if not (isinstance(entry, dict) and isinstance(entry.get("id"), str)
                and entry.get("split") in SPLITS):
            raise error(f"episode entry {k} needs a string id and a split in {SPLITS}, "
                        f"got {entry!r}")
        if entry["id"] in splits:
            raise error(f"lists episode {entry['id']!r} twice")
        splits[entry["id"]] = entry["split"]
    try:
        edges = {drug: tuple(man["bin_edges"][drug]) for drug in ("iv", "vaso")}
        for drug_edges in edges.values():
            _validate_edges(drug_edges)
    except (KeyError, TypeError, ValueError) as exc:
        raise error(f"bad bin_edges ({exc})") from exc
    return man["n_features"], man["d_n"], splits, DoseBins(**edges)


def _read_structured(path: Path, lines: list[str], n_features: int,
                     splits: Mapping[str, str]) -> dict[str, Array]:
    """Frame, transition and episode columns of the structured CSV at
    ``path``, whose lines are ``lines``, checked and sorted by (episode_id, step)."""
    header = _csv_header(n_features)
    if not lines:
        raise DatasetError(f"{path}: empty structured file")
    got = lines[0].split(",")
    if got != header:
        raise DatasetError(
            f"{path}: header mismatch (expected {len(header)} columns "
            f"for F={n_features}, got {len(got)}: {got[:4]}...)"
        )
    ids = sorted(splits)
    code = {ep_id: k for k, ep_id in enumerate(ids)}
    # parsed row by row into one preallocated array: features, then the doses
    values = np.empty((len(lines) - 1, n_features + 2))
    codes, steps, flags = [], [], []
    for r, line in enumerate(lines[1:]):
        cells = line.split(",")
        if len(cells) != len(header):
            raise DatasetError(f"{path} line {r + 2}: expected {len(header)} cells, "
                               f"got {len(cells)}")
        if cells[0] not in code:
            raise DatasetError(f"{path} line {r + 2}: episode {cells[0]!r} not listed "
                               f"in manifest")
        try:
            step = int(cells[1])
        except ValueError:
            step = -1
        # a step past the number of rows could never be contiguous from 0
        if not 0 <= step < values.shape[0]:
            raise DatasetError(f"{path} line {r + 2}: step {cells[1]!r} is not an integer "
                               f"from 0 to {values.shape[0] - 1}")
        steps.append(step)
        try:
            values[r] = [float(c) for c in cells[2:-2]]
        except ValueError as exc:
            raise DatasetError(f"{path} line {r + 2}: bad numeric cell ({exc})") from exc
        if cells[-2] not in ("0", "1") or cells[-1] not in ("0", "1"):
            raise DatasetError(f"{path} line {r + 2}: done/survived must be 0 or 1")
        codes.append(code[cells[0]])
        flags.append((cells[-2] == "1", cells[-1] == "1"))

    bad = ~np.isfinite(values)
    bad[:, n_features:] |= values[:, n_features:] < 0.0
    if bad.any():
        r, c = np.argwhere(bad)[0]
        raise DatasetError(f"{path} line {r + 2}: {header[2 + c]} is {float(values[r, c])!r}; "
                           f"features must be finite and doses finite and nonnegative")

    codes, steps = np.array(codes, dtype=np.int64), np.array(steps, dtype=np.int64)
    order = np.lexsort((steps, codes))
    codes, steps, line_of = codes[order], steps[order], order + 2
    repeat = (codes[1:] == codes[:-1]) & (steps[1:] == steps[:-1])
    if repeat.any():
        r = 1 + np.flatnonzero(repeat)[np.argmin(line_of[1:][repeat])]
        raise DatasetError(f"{path} line {line_of[r]}: duplicate (episode, step) key "
                           f"({ids[codes[r]]!r}, {steps[r]})")
    counts = np.bincount(codes, minlength=len(ids))
    missing = [ids[k] for k in np.flatnonzero(counts == 0)]
    if missing:
        raise DatasetError(f"{path}: manifest episodes missing from the structured "
                           f"file: {missing}")
    starts = np.cumsum(counts) - counts
    rank = np.arange(codes.size) - np.repeat(starts, counts)
    if (steps != rank).any():
        k = codes[np.argmax(steps != rank)]
        raise DatasetError(f"{path}: episode {ids[k]!r}: steps {steps[codes == k].tolist()} "
                           f"are not contiguous from 0")
    if (counts < 2).any():
        raise DatasetError(f"{path}: episode {ids[np.argmax(counts < 2)]!r}: needs at least "
                           f"2 frame rows (1 transition)")
    done, survived = np.array(flags, dtype=bool).reshape(-1, 2)[order].T
    final = rank == np.repeat(counts - 1, counts)
    for wrong, what in ((done != final, "done must mark exactly the final frame"),
                        (survived != np.repeat(survived[starts], counts),
                         "inconsistent survived flags")):
        if wrong.any():
            r = np.argmax(wrong)
            raise DatasetError(f"{path} line {line_of[r]}: episode {ids[codes[r]]!r}: {what}")

    decision = order[~final]
    return dict(structured=np.ascontiguousarray(values[order, :n_features]),
                state_id=np.full(codes.size, -1, dtype=np.int64),
                iv_dose=values[decision, n_features], vaso_dose=values[decision, n_features + 1],
                behavior_prob=np.full(decision.size, np.nan), lengths=counts - 1,
                survived=survived[starts], episode_id=np.array(ids, dtype=object),
                split=np.array([splits[ep_id] for ep_id in ids], dtype=object))


def _read_notes(path: Path, lines: list[str], store: EpisodeStore) -> None:
    """Fill the store's note arrays from the lines of the notes file at ``path``."""
    code = {ep_id: k for k, ep_id in enumerate(store.episode_id)}
    d_n = store.note_embedding.shape[1]
    for ln, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise DatasetError(f"{path} line {ln}: invalid JSON ({exc})") from exc
        if not isinstance(obj, dict) or not {"episode_id", "step", "embedding"} <= obj.keys():
            raise DatasetError(f"{path} line {ln}: expected an object with episode_id, "
                               f"step and embedding")
        key = (obj["episode_id"], obj["step"])
        k = code.get(key[0]) if isinstance(key[0], str) else None
        if k is None or type(key[1]) is not int or not 0 <= key[1] <= store.lengths[k]:
            raise DatasetError(f"{path} line {ln}: note for unknown frame {key}")
        row = store.frame_offsets[k] + key[1]
        if store.note_present[row]:
            raise DatasetError(f"{path} line {ln}: duplicate note for {key}")
        try:
            emb = np.asarray(obj["embedding"])
        except ValueError:       # ragged nesting
            emb = np.asarray(None)
        if emb.dtype.kind not in "iuf":
            raise DatasetError(f"{path} line {ln}: embedding must be a list of numbers")
        if emb.shape != (d_n,):
            raise DatasetError(
                f"{path} line {ln}: embedding length {emb.shape[0] if emb.ndim == 1 else emb.shape} "
                f"!= d_n={d_n} for {key}"
            )
        if not np.isfinite(emb).all():
            raise DatasetError(f"{path} line {ln}: embedding must be finite")
        store.note_embedding[row] = emb
        store.note_present[row] = True


def export(dataset: OfflineDataset, out_dir: str | Path) -> dict[str, Path]:
    """Write the three canonical files; inverse of ``ingest`` byte-for-byte."""
    if dataset.bin_edges is None:
        raise DatasetError("dataset has no bin edges; cannot export a round-trippable manifest")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    structured_path = out / "structured.csv"
    notes_path = out / "notes.jsonl"
    manifest_path = out / "manifest.json"

    store = store_of(sorted(dataset.episodes, key=lambda ep: ep.episode_id))
    n_features = dataset.n_features
    # the final frame of an episode has no decision and writes zero doses
    values = np.zeros((store.structured.shape[0], n_features + 2))
    values[:, :n_features] = store.structured
    values[store.decision_frame, n_features] = store.iv_dose
    values[store.decision_frame, n_features + 1] = store.vaso_dose
    rows = iter(values)
    with structured_path.open("w", encoding="utf-8") as fh:
        fh.write(",".join(_csv_header(n_features)) + "\n")
        for ep_id, length, survived in zip(store.episode_id, store.lengths.tolist(),
                                           store.survived.tolist()):
            for step in range(length + 1):
                # repr is the shortest decimal that round-trips the float
                fh.write(f"{ep_id},{step},{','.join(map(repr, next(rows).tolist()))},"
                         f"{int(step == length)},{int(survived)}\n")

    noted = np.flatnonzero(store.note_present)
    episode = np.searchsorted(store.frame_offsets, noted, side="right") - 1
    with notes_path.open("w", encoding="utf-8") as fh:
        for row, k, step in zip(noted.tolist(), episode.tolist(),
                                (noted - store.frame_offsets[episode]).tolist()):
            fh.write(json.dumps({"episode_id": store.episode_id[k], "step": step,
                                 "embedding": store.note_embedding[row].tolist()},
                                sort_keys=True) + "\n")

    manifest = {
        "episodes": [{"id": ep_id, "split": split}
                     for ep_id, split in zip(store.episode_id, store.split)],
        "n_features": dataset.n_features,
        "d_n": dataset.d_n,
        "bin_edges": {"iv": list(dataset.bin_edges.iv), "vaso": list(dataset.bin_edges.vaso)},
    }
    manifest_path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return {"structured": structured_path, "notes": notes_path, "manifest": manifest_path}
