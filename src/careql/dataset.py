"""Offline two-modality dataset model and file ingestion.

An episode is a sequence of observation frames on a fixed 4-hour step grid.
Each frame pairs a structured feature vector with a note embedding (all-zeros
plus a presence flag when no note was written in that frame). Decisions are
25-way joint dose levels (5 IV-fluid x 5 vasopressor). Rewards are sparse:
zero everywhere except the terminal step, which pays +1 for survival and -1
otherwise.

A dataset keeps its episodes in one ``EpisodeStore`` of contiguous arrays
(the flat layout of D4RL, Fu et al. 2020). ``OfflineDataset.episodes`` are
read-only views of it, whose ``Transition`` and ``JointObservation`` objects
are built from its rows when read. Ingest, normalization, rediscretization,
export and every flattening reader work on the arrays.

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
bytes load its arrays instead. Export writes that snapshot of its own files,
so a directory that export wrote is never parsed.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import stat
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


# ---------------------------------------------------------------------------
# Domain types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class JointObservation:
    """One frame: structured feature vector plus note embedding."""

    structured: Array
    note_embedding: Array
    note_present: bool


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
    """One decision, the frames before and after it and its logged values."""

    obs: JointObservation
    action: ActionIndex
    reward: float
    next_obs: JointObservation
    done: bool
    behavior_prob: float | None    # None when unknown
    # raw doses preserved for file round-trips
    iv_dose: float
    vaso_dose: float
    # latent state ids, known for synthetic data only; enable tabular oracles
    state_id: int | None
    next_state_id: int | None


@dataclass(frozen=True, eq=False)
class Episode:
    """Episode ``index`` of ``store``, read-only: the sequence of its T
    transitions over T + 1 frames (also read as ``transitions``), each built
    from the store's rows when indexed or iterated."""

    store: "EpisodeStore" = field(repr=False)
    index: int

    @property
    def episode_id(self) -> str:
        return self.store.episode_id[self.index]

    @property
    def survived(self) -> bool:
        return bool(self.store.survived[self.index])

    @property
    def split(self) -> str:
        return self.store.split[self.index]

    @property
    def transitions(self) -> "Episode":
        return self

    def __len__(self) -> int:
        return int(self.store.lengths[self.index])

    def __getitem__(self, t: int) -> Transition:
        store = self.store
        row = int(store.offsets[self.index]) + range(len(self))[t]
        frame, prob = row + self.index, float(store.behavior_prob[row])
        state, next_state = (None if s < 0 else s for s in store.state_id[frame:frame + 2].tolist())
        return Transition(
            obs=store.frame(frame), action=ActionIndex.from_flat(int(store.action[row])),
            reward=float(store.reward[row]), next_obs=store.frame(frame + 1),
            done=bool(store.done[row]), behavior_prob=None if math.isnan(prob) else prob,
            iv_dose=float(store.iv_dose[row]), vaso_dose=float(store.vaso_dose[row]),
            state_id=state, next_state_id=next_state)

    def frames(self) -> list[JointObservation]:
        """All distinct observation frames, in time order (length T+1)."""
        first = int(self.store.frame_offsets[self.index])
        return [self.store.frame(k) for k in range(first, first + len(self) + 1)]

    def discounted_return(self, gamma: float) -> float:
        # every reward before the terminal one is zero
        return (gamma ** (len(self) - 1)) * (1.0 if self.survived else -1.0)


@dataclass(frozen=True)
class FeatureStats:
    mean: Array
    std: Array

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

    @cached_property
    def frame_episode(self) -> Array:
        """Episode of each frame row."""
        return np.repeat(np.arange(self.lengths.shape[0], dtype=np.int64), self.lengths + 1)

    def first_episode(self, rows: Array) -> int | None:
        """Index of the episode that owns the first True transition row, or None."""
        return int(self.episode_index[rows.argmax()]) if rows.any() else None

    def frame(self, row: int) -> JointObservation:
        """Frame row ``row``; its arrays are views of the store's."""
        return JointObservation(self.structured[row], self.note_embedding[row],
                                bool(self.note_present[row]))

    def views(self) -> tuple[Episode, ...]:
        """One view per episode. The store keeps no reference to them, so
        dropping a dataset frees its arrays without waiting for the collector."""
        return tuple(Episode(self, i) for i in range(self.lengths.shape[0]))

    def take(self, index: Array) -> "EpisodeStore":
        """The store of episodes ``index``, in that order: this store itself
        when they are all of its episodes in its order."""
        n = self.lengths.size
        if np.shape(index) == (n,) and (index == np.arange(n)).all():
            return self
        lengths = self.lengths[index]
        rows = {**dict.fromkeys(_FRAME_FIELDS, _ranges(self.frame_offsets[index], lengths + 1)),
                **dict.fromkeys(_TRANSITION_FIELDS, _ranges(self.offsets[index], lengths)),
                **dict.fromkeys(_EPISODE_FIELDS, index)}
        return EpisodeStore(**{name: getattr(self, name)[r] for name, r in rows.items()})

    @classmethod
    def empty(cls, n_features: int, d_n: int) -> "EpisodeStore":
        """The store of no episodes, whose frames are ``n_features`` and ``d_n`` wide."""
        ints, floats, flags, names = (np.zeros(0, t) for t in (np.int64, np.float64, bool, object))
        return cls(np.zeros((0, n_features)), np.zeros((0, d_n)), flags, ints,
                   ints, floats, floats, floats, ints, flags, names, names)

    def check(self, n_features: int, d_n: int) -> None:
        """Raise a ``DatasetError`` unless every array has the shape that
        ``lengths`` and the frame widths ``n_features`` and ``d_n`` give it,
        every episode has a transition and a split in ``SPLITS``, every
        action is a flat index below ``N_ACTIONS`` and every behavior
        probability is NaN (unknown) or in [0, 1]."""
        n, n_frames = int(self.lengths.sum()), int(self.lengths.sum()) + self.lengths.size
        shapes = {**dict.fromkeys(_FRAME_FIELDS, (n_frames,)),
                  **dict.fromkeys(_TRANSITION_FIELDS, (n,)),
                  **dict.fromkeys(_EPISODE_FIELDS, self.lengths.shape),
                  "structured": (n_frames, n_features), "note_embedding": (n_frames, d_n)}
        for name, shape in shapes.items():
            if np.shape(getattr(self, name)) != shape:
                raise DatasetError(f"store {name} has shape {np.shape(getattr(self, name))}, "
                                   f"but lengths and widths give {shape}")
        for bad, what in ((self.lengths < 1, "has no transitions"),
                          (~np.isin(self.split, SPLITS), f"has a split outside {SPLITS}")):
            if bad.any():
                raise DatasetError(f"episode {self.episode_id[bad.argmax()]!r} {what}")
        prob = self.behavior_prob
        for bad, what in (((self.action < 0) | (self.action >= N_ACTIONS),
                           f"has an action outside 0..{N_ACTIONS - 1}"),
                          ((prob < 0.0) | (prob > 1.0),
                           "has a behavior_prob that is neither NaN nor in [0, 1]")):
            k = self.first_episode(bad)
            if k is not None:
                raise DatasetError(f"episode {self.episode_id[k]!r} {what}")


def store_of(episodes: Sequence[Episode]) -> EpisodeStore:
    """The store of some views of one store, in order (``EpisodeStore.take``)."""
    store = episodes[0].store
    if any(ep.store is not store for ep in episodes):
        raise DatasetError("the episodes of a dataset must be views of one store")
    return store.take(np.fromiter((ep.index for ep in episodes), dtype=np.int64,
                                  count=len(episodes)))


@dataclass(frozen=True)
class OfflineDataset:
    """A cohort: its episodes, frame widths, feature statistics and dose bins.

    ``episodes`` are views of one ``EpisodeStore`` (see ``store_of``), which
    is checked (see ``EpisodeStore.check``); ``store`` holds the arrays of
    exactly these episodes, and is an empty store of the frame widths when
    there are none.
    """

    episodes: tuple[Episode, ...]
    n_features: int
    d_n: int
    feature_stats: FeatureStats | None = None
    bin_edges: DoseBins | None = None
    store: EpisodeStore = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        episodes = tuple(self.episodes)
        if episodes:
            episodes[0].store.check(self.n_features, self.d_n)
            store = store_of(episodes)
            if store is not episodes[0].store:
                episodes = store.views()
        else:
            store = EpisodeStore.empty(self.n_features, self.d_n)
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
    rows = store.structured[train[store.frame_episode]] if train.any() else store.structured
    with np.errstate(over="ignore", invalid="ignore"):
        mean, std = rows.mean(axis=0), rows.std(axis=0)
    bad = ~(np.isfinite(mean) & np.isfinite(std))
    if bad.any():
        raise DatasetError(f"feature {int(bad.argmax())} is too large to standardize: "
                           f"its mean or standard deviation overflows")
    return FeatureStats(mean=mean, std=std)


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
        raise DatasetError(f"non-finite feature {feature} in episode "
                           f"{store.episode_id[store.frame_episode[frame]]!r}")
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
        _write_snapshot(structured_path, digest, dataset)
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
    """sha256 of the files' bytes, each prefixed by its length or marked
    absent. Each file's bytes are let go before the next are taken, so
    ``contents`` may read the files one at a time."""
    h = hashlib.sha256()
    for data in contents:
        if data is None:
            h.update(b"absent;")
        else:
            h.update(b"%d;" % len(data))
            h.update(data)
        del data
    return h.hexdigest()


def _parse(paths: Sequence[Path], contents: dict[str, bytes | None]) -> OfflineDataset:
    """The dataset of the files' ``contents``. Each file's bytes are taken
    out of ``contents`` as they are decoded, so they are freed before the
    next file is parsed."""
    structured_path, notes_path, manifest_path = paths
    name = f"manifest {manifest_path}"
    manifest = _read_manifest(name, _text(contents.pop("manifest"), name))
    n_features, _, splits, _ = manifest
    dataset = _ingested(manifest, **_read_structured(
        structured_path, _text(contents.pop("structured"), str(structured_path)).splitlines(),
        n_features, splits))
    if contents["notes"] is not None:
        _read_notes(notes_path, _text(contents.pop("notes"), str(notes_path)).splitlines(),
                    dataset.store)
    return dataset


def _ingested(manifest: tuple[int, int, Mapping[str, str], DoseBins], structured: Array,
              iv_dose: Array, vaso_dose: Array, lengths: Array, survived: Array,
              note_embedding: Array | None = None,
              note_present: Array | None = None) -> OfflineDataset:
    """The dataset ingest returns for files whose manifest reads as
    ``manifest`` (see ``_read_manifest``), whose structured rows hold these
    columns in (episode_id, step) order, and whose notes are the rows
    ``note_present`` of ``note_embedding`` (none when not given). Files hold
    no state ids or behaviour probabilities (-1, NaN), and actions are the
    doses' levels under the manifest's bins."""
    n_features, d_n, splits, bins = manifest
    ids = sorted(splits)
    n_frames = structured.shape[0]
    if note_present is None:
        note_embedding, note_present = np.zeros((n_frames, d_n)), np.zeros(n_frames, dtype=bool)
    elif (note_embedding.dtype != np.float64
          or (note_embedding.view(np.uint64).any(axis=1) & ~note_present).any()):
        # a frame with no note holds something other than +0.0 bits
        given, note_embedding = note_embedding, np.zeros((n_frames, d_n))
        note_embedding[note_present] = given[note_present]
    store = EpisodeStore(
        structured=np.ascontiguousarray(structured, dtype=np.float64),
        note_embedding=np.ascontiguousarray(note_embedding), note_present=note_present,
        state_id=np.full(n_frames, -1, dtype=np.int64),
        action=_flat_actions(iv_dose, vaso_dose, bins),
        iv_dose=np.ascontiguousarray(iv_dose, dtype=np.float64),
        vaso_dose=np.ascontiguousarray(vaso_dose, dtype=np.float64),
        behavior_prob=np.full(iv_dose.shape[0], np.nan),
        lengths=np.asarray(lengths, dtype=np.int64), survived=np.asarray(survived, dtype=bool),
        episode_id=np.array(ids, dtype=object),
        split=np.array([splits[ep_id] for ep_id in ids], dtype=object))
    return OfflineDataset(store.views(), n_features=n_features, d_n=d_n, bin_edges=bins)


def _load_snapshot(path: Path, digest: str) -> OfflineDataset | None:
    """The dataset of the snapshot at ``path`` if it was written by this
    ``SNAPSHOT_VERSION`` for ``digest`` with bin edges a manifest may hold, else None."""
    try:
        with np.load(path, allow_pickle=False) as npz:
            meta = json.loads(str(npz["meta"]))
            if meta["version"] != SNAPSHOT_VERSION or meta["digest"] != digest:
                return None
            arrays = {name: npz[name] for name in _SNAPSHOT_ARRAYS}
        store = EpisodeStore(**arrays, episode_id=np.array(meta["episode_id"], dtype=object),
                             split=np.array(meta["split"], dtype=object))
        return OfflineDataset(store.views(), n_features=meta["n_features"], d_n=meta["d_n"],
                              bin_edges=_dose_bins(meta["bin_edges"]))
    except Exception:
        # The file may hold anything, and NumPy and zipfile raise many
        # exception types on a malformed archive; every one of them is a
        # miss, which the parse that follows makes invisible.
        return None


def _write_snapshot(structured_path: Path, digest: str, dataset: OfflineDataset) -> None:
    """Write ``dataset``'s snapshot ``SNAPSHOT_NAME`` beside the structured
    file at ``structured_path``, with that file's permission bits, so that
    whoever may read the data may read the snapshot too: to a temporary
    file, renamed over the snapshot. Skipped if it cannot be written."""
    path = structured_path.parent / SNAPSHOT_NAME
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
        os.chmod(tmp, stat.S_IMODE(structured_path.stat().st_mode))
        os.replace(tmp, path)
    except OSError:
        if tmp is not None:
            Path(tmp).unlink(missing_ok=True)


def _read_manifest(name: str, text: str) -> tuple[int, int, dict[str, str], DoseBins]:
    """The widths, the split of each episode id and the dose bins of the
    manifest ``text``; an error names the manifest as ``name``."""
    def error(message: str) -> DatasetError:
        return DatasetError(f"{name}: {message}")

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
        bins = _dose_bins(man["bin_edges"])
    except (KeyError, TypeError, ValueError) as exc:
        raise error(f"bad bin_edges ({exc})") from exc
    return man["n_features"], man["d_n"], splits, bins


def _dose_bins(edges: Mapping) -> DoseBins:
    """The dose bins of the JSON ``bin_edges`` of a manifest or a snapshot:
    4 ascending positive numbers per drug, each an int or a float."""
    bins = {drug: tuple(edges[drug]) for drug in ("iv", "vaso")}
    for drug, drug_edges in bins.items():
        if any(type(edge) not in (int, float) for edge in drug_edges):
            raise DatasetError(f"{drug} edges must be numbers, got {list(drug_edges)}")
        _validate_edges(drug_edges)
    return DoseBins(**bins)


def _read_structured(path: Path, lines: list[str], n_features: int,
                     splits: Mapping[str, str]) -> dict[str, Array]:
    """The structured, dose, length and survived columns of the structured
    CSV at ``path``, whose lines are ``lines``, checked and sorted by
    (episode_id, step), as ``_ingested`` takes them."""
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

    bad = _bad_value(values, n_features)
    if bad is not None:
        raise DatasetError(f"{path} line {bad[0] + 2}: {bad[1]}")

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
    return dict(structured=values[order, :n_features], iv_dose=values[decision, n_features],
                vaso_dose=values[decision, n_features + 1], lengths=counts - 1,
                survived=survived[starts])


def _bad_value(values: Array, n_features: int) -> tuple[int, str] | None:
    """The first row of ``values``, each a structured row's ``n_features``
    features and then its two doses, that holds a feature that is not
    finite or a dose that is not finite and nonnegative, and what is wrong
    with it; None when every row is fine."""
    bad = ~np.isfinite(values)
    bad[:, n_features:] |= values[:, n_features:] < 0.0
    if not bad.any():
        return None
    r, c = np.argwhere(bad)[0]
    return int(r), (f"{_csv_header(n_features)[2 + c]} is {float(values[r, c])!r}; "
                    f"features must be finite and doses finite and nonnegative")


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
    """Write the three canonical files, the inverse of ``ingest`` byte for
    byte, and the snapshot a parse of them writes (skipped if it cannot be
    written), so the first ingest of ``out_dir`` parses no text; return the
    files' paths.

    Before the directory is made, a ``DatasetError`` refuses what ingest
    would not read back: no bin edges or episodes, an id that is not a
    string, holds a comma or a line break or is repeated, bad bin edges, a
    feature that is not finite, a negative or non-finite dose, or a note
    embedding that is not of finite numbers."""
    if dataset.bin_edges is None:
        raise DatasetError("dataset has no bin edges; cannot export a round-trippable manifest")
    if not dataset.episodes:
        raise DatasetError("dataset has no episodes; there is nothing to export")
    for ep_id in dataset.store.episode_id:
        if not isinstance(ep_id, str):
            raise DatasetError(f"episode id {ep_id!r} is not a string")
        # ingest splits a CSV line at every comma and the file where str.splitlines does
        if "," in ep_id or len(f"{ep_id}.".splitlines()) > 1:
            raise DatasetError(f"episode id {ep_id!r} holds a comma or a line break, "
                               f"which a structured CSV cell cannot hold")
    store = dataset.store.take(np.argsort(dataset.store.episode_id, kind="stable"))
    n_features = dataset.n_features
    manifest_text = json.dumps({
        "episodes": [{"id": ep_id, "split": split}
                     for ep_id, split in zip(store.episode_id, store.split)],
        "n_features": n_features, "d_n": dataset.d_n,
        "bin_edges": {"iv": list(dataset.bin_edges.iv), "vaso": list(dataset.bin_edges.vaso)},
    }, indent=2, sort_keys=True) + "\n"
    # the manifest as ingest reads it, which refuses a repeated id and bad bin edges
    manifest = _read_manifest("manifest to export", manifest_text)

    # the final frame of an episode has no decision and writes zero doses
    values = np.zeros((store.structured.shape[0], n_features + 2))
    values[:, :n_features] = store.structured
    values[store.decision_frame, n_features] = store.iv_dose
    values[store.decision_frame, n_features + 1] = store.vaso_dose
    note_embedding, note_present = store.note_embedding, np.asarray(store.note_present, bool)
    if note_embedding.dtype.kind not in "iuf":
        raise DatasetError(f"note embeddings must be numbers, got dtype {note_embedding.dtype}")
    bad = _bad_value(values, n_features)
    if bad is None:
        unfinished = note_present & ~np.isfinite(note_embedding).all(axis=1)
        if unfinished.any():
            bad = int(unfinished.argmax()), "note embedding must be finite"
    if bad is not None:
        k = int(store.frame_episode[bad[0]])
        raise DatasetError(f"episode {store.episode_id[k]!r} step "
                           f"{bad[0] - store.frame_offsets[k]}: {bad[1]}")

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = {"structured": out / "structured.csv", "notes": out / "notes.jsonl",
             "manifest": out / "manifest.json"}
    survived = np.asarray(store.survived, bool)
    rows = iter(values)
    with paths["structured"].open("w", encoding="utf-8") as fh:
        fh.write(",".join(_csv_header(n_features)) + "\n")
        for ep_id, length, ep_survived in zip(store.episode_id, store.lengths.tolist(),
                                              survived.tolist()):
            for step in range(length + 1):
                # repr is the shortest decimal that round-trips the float
                fh.write(f"{ep_id},{step},{','.join(map(repr, next(rows).tolist()))},"
                         f"{int(step == length)},{int(ep_survived)}\n")
    del values, rows    # freed before the files are read back for the digest

    noted = np.flatnonzero(note_present)
    episode = store.frame_episode[noted]
    with paths["notes"].open("w", encoding="utf-8") as fh:
        for row, k, step in zip(noted.tolist(), episode.tolist(),
                                (noted - store.frame_offsets[episode]).tolist()):
            fh.write(_note_line(store.episode_id[k], step, note_embedding[row].tolist())
                     + "\n")
    paths["manifest"].write_text(manifest_text, encoding="utf-8")

    _write_snapshot(paths["structured"], _digest(map(_read_bytes, paths.values())),
                    _ingested(manifest, store.structured, store.iv_dose, store.vaso_dose,
                              store.lengths, survived, note_embedding, note_present))
    return paths


def _note_line(episode_id: str, step: int, embedding: list) -> str:
    """The notes file line of a frame's note: ``json.dumps`` of its object
    with sorted keys, for a string id, an int step and finite numbers."""
    return '{"embedding": [%s], "episode_id": %s, "step": %d}' % (
        ", ".join(map(repr, embedding)), json.dumps(episode_id), step)
