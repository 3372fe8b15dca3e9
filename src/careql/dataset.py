"""Offline two-modality dataset model and file ingestion.

An episode is a sequence of observation frames on a fixed 4-hour step grid.
Each frame pairs a structured feature vector with a note embedding (all-zeros
plus a presence flag when no note was written in that frame). Decisions are
25-way joint dose levels (5 IV-fluid x 5 vasopressor). Rewards are sparse:
zero everywhere except the terminal step, which pays +1 for survival and -1
otherwise.

File layout (see ``ingest`` / ``export``):
  structured CSV  one row per frame: episode_id, step, f0..f{F-1},
                  iv_dose, vaso_dose, done, survived. The final frame of an
                  episode has done=1 and carries no decision (doses written
                  as 0). T+1 frame rows encode T transitions.
  notes JSONL     one object per frame that has a note:
                  {"episode_id", "step", "embedding": [d_n floats]}.
  manifest JSON   episode ids with split assignment, F, d_n and the dose
                  bin edges used for level discretization.

Export mirrors ingest byte-for-byte under the canonical (episode_id, step)
ordering.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Iterable, Mapping, Sequence

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
    transitions: tuple[Transition, ...]
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
        return sum((gamma ** t) * tr.reward for t, tr in enumerate(self.transitions))


@dataclass(frozen=True)
class FeatureStats:
    mean: Array
    std: Array

    def __post_init__(self):
        object.__setattr__(self, "mean", np.asarray(self.mean, dtype=np.float64))
        object.__setattr__(self, "std", np.asarray(self.std, dtype=np.float64))


@dataclass(frozen=True)
class DoseBins:
    """Per-drug discretization thresholds (4 ascending edges each)."""

    iv: tuple[float, float, float, float]
    vaso: tuple[float, float, float, float]


@dataclass(frozen=True)
class OfflineDataset:
    episodes: tuple[Episode, ...]
    n_features: int
    d_n: int
    feature_stats: FeatureStats | None = None
    bin_edges: DoseBins | None = None

    def __post_init__(self):
        object.__setattr__(self, "episodes", tuple(self.episodes))
        for ep in self.episodes:
            for tr in ep.transitions:
                for obs in (tr.obs, tr.next_obs):
                    if obs.structured.shape[0] != self.n_features:
                        raise DatasetError(
                            f"episode {ep.episode_id!r}: structured width "
                            f"{obs.structured.shape[0]} != F={self.n_features}"
                        )
                    if obs.note_embedding.shape[0] != self.d_n:
                        raise DatasetError(
                            f"episode {ep.episode_id!r}: embedding width "
                            f"{obs.note_embedding.shape[0]} != d_n={self.d_n}"
                        )

    def __len__(self) -> int:
        return len(self.episodes)

    @property
    def n_transitions(self) -> int:
        return sum(len(ep) for ep in self.episodes)

    def split_episodes(self, split: str) -> list[Episode]:
        return [ep for ep in self.episodes if ep.split == split]

    def survival(self) -> dict[str, bool]:
        return {ep.episode_id: ep.survived for ep in self.episodes}


@dataclass(frozen=True)
class TransitionColumns:
    """Scalar per-transition columns of a list of episodes, in episode order.

    Row k is one transition; episode i owns the ``lengths[i]`` consecutive
    rows that start at ``offsets[i]``.
    """

    action: Array          # (N,) int64 flat action index
    reward: Array          # (N,) float64
    done: Array            # (N,) bool, True on each episode's last row
    behavior_prob: Array   # (N,) float64, nan when unknown
    state_id: Array        # (N,) int64, -1 when unknown
    next_state_id: Array   # (N,) int64, -1 when unknown
    lengths: Array         # (n,) int64 transitions per episode

    @property
    def offsets(self) -> Array:
        """Row of each episode's first transition."""
        return np.cumsum(self.lengths) - self.lengths

    @property
    def episode_index(self) -> Array:
        return np.repeat(np.arange(self.lengths.shape[0], dtype=np.int64), self.lengths)

    @property
    def initial_mask(self) -> Array:
        mask = np.zeros(self.action.shape[0], dtype=bool)
        mask[self.offsets] = True
        return mask

    def split(self, rows: Array) -> list[Array]:
        """Per-transition rows cut into one block per episode."""
        return np.split(rows, np.cumsum(self.lengths)[:-1])

    def first_episode(self, rows: Array) -> int | None:
        """Index of the episode that holds the first True row, or None."""
        return int(self.episode_index[rows.argmax()]) if rows.any() else None


def transition_columns(episodes: Sequence[Episode]) -> TransitionColumns:
    """Flatten the scalar fields of every transition into columns (the flat
    layout of D4RL, Fu et al. 2020); frames are left out, because their note
    inputs depend on the note strategy."""
    trs = [tr for ep in episodes for tr in ep.transitions]
    return TransitionColumns(
        action=np.array([tr.action.flat for tr in trs], dtype=np.int64),
        reward=np.array([tr.reward for tr in trs], dtype=np.float64),
        done=np.array([tr.done for tr in trs], dtype=bool),
        behavior_prob=np.array([np.nan if tr.behavior_prob is None else tr.behavior_prob
                                for tr in trs], dtype=np.float64),
        state_id=np.array([-1 if tr.state_id is None else tr.state_id for tr in trs],
                          dtype=np.int64),
        next_state_id=np.array([-1 if tr.next_state_id is None else tr.next_state_id
                                for tr in trs], dtype=np.int64),
        lengths=np.array([len(ep.transitions) for ep in episodes], dtype=np.int64),
    )


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------


def assign_rewards(episode_raw: Sequence, survived: bool) -> list[float]:
    """Sparse terminal reward: zeros everywhere, +/-1 at the last step."""
    n = len(episode_raw)
    if n == 0:
        raise DatasetError("cannot assign rewards to an empty episode")
    rewards = [0.0] * n
    rewards[-1] = 1.0 if survived else -1.0
    return rewards


def discretize_dose(dose: float, bin_edges: Sequence[float]) -> int:
    """Map a raw dose to one of 5 levels.

    Level 0 is the zero dose; positive doses fall into half-open buckets
    [edge_k, edge_{k+1}) over the 4 ascending edges, so a dose equal to an
    edge lands in the higher bucket.
    """
    edges = _validate_edges(bin_edges)
    dose = float(dose)
    if np.isnan(dose):
        raise DatasetError("dose is NaN")
    if dose < 0.0:
        raise DatasetError(f"dose must be nonnegative, got {dose}")
    if dose == 0.0:
        return 0
    return int(np.sum(dose >= edges))


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
    train = dataset.split_episodes("train") or list(dataset.episodes)
    rows = [frame.structured for ep in train for frame in ep.frames()]
    mat = np.stack(rows)
    return FeatureStats(mean=mat.mean(axis=0), std=mat.std(axis=0))


def normalize(dataset: OfflineDataset, recompute_stats: bool = True,
              stats: FeatureStats | None = None) -> OfflineDataset:
    """Z-score structured features using training-split statistics.

    Zero-variance features map to 0. Idempotent on already-standardized
    data. Pass ``stats`` to normalize against another dataset's training
    statistics (cross-dataset evaluation).
    """
    for ep in dataset.episodes:
        for frame in ep.frames():
            if not np.isfinite(frame.structured).all():
                bad = int(np.argwhere(~np.isfinite(frame.structured))[0][0])
                raise DatasetError(
                    f"non-finite feature {bad} in episode {ep.episode_id!r}")
    if stats is None:
        stats = compute_feature_stats(dataset) \
            if (recompute_stats or dataset.feature_stats is None) \
            else dataset.feature_stats
    safe_std = np.where(stats.std > 0.0, stats.std, 1.0)
    zero_var = stats.std == 0.0

    def transform(obs: JointObservation) -> JointObservation:
        z = (obs.structured - stats.mean) / safe_std
        z[zero_var] = 0.0
        return replace(obs, structured=z)

    episodes = []
    for ep in dataset.episodes:
        transitions = []
        next_obs = None
        for tr in ep.transitions:
            obs = transform(tr.obs) if next_obs is None else next_obs
            next_obs = transform(tr.next_obs)
            transitions.append(replace(tr, obs=obs, next_obs=next_obs))
        episodes.append(replace(ep, transitions=tuple(transitions)))
    return replace(dataset, episodes=tuple(episodes), feature_stats=stats)


def rediscretize(dataset: OfflineDataset, bins: DoseBins) -> OfflineDataset:
    """Rebuild action levels from raw doses under different bin edges.

    Used when a cross-evaluation shares the training cohort's dose bins
    instead of the evaluation cohort's own.
    """
    episodes = []
    for ep in dataset.episodes:
        transitions = tuple(
            replace(tr, action=ActionIndex(
                iv_level=discretize_dose(tr.iv_dose, bins.iv),
                vaso_level=discretize_dose(tr.vaso_dose, bins.vaso)))
            for tr in ep.transitions
        )
        episodes.append(replace(ep, transitions=transitions))
    return replace(dataset, episodes=tuple(episodes), bin_edges=bins)


# ---------------------------------------------------------------------------
# File ingestion and export
# ---------------------------------------------------------------------------


def _fmt(x: float) -> str:
    """Shortest decimal that round-trips the float exactly."""
    return repr(float(x))


@dataclass
class _FrameRow:
    features: Array
    iv_dose: float
    vaso_dose: float
    done: bool
    survived: bool


def ingest(structured_file: str | Path, notes_file: str | Path,
           manifest: str | Path) -> OfflineDataset:
    """Build an OfflineDataset from the three canonical files."""
    manifest_path = Path(manifest)
    for required in (Path(structured_file), manifest_path):
        if not required.exists():
            raise DatasetError(f"missing dataset file: {required}")
    try:
        man = json.loads(manifest_path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise DatasetError(f"manifest {manifest_path}: invalid JSON ({exc})") from exc
    for key in ("episodes", "n_features", "d_n", "bin_edges"):
        if key not in man:
            raise DatasetError(f"manifest missing field {key!r}")
    n_features = int(man["n_features"])
    d_n = int(man["d_n"])
    splits = {}
    for entry in man["episodes"]:
        if entry["id"] in splits:
            raise DatasetError(f"manifest lists episode {entry['id']!r} twice")
        splits[entry["id"]] = entry["split"]
    bins = DoseBins(iv=tuple(man["bin_edges"]["iv"]), vaso=tuple(man["bin_edges"]["vaso"]))

    frames = _read_structured(Path(structured_file), n_features, splits)
    notes = _read_notes(Path(notes_file), d_n, frames)

    episodes = []
    for ep_id in sorted(frames):
        rows = frames[ep_id]
        steps = sorted(rows)
        if steps != list(range(len(steps))):
            raise DatasetError(f"episode {ep_id!r}: steps {steps} are not contiguous from 0")
        if len(steps) < 2:
            raise DatasetError(f"episode {ep_id!r}: needs at least 2 frame rows (1 transition)")
        done_flags = [rows[s].done for s in steps]
        if done_flags != [False] * (len(steps) - 1) + [True]:
            raise DatasetError(f"episode {ep_id!r}: done must mark exactly the final frame")
        survived_vals = {rows[s].survived for s in steps}
        if len(survived_vals) != 1:
            raise DatasetError(f"episode {ep_id!r}: inconsistent survived flags")
        survived = survived_vals.pop()

        obs_seq = []
        for s in steps:
            emb, present = notes.get((ep_id, s), (np.zeros(d_n), False))
            obs_seq.append(JointObservation(rows[s].features, emb, present))
        n_trans = len(steps) - 1
        rewards = assign_rewards(range(n_trans), survived)
        transitions = []
        for t in range(n_trans):
            row = rows[t]
            action = ActionIndex(
                iv_level=discretize_dose(row.iv_dose, bins.iv),
                vaso_level=discretize_dose(row.vaso_dose, bins.vaso),
            )
            transitions.append(Transition(
                obs=obs_seq[t], action=action, reward=rewards[t],
                next_obs=obs_seq[t + 1], done=(t == n_trans - 1),
                iv_dose=row.iv_dose, vaso_dose=row.vaso_dose,
            ))
        episodes.append(Episode(tuple(transitions), survived, ep_id, split=splits[ep_id]))

    missing = set(splits) - set(frames)
    if missing:
        raise DatasetError(f"manifest episodes missing from structured file: {sorted(missing)}")
    return OfflineDataset(tuple(episodes), n_features=n_features, d_n=d_n, bin_edges=bins)


def _read_structured(path: Path, n_features: int,
                     splits: Mapping[str, str]) -> dict[str, dict[int, _FrameRow]]:
    expected_header = (["episode_id", "step"] + [f"f{i}" for i in range(n_features)]
                       + ["iv_dose", "vaso_dose", "done", "survived"])
    lines = path.read_text(encoding="utf-8").splitlines()
    if not lines:
        raise DatasetError(f"{path}: empty structured file")
    header = lines[0].split(",")
    if header != expected_header:
        raise DatasetError(
            f"{path}: header mismatch (expected {len(expected_header)} columns "
            f"for F={n_features}, got {len(header)}: {header[:4]}...)"
        )
    frames: dict[str, dict[int, _FrameRow]] = {}
    for ln, line in enumerate(lines[1:], start=2):
        cells = line.split(",")
        if len(cells) != len(expected_header):
            raise DatasetError(f"{path} line {ln}: expected {len(expected_header)} cells, got {len(cells)}")
        ep_id, step = cells[0], int(cells[1])
        if ep_id not in splits:
            raise DatasetError(f"{path} line {ln}: episode {ep_id!r} not listed in manifest")
        try:
            features = np.array([float(c) for c in cells[2:2 + n_features]])
            iv_dose = float(cells[2 + n_features])
            vaso_dose = float(cells[3 + n_features])
        except ValueError as exc:
            raise DatasetError(f"{path} line {ln}: bad numeric cell ({exc})") from exc
        done = cells[4 + n_features]
        survived = cells[5 + n_features]
        if done not in ("0", "1") or survived not in ("0", "1"):
            raise DatasetError(f"{path} line {ln}: done/survived must be 0 or 1")
        per_ep = frames.setdefault(ep_id, {})
        if step in per_ep:
            raise DatasetError(f"{path} line {ln}: duplicate (episode, step) key ({ep_id!r}, {step})")
        per_ep[step] = _FrameRow(features, iv_dose, vaso_dose, done == "1", survived == "1")
    return frames


def _read_notes(path: Path, d_n: int,
                frames: Mapping[str, Mapping[int, _FrameRow]]) -> dict[tuple[str, int], tuple[Array, bool]]:
    notes: dict[tuple[str, int], tuple[Array, bool]] = {}
    text = path.read_text(encoding="utf-8") if path.exists() else ""
    for ln, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise DatasetError(f"{path} line {ln}: invalid JSON ({exc})") from exc
        key = (obj["episode_id"], int(obj["step"]))
        if key in notes:
            raise DatasetError(f"{path} line {ln}: duplicate note for {key}")
        if key[0] not in frames or key[1] not in frames[key[0]]:
            raise DatasetError(f"{path} line {ln}: note for unknown frame {key}")
        emb = np.asarray(obj["embedding"], dtype=np.float64)
        if emb.shape != (d_n,):
            raise DatasetError(
                f"{path} line {ln}: embedding length {emb.shape[0] if emb.ndim == 1 else emb.shape} "
                f"!= d_n={d_n} for {key}"
            )
        notes[key] = (emb, True)
    return notes


def export(dataset: OfflineDataset, out_dir: str | Path) -> dict[str, Path]:
    """Write the three canonical files; inverse of ``ingest`` byte-for-byte."""
    if dataset.bin_edges is None:
        raise DatasetError("dataset has no bin edges; cannot export a round-trippable manifest")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    structured_path = out / "structured.csv"
    notes_path = out / "notes.jsonl"
    manifest_path = out / "manifest.json"

    header = (["episode_id", "step"] + [f"f{i}" for i in range(dataset.n_features)]
              + ["iv_dose", "vaso_dose", "done", "survived"])
    csv_lines = [",".join(header)]
    note_lines = []
    episodes_sorted = sorted(dataset.episodes, key=lambda ep: ep.episode_id)
    for ep in episodes_sorted:
        surv = "1" if ep.survived else "0"
        for step, frame in enumerate(ep.frames()):
            terminal = step == len(ep.transitions)
            iv = 0.0 if terminal else ep.transitions[step].iv_dose
            vaso = 0.0 if terminal else ep.transitions[step].vaso_dose
            cells = ([ep.episode_id, str(step)] + [_fmt(x) for x in frame.structured]
                     + [_fmt(iv), _fmt(vaso), "1" if terminal else "0", surv])
            csv_lines.append(",".join(cells))
            if frame.note_present:
                note_lines.append(json.dumps(
                    {"episode_id": ep.episode_id, "step": step,
                     "embedding": [float(x) for x in frame.note_embedding]},
                    sort_keys=True))
    structured_path.write_text("\n".join(csv_lines) + "\n", encoding="utf-8")
    notes_path.write_text(("\n".join(note_lines) + "\n") if note_lines else "", encoding="utf-8")

    manifest = {
        "episodes": [{"id": ep.episode_id, "split": ep.split} for ep in episodes_sorted],
        "n_features": dataset.n_features,
        "d_n": dataset.d_n,
        "bin_edges": {"iv": list(dataset.bin_edges.iv), "vaso": list(dataset.bin_edges.vaso)},
    }
    manifest_path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return {"structured": structured_path, "notes": notes_path, "manifest": manifest_path}
