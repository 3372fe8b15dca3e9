"""Episode stores made by hand for tests, edits of their rows, and the
ingest of exported files from their snapshot and from their text.

A test makes a dataset as a library user does: it builds an ``EpisodeStore``
from arrays and takes its views, ``OfflineDataset(store.views(), F, d_n)``.
"""

from dataclasses import fields, replace
from pathlib import Path
from unittest import mock

import numpy as np

from careql import dataset as dataset_mod
from careql.dataset import (N_DOSE_LEVELS, SNAPSHOT_NAME, DoseBins, EpisodeStore,
                            OfflineDataset, ingest)

EDGES = (0.5, 1.5, 2.5, 3.5)
FRAME_ARRAYS = ("structured", "note_embedding", "note_present", "state_id")
DTYPES = {"structured": np.float64, "note_embedding": np.float64, "note_present": bool,
          "state_id": np.int64, "action": np.int64, "iv_dose": np.float64,
          "vaso_dose": np.float64, "behavior_prob": np.float64, "lengths": np.int64,
          "survived": bool, "episode_id": object, "split": object}


def make_store(episodes, d_n: int = 4) -> EpisodeStore:
    """The store of ``episodes`` in order, each a dict of its own rows: its
    T + 1 ``structured`` frame rows and, where given,

    - ``action``: its T flat actions (default 7, levels (1, 2));
    - ``notes``: {step: embedding} of its frames with a note (default none);
    - ``state_id``: its T + 1 frame state ids (default -1, unknown);
    - ``behavior_prob``: its T logged probabilities (default nan, unknown);
    - ``iv_dose``, ``vaso_dose``: its T raw doses (default the action's levels);
    - ``survived`` (default True), ``episode_id`` (default ``ep<i>``) and
      ``split`` (default "train").
    """
    columns = {name: [] for name in DTYPES}
    for i, ep in enumerate(episodes):
        structured = np.array(ep["structured"], dtype=np.float64, ndmin=2)
        n = structured.shape[0] - 1
        action = np.array(ep.get("action", [7] * n), dtype=np.int64)
        embedding, present = np.zeros((n + 1, d_n)), np.zeros(n + 1, dtype=bool)
        for step, note in ep.get("notes", {}).items():
            embedding[step], present[step] = note, True
        rows = {"structured": structured, "note_embedding": embedding, "note_present": present,
                "state_id": ep.get("state_id", [-1] * (n + 1)), "action": action,
                "iv_dose": ep.get("iv_dose", action // N_DOSE_LEVELS),
                "vaso_dose": ep.get("vaso_dose", action % N_DOSE_LEVELS),
                "behavior_prob": ep.get("behavior_prob", [np.nan] * n), "lengths": [n],
                "survived": [ep.get("survived", True)],
                "episode_id": [ep.get("episode_id", f"ep{i}")],
                "split": [ep.get("split", "train")]}
        for name, values in rows.items():
            columns[name].append(np.asarray(values, dtype=DTYPES[name]))
    return EpisodeStore(**{name: np.concatenate(parts) for name, parts in columns.items()})


def make_dataset(episodes, d_n: int = 4, bins: DoseBins = DoseBins(EDGES, EDGES)):
    """The dataset of ``make_store(episodes, d_n)``, its width F read off its frames."""
    store = make_store(episodes, d_n)
    return OfflineDataset(store.views(), store.structured.shape[1], d_n, bin_edges=bins)


def set_rows(store: EpisodeStore, episodes, **values) -> EpisodeStore:
    """``store`` with every row that ``episodes`` own in each named array set
    to its value: frame rows of a frame array, transition rows of the others."""
    changed = {}
    for name, value in values.items():
        owner = store.frame_episode if name in FRAME_ARRAYS else store.episode_index
        array = getattr(store, name).copy()
        array[np.isin(owner, list(episodes))] = value
        changed[name] = array
    return replace(store, **changed)


def ingest_parsed(paths) -> OfflineDataset:
    """Ingest the three files ``paths`` that export wrote twice: from the
    snapshot export wrote beside them, which must serve it without a parse,
    then with that snapshot deleted, so the text is parsed. Assert that both
    have the same widths, bin edges and store arrays; return the parsed one."""
    paths = [Path(p) for p in paths]
    with mock.patch.object(dataset_mod, "_read_structured",
                           side_effect=AssertionError("export's snapshot was not served")):
        served = ingest(*paths)
    (paths[0].parent / SNAPSHOT_NAME).unlink()
    parsed = ingest(*paths)
    assert repr((served.n_features, served.d_n, served.bin_edges)) == \
        repr((parsed.n_features, parsed.d_n, parsed.bin_edges))
    for f in fields(EpisodeStore):
        got, want = getattr(served.store, f.name), getattr(parsed.store, f.name)
        assert (got.dtype, got.shape) == (want.dtype, want.shape), f.name
        if want.dtype == object:
            assert got.tolist() == want.tolist(), f.name
        else:
            assert got.tobytes() == want.tobytes(), f.name
    return parsed
