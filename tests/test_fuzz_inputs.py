"""Fuzzed inputs: one edit of a small bundle's files, then a command.

Each example applies one edit from a fixed vocabulary (replace a cell; drop,
duplicate, swap or truncate a line; change one JSON value) to one file of a
12-episode ``synth`` bundle, its trained checkpoint or its config, and runs
``ingest``, ``train`` or ``eval`` on it through ``cli.main``. The command
must end in a documented exit code (0 ok, 2 config, 3 data, 4 numeric) with
no exception escaping. Hypothesis is derandomised and keeps no example
database, so every run tries the same examples.
"""

import json
import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from careql.cli import main

CONFIG = {
    "dataset": {"synth": {"n_severity": 3, "n_context": 2, "n_features": 4, "d_n": 4,
                          "n_episodes": 12, "max_len": 6, "min_gap": 0.0, "seed": 0,
                          "split_fractions": [0.5, 0.0, 0.5]}},
    "encoder": {"d": 4, "d_k": 2, "depth": 1},
    "train": {"total_steps": 4, "batch_size": 8, "hidden_width": 8, "trunk_depth": 1,
              "eval_interval": 2, "target_update": 2},
    "ope": {"n_bootstrap": 4, "fqe_iterations": 1, "fqe_steps": 2, "fqe_width": 4},
}
DATA_FILES = ("structured.csv", "notes.jsonl", "manifest.json", "ground_truth.json")
FILES = DATA_FILES + ("checkpoint.json", "config.json")
CELLS = ("", "nan", "-inf", "1e308", "-1", "0", "2", "0.5", "x", "null", "[]", "{}", '"x"')
JSON_VALUES = (None, True, -1, 0, 2, 0.5, 1e308, "x", "", [], {}, [1.0], {"x": 1})
COMMANDS = ("ingest", "train", "eval")
KINDS = ("cell", "drop", "duplicate", "swap", "truncate", "json")


@pytest.fixture(scope="module")
def bundle(tmp_path_factory):
    """A synth bundle, a checkpoint trained on it and their config, in one directory."""
    root = tmp_path_factory.mktemp("bundle")
    config = root / "config.json"
    config.write_text(json.dumps(CONFIG))
    assert main(["synth", "--config", str(config), "--out", str(root / "data")]) == 0
    assert main(["train", "--config", str(config), "--data", str(root / "data"),
                 "--out", str(root / "train")]) == 0
    shutil.move(root / "train" / "checkpoint.json", root / "checkpoint.json")
    shutil.rmtree(root / "train")
    for name in DATA_FILES:
        shutil.move(root / "data" / name, root / name)
    shutil.rmtree(root / "data")
    return root


def json_leaves(node, path=()):
    """The path of every value of a decoded JSON document that is no container."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return [path]
    return [leaf for key, child in items for leaf in json_leaves(child, path + (key,))]


def edit_json_value(text: str, pick: int, value) -> str:
    """``text`` with the ``pick``-th leaf of its one JSON document, or of the
    JSON document on its ``pick``-th line, set to ``value``; every document
    of the bundle is a non-empty object."""
    lines = text.splitlines()
    try:
        doc, at = json.loads(text), None
    except json.JSONDecodeError:
        at = pick % len(lines)
        doc = json.loads(lines[at])
    leaves = json_leaves(doc)
    *parents, last = leaves[pick % len(leaves)]
    node = doc
    for key in parents:
        node = node[key]
    node[last] = value
    if at is None:
        return json.dumps(doc)
    lines[at] = json.dumps(doc)
    return "\n".join(lines) + "\n"


@st.composite
def edits(draw):
    """(file name, edit kind, function of its text, command that reads the
    file) for one edit of the vocabulary."""
    name = draw(st.sampled_from(FILES))
    command = draw(st.sampled_from(("eval",) if name == "checkpoint.json" else COMMANDS))
    kind = draw(st.sampled_from(KINDS if name.endswith("json") else KINDS[:-1]))
    i, j, k = (draw(st.integers(0, 10 ** 6)) for _ in range(3))
    cell, value = draw(st.sampled_from(CELLS)), draw(st.sampled_from(JSON_VALUES))

    def edit(text: str) -> str:
        lines = text.splitlines()
        if kind == "json":
            return edit_json_value(text, i, value)
        if not lines:
            return text
        a, b = i % len(lines), j % len(lines)
        if kind == "cell":
            cells = lines[a].split(",")
            cells[b % len(cells)] = cell
            lines[a] = ",".join(cells)
        elif kind == "drop":
            del lines[a]
        elif kind == "duplicate":
            lines.insert(a, lines[a])
        elif kind == "swap":
            lines[a], lines[b] = lines[b], lines[a]
        else:
            lines[a] = lines[a][:k % (len(lines[a]) + 1)]
        return "".join(line + "\n" for line in lines)

    return name, kind, edit, command


class TestFuzzedInputs:
    @settings(max_examples=2500, deadline=None, derandomize=True, database=None)
    @given(edit=edits())
    def test_one_edit_ends_in_a_documented_exit_code(self, bundle, edit):
        name, kind, change, command = edit
        with tempfile.TemporaryDirectory() as tmp:
            work = Path(tmp)
            data = work / "data"
            data.mkdir()
            for file in DATA_FILES:
                shutil.copy(bundle / file, data / file)
            for file in ("checkpoint.json", "config.json"):
                shutil.copy(bundle / file, work / file)
            path = (data if name in DATA_FILES else work) / name
            path.write_text(change(path.read_text(encoding="utf-8")), encoding="utf-8")
            args = {"ingest": ["--data", str(data)],
                    "train": ["--data", str(data), "--out", str(work / "out")],
                    "eval": ["--data", str(data), "--checkpoint", str(work / "checkpoint.json"),
                             "--out", str(work / "out")]}[command]
            code = main([command, "--config", str(work / "config.json"), *args])
        assert code in (0, 2, 3, 4), (name, kind, command, code)
