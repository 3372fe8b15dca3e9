"""Fuzzed inputs: one edit of a small bundle's files, then a command.

Each example applies one edit from a fixed vocabulary (replace a cell; drop,
duplicate, swap or truncate a line; change one JSON value) to one file of a
12-episode ``synth`` bundle, its trained checkpoint or its config, and runs
``ingest``, ``train`` or ``eval`` on it through ``cli.main``. The command
must end in a documented exit code (0 ok, 2 config, 3 data, 4 numeric) with
no exception escaping and no numpy warning, and every JSON file it writes
must be valid JSON, with no NaN or Infinity. Hypothesis draws from a fixed
seed and keeps no example database, so every run tries the same examples,
also after the test's source is edited.
"""

import hashlib
import json
import shutil
import tempfile
from functools import partial
from pathlib import Path

import pytest
from hypothesis import example, given, seed, settings
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
# the examples: a seed fixed before the first run, so that they do not
# depend on the test's source as a derandomised run's do
FUZZ_SETTINGS = settings(max_examples=2500, deadline=None, derandomize=True, database=None)
FUZZ_SEED = 0
# (checkpoint tensor whose first value is set to 3e38, finite in float32,
# what `careql eval`'s numeric failure names): an overflow in the policy's
# float32 forward, or in network FQE on state features that are finite in
# float32 (the float64 residuals of a Q finite in float32 cannot overflow)
CHECKPOINT_OVERFLOWS = {
    "q_head_forward": ("q.trunk0.b", "non-finite Q in a policy forward"),
    "encoder_input": ("state.enc.in_proj.b", "non-finite gradient in 'fqe."),
    "note_projection": ("state.note_proj.b", "non-finite gradient in 'fqe."),
    "attention_values": ("state.attn.Wv_n", "non-finite gradient in 'fqe."),
}


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


def edit_text(text: str, kind: str, i: int, j: int, k: int, cell: str, value) -> str:
    """``text`` after one edit of the vocabulary: ``kind`` at line i (and j),
    comma-separated cell j of line i, prefix length k, or JSON leaf i."""
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


@st.composite
def edits(draw):
    """(file name, edit kind, function of its text, command that reads the
    file) for one edit of the vocabulary."""
    name = draw(st.sampled_from(FILES))
    command = draw(st.sampled_from(("eval",) if name == "checkpoint.json" else COMMANDS))
    kind = draw(st.sampled_from(KINDS if name.endswith("json") else KINDS[:-1]))
    i, j, k = (draw(st.integers(0, 10 ** 6)) for _ in range(3))
    cell, value = draw(st.sampled_from(CELLS)), draw(st.sampled_from(JSON_VALUES))
    return name, kind, partial(edit_text, kind=kind, i=i, j=j, k=k, cell=cell, value=value), \
        command


def overflow_cell(name: str, command: str, cell: str = "1e308") -> tuple:
    """The edit that writes ``cell``, a large finite number, into the third
    cell of the second line of ``name`` (a feature of a structured row, a
    value of a note embedding), read by ``command``."""
    return name, "cell", partial(edit_text, kind="cell", i=1, j=2, k=0, cell=cell,
                                 value=None), command


def drawn_edit(edit) -> str:
    """The repr of what an example of ``edits()`` drew."""
    name, kind, change, command = edit
    return repr((name, kind, sorted(change.keywords.items()), command))


def refuse_constant(name: str):
    raise ValueError(f"{name} is not JSON")


def assert_valid_json(out: Path) -> None:
    """Every ``.json`` file under ``out`` parses as strict JSON."""
    for path in out.rglob("*.json"):
        json.loads(path.read_text(encoding="utf-8"), parse_constant=refuse_constant)


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestFuzzedInputs:
    @FUZZ_SETTINGS
    @seed(FUZZ_SEED)
    @given(edit=edits())
    # finite values that overflow: a feature's z-score statistics, and a
    # note value the training loss
    @example(edit=overflow_cell("structured.csv", "ingest"))
    @example(edit=overflow_cell("notes.jsonl", "train"))
    # finite values beyond float32's range, which the networks' inputs are
    # cast to
    @example(edit=overflow_cell("structured.csv", "train", "1e39"))
    @example(edit=overflow_cell("structured.csv", "eval", "1e39"))
    @example(edit=overflow_cell("notes.jsonl", "train", "1e39"))
    @example(edit=overflow_cell("notes.jsonl", "eval", "1e39"))
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
            assert_valid_json(work / "out")
        assert code in (0, 2, 3, 4), (name, kind, command, code)

    @pytest.mark.parametrize("key, message", list(CHECKPOINT_OVERFLOWS.values()),
                             ids=list(CHECKPOINT_OVERFLOWS))
    def test_overflowing_checkpoint_exits_4_before_writing(self, bundle, tmp_path, capsys,
                                                           key, message):
        code, err = eval_with_first_value(bundle, tmp_path, capsys, key, 3e38)
        assert code == 4, err
        assert err.startswith("numeric failure:") and message in err, err

    @pytest.mark.parametrize("key", [key for key, _ in CHECKPOINT_OVERFLOWS.values()])
    def test_checkpoint_value_beyond_float32_exits_3_naming_it(self, bundle, tmp_path,
                                                               capsys, key):
        code, err = eval_with_first_value(bundle, tmp_path, capsys, key, 1e308)
        assert code == 3, err
        assert err.startswith("data error:") and repr(key) in err, err


def eval_with_first_value(bundle: Path, tmp_path: Path, capsys, key: str,
                          value: float) -> tuple[int, str]:
    """The exit code and stderr of ``careql eval`` on the bundle with the
    first value of checkpoint tensor ``key`` set to ``value``, after
    checking that it wrote no file."""
    payload = json.loads((bundle / "checkpoint.json").read_text())
    payload["tensors"][key]["values"][0] = value
    checkpoint = tmp_path / "checkpoint.json"
    checkpoint.write_text(json.dumps(payload))
    capsys.readouterr()
    code = main(["eval", "--config", str(bundle / "config.json"), "--data", str(bundle),
                 "--checkpoint", str(checkpoint), "--out", str(tmp_path / "out")])
    assert not [p for p in (tmp_path / "out").rglob("*") if p.is_file()]
    return code, capsys.readouterr().err


def test_editing_the_body_draws_the_same_examples():
    # two tests drawing under the fuzz test's settings and seed, whose
    # bodies differ by a comment and a statement, draw the same 2,500
    # examples; without the seed the derandomised draws follow the source
    drawn = {"first": [], "second": [], "unseeded_first": [], "unseeded_second": []}

    def first(edit):
        drawn[key].append(drawn_edit(edit))

    def second(edit):
        # a comment that the first body lacks
        record = drawn[key].append
        record(drawn_edit(edit))

    for key, test in (("first", first), ("second", second)):
        FUZZ_SETTINGS(seed(FUZZ_SEED)(given(edit=edits())(test)))()
    for key, test in (("unseeded_first", first), ("unseeded_second", second)):
        FUZZ_SETTINGS(given(edit=edits())(test))()
    digests = {key: hashlib.sha256("\n".join(examples).encode()).hexdigest()
               for key, examples in drawn.items()}
    assert len(drawn["first"]) == 2500
    assert digests["first"] == digests["second"]
    assert digests["unseeded_first"] != digests["unseeded_second"]
