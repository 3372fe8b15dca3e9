import filecmp
import hashlib
import io
from contextlib import redirect_stdout

import numpy as np
import pytest

import spans
import workloads
from careql import cli


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_every_declared_span_fires_and_operations_check(name, tmp_path):
    wl = workloads.WORKLOADS[name](seed=5, work=tmp_path / "work")
    tracer = spans.Tracer()
    restore = spans.instrument(tracer)
    try:
        out = wl.run(0)
    finally:
        restore()
    fired = {s.name for s in tracer.spans}
    assert wl.SPANS <= fired, f"never fired: {sorted(wl.SPANS - fired)}"
    assert wl.check(0, out) == []
    assert wl.check(1, wl.run(1)) == []


def dataset_digest(data) -> str:
    h = hashlib.sha256()
    for ep in data.episodes:
        h.update(ep.episode_id.encode())
        for tr in ep.transitions:
            h.update(tr.obs.structured.tobytes())
            h.update(tr.obs.note_embedding.tobytes())
            h.update(np.array([tr.action.flat, tr.reward, tr.done]).tobytes())
        h.update(ep.transitions[-1].next_obs.structured.tobytes())
    return h.hexdigest()


def test_task_inputs_follow_the_seed():
    digest = lambda seed: dataset_digest(workloads.make_task(seed, 30)[2])
    assert digest(4) == digest(4)
    assert digest(4) != digest(5)


def test_pipeline_inputs_follow_the_seed(tmp_path):
    def synth(seed, out):
        config = workloads.write_pipeline_config(tmp_path / f"config{seed}.json", seed, 40)
        with redirect_stdout(io.StringIO()):
            assert cli.main(["synth", "--config", str(config), "--out", str(out)]) == 0
        return out / "structured.csv"

    first, again, other = synth(2, tmp_path / "a"), synth(2, tmp_path / "b"), synth(3, tmp_path / "c")
    assert filecmp.cmp(first, again, shallow=False)
    assert not filecmp.cmp(first, other, shallow=False)
