import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def run(cwd: Path, *flags: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *flags], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def test_result_line_reports_declared_metrics():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    for trace, section in (("0", "end_to_end"), ("1", "per_layer")):
        proc = run(ROOT, "--workload", "train_cql_multimodal", "--seed", "9",
                   "--seconds", "0.1", "--trace", trace)
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0
        assert result["attempted"] == 1 + int(trace)
        assert {name: m["unit"] for name, m in result["metrics"].items()} == \
            {m["name"]: m["unit"] for m in declared[section]}


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(tmp_path, "--workload", "train_cql_multimodal", "--seed", "1",
               "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
