"""Two traced runs with the same seed count the same work and answer alike.

Run with ``python -m pytest perfbench/test_determinism.py`` from the
checkout root (about a minute).  Each run uses another
``PYTHONHASHSEED``, so a count that leans on set or dict order fails
here rather than looking like a change in a later comparison.
"""

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def traced_run(workload, hash_seed):
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", "1"],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-3000:]
    info_line, result_line = proc.stdout.strip().splitlines()[-2:]
    result = json.loads(result_line)
    assert result["correct"]
    counts = {
        name: metric["value"]
        for name, metric in result["metrics"].items()
        if metric["unit"] == "count"
    }
    return counts, json.loads(info_line)["perfbench"]["answers"]


@pytest.mark.parametrize(
    "workload", ["engine", "batch_cold", "serve_warm", "serve_mixed"]
)
def test_same_seed_same_counts_and_answers(workload):
    first_counts, first_answers = traced_run(workload, 1)
    second_counts, second_answers = traced_run(workload, 2)
    assert first_counts == second_counts
    assert first_answers == second_answers
    assert any(first_counts.values())
