"""Guards on the benchmark's traced run (slow: run with ``-m perf``).

* Exact-count guard: two traced runs of a workload report identical
  layer call counts, triage mode counts, store hits, worker reports and
  simulated cycles.  A later change may claim a count as evidence only
  because it repeats exactly.
* Inertness: a traced repetition produces exactly the outputs of an
  untraced one (campaign summary digest and accounting, or every
  (kernel, policy) cycle count), so the layer wrappers change nothing.

Run from the root of the repository::

    PYTHONPATH=src python -m pytest perfbench -m perf -q
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

pytestmark = pytest.mark.perf

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("campaign_cold", "campaign_resume_pooled", "paper_timing")
EXACT_SUFFIXES = ("_calls", "_points")
EXACT_NAMES = ("store.hits", "pipeline.sim_cycles", "trace.worker_reports")


def _python(*args: str) -> str:
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    done = subprocess.run(
        [sys.executable, *args],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        check=True,
        timeout=170,
    )
    return done.stdout


def _traced_run(workload: str) -> dict:
    stdout = _python(
        os.path.join(HERE, "run.py"),
        "--workload", workload,
        "--seconds", "1",
        "--trace", "1",
    )
    return json.loads(stdout.strip().splitlines()[-1])


def _exact(result: dict) -> dict:
    return {
        name: metric["value"]
        for name, metric in result["metrics"].items()
        if name.endswith(EXACT_SUFFIXES) or name in EXACT_NAMES
    }


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat_exactly(workload):
    first = _traced_run(workload)
    second = _traced_run(workload)
    for result in (first, second):
        assert result["correct"] and result["failed"] == 0
    assert _exact(first) == _exact(second)
    assert _exact(first)["trace.worker_reports"] == (
        2 if workload == "campaign_resume_pooled" else 0
    )


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tracing_is_inert(workload, tmp_path):
    prepared = tmp_path / "prepared.sqlite"
    if workload == "campaign_resume_pooled":
        _python(
            os.path.join(HERE, "workload.py"),
            "--workload", workload, "--seed", "2019",
            "--store", str(prepared), "--out", os.devnull, "--prepare",
        )
    checks = []
    for traced in (False, True):
        store = tmp_path / f"traced-{traced}.sqlite"
        if prepared.exists():
            store.write_bytes(prepared.read_bytes())
        out = tmp_path / f"traced-{traced}.json"
        extra = []
        if traced:
            (tmp_path / "workers").mkdir()
            extra = ["--trace-dir", str(tmp_path / "workers")]
        _python(
            os.path.join(HERE, "workload.py"),
            "--workload", workload, "--seed", "2019",
            "--store", str(store), "--out", str(out), *extra,
        )
        checks.append(json.loads(out.read_text())["check"])
    assert checks[0] == checks[1]
