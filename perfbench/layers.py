"""Outside-in layer tracer for the benchmark's traced runs.

The benchmark never edits the program under ``src/``: a traced run
replaces the public entry point of each layer with a timing wrapper,
from here, before the timed call starts.  Every module that imported the
function by name gets the wrapper too, so calls are counted wherever
they come from.

Each wrapper records a call count and the call's *self* time: its
duration minus the time spent in nested wrapped calls.  The timed call
itself is the root (``engine``), so ``engine`` self time is the part of
the timed call that no wrapped layer accounts for.

Process-pool workers are forked from the traced process, so they
inherit the wrappers.  After the fork each worker clears the totals it
inherited and, when it exits, writes its own totals to
``<worker_dir>/worker-<pid>.json``; :func:`merge_totals` adds them to
the parent's.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time
from multiprocessing import util as mp_util
from typing import Dict, List

#: (layer name, module, attribute) — the public entry point of each layer.
#: ``Class.method`` attributes are wrapped on the class.
LAYERS = (
    ("functional.run_program", "repro.functional.simulator", "run_program"),
    ("sampling.sample_faults", "repro.campaign.sampling", "sample_faults"),
    ("lean_sim.golden_pass", "repro.campaign.lean_sim", "golden_pass"),
    ("lean_sim.resume_faulty", "repro.campaign.lean_sim", "resume_faulty"),
    ("timeline.build_timelines", "repro.campaign.timeline", "build_timelines"),
    ("triage.triage_dl1", "repro.campaign.triage", "triage_dl1"),
    ("triage.triage_l2", "repro.campaign.triage", "triage_l2"),
    ("replay.run_injection_batch", "repro.campaign.replay", "run_injection_batch"),
    ("store.spec_hash", "repro.store.canonical", "spec_hash"),
    ("store.put_many", "repro.store.result_store", "ResultStore.put_many"),
    ("store.get_many", "repro.store.result_store", "ResultStore.get_many"),
    ("store.merge", "repro.store.sharding", "ShardMerger.merge"),
    ("pipeline.timing_run", "repro.pipeline.timing", "TimingPipeline.run"),
    # Time the campaign process spends blocked on pool futures.
    ("engine.parent_wait", "concurrent.futures", "Future.result"),
)

#: Name of the root span: the timed call itself.
ROOT = "engine"

#: Layers whose totals describe the parent process only.
PARENT_ONLY = (ROOT, "engine.parent_wait")


class LayerTracer:
    """Call counts and self times per layer, for one process."""

    def __init__(self, worker_dir: str) -> None:
        self.worker_dir = worker_dir
        #: layer name -> [calls, self seconds]
        self.totals: Dict[str, List[float]] = {}
        self._stack: List[float] = []

    def wrap(self, name: str, func):
        """A wrapper of ``func`` that books its calls under ``name``."""
        totals = self.totals
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(func)
        def traced(*args, **kwargs):
            stack.append(0.0)
            started = clock()
            try:
                return func(*args, **kwargs)
            finally:
                elapsed = clock() - started
                nested = stack.pop()
                if stack:
                    stack[-1] += elapsed
                entry = totals.setdefault(name, [0, 0.0])
                entry[0] += 1
                entry[1] += elapsed - nested

        return traced

    def install(self) -> None:
        """Wrap every layer entry point and arm the worker hand-off."""
        for name, module_name, attribute in LAYERS:
            module = importlib.import_module(module_name)
            if "." in attribute:
                class_name, method = attribute.split(".")
                owner = getattr(module, class_name)
                setattr(owner, method, self.wrap(name, owner.__dict__[method]))
                continue
            original = getattr(module, attribute)
            traced = self.wrap(name, original)
            for loaded_name, loaded in list(sys.modules.items()):
                if loaded_name.split(".")[0] != "repro":
                    continue
                if getattr(loaded, attribute, None) is original:
                    setattr(loaded, attribute, traced)
        mp_util.register_after_fork(self, LayerTracer._forked)

    def _forked(self) -> None:
        # The worker starts from a copy of the parent's totals and open
        # spans; it reports only what it does itself.
        self.totals.clear()
        self._stack.clear()
        mp_util.Finalize(None, self.dump_worker, exitpriority=100)

    def dump_worker(self) -> None:
        path = os.path.join(self.worker_dir, f"worker-{os.getpid()}.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.totals, handle)

    def run_root(self, call):
        """Run the timed call as the root span and return its result."""
        return self.wrap(ROOT, call)()


def merge_totals(parent: Dict[str, List[float]], worker_dir: str):
    """Parent totals plus every worker's, and the number of workers."""
    merged = {name: list(entry) for name, entry in parent.items()}
    workers = 0
    for entry_name in sorted(os.listdir(worker_dir)):
        if not entry_name.startswith("worker-"):
            continue
        workers += 1
        with open(os.path.join(worker_dir, entry_name), encoding="utf-8") as handle:
            for name, (calls, seconds) in json.load(handle).items():
                if name in PARENT_ONLY:
                    continue
                entry = merged.setdefault(name, [0, 0.0])
                entry[0] += calls
                entry[1] += seconds
    return merged, workers
