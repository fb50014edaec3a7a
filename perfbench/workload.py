"""One timed call of one benchmark workload, in a fresh process.

``run.py`` starts this script once per repetition, so every timed call
is cold: new interpreter, empty in-process caches.  The script builds
the workload's inputs, makes the timed call, and writes a JSON report to
``--out``: when the timed call started (``CLOCK_MONOTONIC``, which the
parent compares with the moment it started this process), how long it
took, peak memory, and the outputs ``run.py`` checks for correctness.

With ``--trace-dir`` the layer wrappers of :mod:`layers` are installed
before the timed call, and the report carries per-layer totals of this
process and of every pool worker it forked.

The campaign grid is ROADMAP's all-kernel sweep: 16 kernels x the 4
Figure-8 policies x targets dl1,l2 at scale 0.1, batch 12, 24 trials a
stratum (3 072 points).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import resource
import time

CAMPAIGN_SCALE = 0.1
CAMPAIGN_TARGETS = ("dl1", "l2")
CAMPAIGN_TRIALS = 24
CAMPAIGN_BATCH = 12
#: Trials per stratum the resume workload finds already stored.
PREPARED_TRIALS = CAMPAIGN_TRIALS // 2
POOL_WORKERS = 2

WORKLOADS = ("campaign_cold", "campaign_resume_pooled", "paper_timing")


def monotonic() -> float:
    """The clock shared by this process and ``run.py``."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def campaign_config(seed: int, *, trials: int, workers=None):
    from repro.campaign import FIGURE8_POLICY_VALUES, CampaignConfig
    from repro.workloads import KERNEL_NAMES

    return CampaignConfig(
        kernels=tuple(KERNEL_NAMES),
        policies=FIGURE8_POLICY_VALUES,
        targets=CAMPAIGN_TARGETS,
        scale=CAMPAIGN_SCALE,
        trials=trials,
        batch=CAMPAIGN_BATCH,
        seed=seed,
        workers=workers,
    )


def prepare_resume_store(seed: int, store_path: str) -> None:
    """Fill a store with the first half of every stratum's trials."""
    from repro.campaign import run_campaign
    from repro.store import ResultStore

    with ResultStore(store_path) as store:
        run_campaign(campaign_config(seed, trials=PREPARED_TRIALS), store=store)


def campaign_call(workload: str, seed: int, store_path: str):
    """Inputs for a campaign workload: (timed call, report of its result)."""
    from repro.campaign import run_campaign
    from repro.store import ResultStore

    pooled = workload == "campaign_resume_pooled"
    config = campaign_config(
        seed, trials=CAMPAIGN_TRIALS, workers=POOL_WORKERS if pooled else None
    )
    store = ResultStore(store_path)

    def call():
        return run_campaign(config, store=store, resume=pooled)

    def report(result):
        store.close()
        stats = result.stats
        return result.points, {
            "render_sha256": hashlib.sha256(result.render().encode()).hexdigest(),
            "points": result.points,
            "store_hits": result.store_hits,
            "simulated": result.simulated,
            "quarantined": result.quarantined_points,
            "analytical": stats.analytical,
            "streamed": stats.streamed,
            "full": stats.full,
        }

    return call, report


def timing_call(seed: int):
    """Inputs for ``paper_timing``: the seed fixes the kernel order."""
    from repro.experiments import DEFAULT_CAMPAIGN_SCALE
    from repro.experiments.runner import ExperimentRunner
    from repro.workloads import KERNEL_NAMES

    kernels = list(KERNEL_NAMES)
    random.Random(seed).shuffle(kernels)
    runner = ExperimentRunner(scale=DEFAULT_CAMPAIGN_SCALE, kernels=kernels)

    def report(run_set):
        cycles = {}
        instructions = 0
        for kernel, per_policy in run_set.results.items():
            for policy, result in per_policy.items():
                cycles[f"{kernel}/{policy}"] = result.cycles
                instructions += result.instructions
        return len(cycles), {"cycles": cycles, "instructions": instructions}

    return runner.run_all, report


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--store", required=True, help="campaign store file")
    parser.add_argument("--out", required=True, help="JSON report file")
    parser.add_argument("--trace-dir", help="trace layers; worker totals land here")
    parser.add_argument(
        "--prepare",
        action="store_true",
        help="only fill --store with the resume workload's stored half",
    )
    args = parser.parse_args()

    if args.prepare:
        prepare_resume_store(args.seed, args.store)
        return

    tracer = None
    if args.trace_dir:
        from layers import LayerTracer

        tracer = LayerTracer(args.trace_dir)
        tracer.install()
    if args.workload == "paper_timing":
        call, report = timing_call(args.seed)
    else:
        call, report = campaign_call(args.workload, args.seed, args.store)

    entered = monotonic()
    started = time.perf_counter()
    result = tracer.run_root(call) if tracer is not None else call()
    wall_s = time.perf_counter() - started

    points, check = report(result)
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    largest_child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    out = {
        "entered": entered,
        "wall_s": wall_s,
        "peak_rss_mb": (own + largest_child) / 1024.0,
        "points": points,
        "check": check,
    }
    if tracer is not None:
        from layers import merge_totals

        out["layers"], out["worker_reports"] = merge_totals(
            tracer.totals, args.trace_dir
        )
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(out, handle)


if __name__ == "__main__":
    main()
