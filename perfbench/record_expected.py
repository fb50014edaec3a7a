"""Regenerate ``expected.json``, the outputs the benchmark checks against.

Usage, from the root of a checkout::

    PYTHONPATH=src python3 perfbench/record_expected.py [--seed 2019]

* ``campaign_render_sha256[seed]``: sha256 of ``CampaignResult.render()``
  for the benchmark's campaign grid.  It is recorded from the batched
  engine and accepted only if the per-point oracle path
  (``replay_mode="point"``, every point through ``run_injection``)
  renders byte-identically.  Both campaign workloads must reproduce it:
  the resumed, pooled run renders the same summary as the cold one.
* ``paper_timing_cycles``: cycles of every (kernel, policy) run of
  ``ExperimentRunner(scale=DEFAULT_CAMPAIGN_SCALE).run_all()``, checked
  against the seed timing engine ``repro.pipeline.reference_timing``.

Only rerun this when a change is meant to alter these outputs.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os

from workload import CAMPAIGN_TRIALS, campaign_config

HERE = os.path.dirname(os.path.abspath(__file__))


def campaign_digest(seed: int) -> str:
    from repro.campaign import run_campaign

    config = campaign_config(seed, trials=CAMPAIGN_TRIALS)
    digests = {
        mode: hashlib.sha256(
            run_campaign(dataclasses.replace(config, replay_mode=mode))
            .render()
            .encode()
        ).hexdigest()
        for mode in ("batched", "point")
    }
    if digests["batched"] != digests["point"]:
        raise SystemExit(f"batched and point campaigns disagree: {digests}")
    return digests["batched"]


def timing_cycles() -> dict:
    from repro.core.policies import make_policy
    from repro.experiments import DEFAULT_CAMPAIGN_SCALE
    from repro.experiments.runner import ExperimentRunner, cached_kernel_trace
    from repro.pipeline.config import CoreConfig
    from repro.pipeline.reference_timing import ReferenceTimingPipeline
    from repro.simulation import build_hierarchy

    run_set = ExperimentRunner(scale=DEFAULT_CAMPAIGN_SCALE).run_all()
    cycles = {}
    for kernel, per_policy in sorted(run_set.results.items()):
        _program, trace = cached_kernel_trace(kernel, DEFAULT_CAMPAIGN_SCALE)
        for policy, result in sorted(per_policy.items()):
            policy_object = make_policy(policy)
            core = CoreConfig().with_policy(policy_object)
            reference = ReferenceTimingPipeline(
                policy_object, build_hierarchy(core), core.pipeline
            ).run(trace)
            if reference.stats.cycles != result.cycles:
                raise SystemExit(f"{kernel}/{policy}: engines disagree on cycles")
            cycles[f"{kernel}/{policy}"] = result.cycles
    return cycles


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=2019)
    args = parser.parse_args()
    expected = {
        "campaign_render_sha256": {str(args.seed): campaign_digest(args.seed)},
        "paper_timing_cycles": timing_cycles(),
    }
    with open(os.path.join(HERE, "expected.json"), "w", encoding="utf-8") as handle:
        json.dump(expected, handle, indent=1, sort_keys=True)
        handle.write("\n")


if __name__ == "__main__":
    main()
