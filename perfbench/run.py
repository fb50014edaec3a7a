"""The repository benchmark: run one workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload campaign_cold [--seed 2019]
        [--seconds 40] [--trace 0|1]

Each repetition is one fresh process (``workload.py``) making one timed
call; repetitions continue until ``--seconds`` have passed (at least
three, or two untraced/traced pairs with ``--trace 1``).  Every
repetition's output is checked before any number is reported: the
campaign summary digest and store accounting, the (kernel, policy)
cycle counts of ``paper_timing``, and for the campaigns a sample of
stored points re-run through the per-point oracle ``run_injection``.

A fixed pure-Python loop, the host probe, is timed before the first
repetition and after every one.  A shared host's speed can drift by
~1.8x over minutes (a 2-vCPU Xeon VM did, see the README), so every
repetition's times are scaled to a reference host speed by the mean of
the probes either side of it (see ``scaled``).  One line per repetition (a JSON
object with ``"log": "rep"``) records its start time, the probe, and
its numbers both raw and scaled.  The last line of standard output is
the result::

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones (medians over
the repetitions, of the scaled times); with ``--trace 1`` they are the
per-layer ones, from the traced repetitions.  See
``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import compileall
import datetime
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from layers import LAYERS, ROOT  # noqa: E402
from workload import (  # noqa: E402
    CAMPAIGN_SCALE,
    CAMPAIGN_TARGETS,
    CAMPAIGN_TRIALS,
    PREPARED_TRIALS,
    WORKLOADS,
    monotonic,
)

DEFAULT_SEED = 2019
MIN_REPS = 3
MIN_TRACED_PAIRS = 2
#: A repetition that takes longer than this is a hang, not a number.
REP_TIMEOUT_S = 150
#: Stored campaign points re-run through the per-point oracle per run.
SPOT_CHECKS = 16
#: 16 kernels x 4 Figure-8 policies x the fault targets.
GRID_STRATA = 16 * 4 * len(CAMPAIGN_TARGETS)
GRID_POINTS = GRID_STRATA * CAMPAIGN_TRIALS
PROBE_ITERATIONS = 800_000
#: Probe time at the reference host speed that end-to-end times are
#: scaled to (about the probe's median on a 2-vCPU Xeon VM).
PROBE_REFERENCE_S = 0.2


def host_probe() -> float:
    """Seconds a fixed pure-Python loop takes on this host right now.

    The loop does dict and integer work, as the simulator's inner loops
    do, and touches no code of the repository, so a change to the
    program cannot change it.
    """
    started = time.perf_counter()
    table = {}
    acc = 0
    for i in range(PROBE_ITERATIONS):
        key = i & 1023
        table[key] = table.get(key, 0) + i
        acc = (acc * 31 + table[key]) & 0xFFFF
    return time.perf_counter() - started


def scaled(seconds: float, probe_s: float) -> float:
    """``seconds`` measured while the probe took ``probe_s``, as they
    would read on a host that runs the probe in PROBE_REFERENCE_S."""
    return seconds * PROBE_REFERENCE_S / probe_s


class Bench:
    """One benchmark run: repetitions, checks and metrics."""

    def __init__(self, args, root: str) -> None:
        self.args = args
        self.root = root
        self.src = os.path.join(root, "src")
        with open(os.path.join(HERE, "expected.json"), encoding="utf-8") as handle:
            self.expected = json.load(handle)
        self.env = dict(os.environ, PYTHONPATH=self.src)
        self.work = ""
        self.prepared = None
        self.probes = []
        self.attempted = 0
        self.failed = 0
        self.problems = []

    # -- repetitions --------------------------------------------------- #
    def child(self, rep_dir: str, *extra: str) -> None:
        command = [
            sys.executable,
            os.path.join(HERE, "workload.py"),
            "--workload", self.args.workload,
            "--seed", str(self.args.seed),
            "--store", os.path.join(rep_dir, "campaign.sqlite"),
            "--out", os.path.join(rep_dir, "report.json"),
            *extra,
        ]
        # The result must be the last line of our stdout, so whatever a
        # child prints goes to stderr.  The child leads its own process
        # group, so a hung or interrupted repetition is killed together
        # with any pool workers it started, and nothing it started
        # outlives it to load the host during the next probe.
        child = subprocess.Popen(
            command,
            env=self.env,
            cwd=self.root,
            stdout=sys.stderr,
            start_new_session=True,
        )
        try:
            code = child.wait(timeout=REP_TIMEOUT_S)
        finally:
            try:
                os.killpg(child.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            child.wait()
        if code != 0:
            raise subprocess.CalledProcessError(code, command)

    def prepare(self) -> None:
        """Harness preparation of the resume workload (never timed)."""
        rep_dir = os.path.join(self.work, "prepare")
        os.mkdir(rep_dir)
        self.child(rep_dir, "--prepare")
        self.prepared = os.path.join(rep_dir, "campaign.sqlite")

    def rep(self, index: int, traced: bool) -> dict:
        rep_dir = os.path.join(self.work, f"rep-{index}")
        os.mkdir(rep_dir)
        extra = []
        if traced:
            extra = ["--trace-dir", os.path.join(rep_dir, "workers")]
            os.mkdir(extra[1])
        if self.prepared is not None:
            shutil.copyfile(
                self.prepared, os.path.join(rep_dir, "campaign.sqlite")
            )
        if not self.probes:
            self.probes.append(host_probe())
        started_utc = datetime.datetime.now(datetime.timezone.utc)
        spawned = monotonic()
        self.child(rep_dir, *extra)
        self.probes.append(host_probe())
        duration = monotonic() - spawned
        probe = (self.probes[-2] + self.probes[-1]) / 2
        with open(os.path.join(rep_dir, "report.json"), encoding="utf-8") as handle:
            report = json.load(handle)
        setup_raw = report["entered"] - spawned
        report.update(
            index=index,
            traced=traced,
            dir=rep_dir,
            duration=duration,
            probe_s=probe,
            setup_raw_s=setup_raw,
            points_per_raw_s=report["points"] / report["wall_s"],
            setup_s=scaled(setup_raw, probe),
            points_per_s=report["points"] / scaled(report["wall_s"], probe),
        )
        print(
            json.dumps(
                {
                    "log": "rep",
                    "workload": self.args.workload,
                    "seed": self.args.seed,
                    "rep": index,
                    "traced": traced,
                    "start_utc": started_utc.isoformat(timespec="milliseconds"),
                    "host.probe_s": round(probe, 6),
                    "points_per_raw_s": round(report["points_per_raw_s"], 3),
                    "setup_raw_s": round(report["setup_raw_s"], 6),
                    "points_per_s": round(report["points_per_s"], 3),
                    "setup_s": round(report["setup_s"], 6),
                    "peak_rss_mb": round(report["peak_rss_mb"], 3),
                }
            ),
            flush=True,
        )
        return report

    def repetitions(self):
        """Alternate reps (untraced / traced pairs with --trace 1) until
        ``--seconds`` have passed and the minimum count is reached."""
        traced_mode = self.args.trace == 1
        schedule = (False, True) if traced_mode else (False,)
        minimum = MIN_TRACED_PAIRS * 2 if traced_mode else MIN_REPS
        reps = []
        started = monotonic()
        while True:
            for traced in schedule:
                reps.append(self.rep(len(reps), traced))
            if len(reps) < minimum:
                continue
            cycle = statistics.median(r["duration"] for r in reps) * len(schedule)
            if monotonic() - started + cycle > self.args.seconds:
                return reps

    # -- correctness --------------------------------------------------- #
    def fail(self, count: int, problem: str) -> None:
        self.failed += count
        self.problems.append(problem)

    def check_campaign(self, reps) -> None:
        digest = self.expected["campaign_render_sha256"].get(str(self.args.seed))
        reference = digest or reps[0]["check"]["render_sha256"]
        for rep in reps:
            check = rep["check"]
            self.attempted += GRID_POINTS
            if check["quarantined"]:
                self.fail(check["quarantined"], f"rep {rep['index']}: quarantined points")
            if self.prepared:
                # Every prepared point resumes as a hit, and so does a
                # later point that repeats an earlier point's fault.
                hits_ok = check["store_hits"] >= PREPARED_TRIALS * GRID_STRATA
            else:
                hits_ok = check["store_hits"] == 0
            accounted = (
                hits_ok
                and check["points"] + check["quarantined"] == GRID_POINTS
                and check["store_hits"] + check["simulated"] == check["points"]
                and check["analytical"] + check["streamed"] + check["full"]
                == check["simulated"]
            )
            if not accounted:
                self.fail(GRID_POINTS, f"rep {rep['index']}: point accounting {check}")
            elif check["render_sha256"] != reference:
                self.fail(GRID_POINTS, f"rep {rep['index']}: summary digest mismatch")
        self.spot_check(reps[0]["dir"])

    def spot_check(self, rep_dir: str) -> None:
        """Re-run a seeded sample of stored points through the oracle."""
        sys.path.insert(0, self.src)
        from repro.campaign import FIGURE8_POLICY_VALUES, run_injection, sample_faults
        from repro.scenarios.spec import SimulationSpec
        from repro.store import ResultStore, spec_hash
        from repro.workloads import KERNEL_NAMES

        rng = random.Random(f"perfbench-spot:{self.args.seed}")
        with ResultStore(os.path.join(rep_dir, "campaign.sqlite")) as store:
            for _ in range(SPOT_CHECKS):
                kernel = rng.choice(KERNEL_NAMES)
                policy = rng.choice(FIGURE8_POLICY_VALUES)
                target = rng.choice(CAMPAIGN_TARGETS)
                start = rng.randrange(CAMPAIGN_TRIALS)
                (fault,) = sample_faults(
                    kernel, CAMPAIGN_SCALE, policy, 1,
                    seed=self.args.seed, start=start, target=target,
                )
                spec = SimulationSpec(
                    kernel=kernel, scale=CAMPAIGN_SCALE, policy=policy, fault=fault
                )
                oracle = json.loads(json.dumps(run_injection(spec).payload()))
                if store.get(spec_hash(spec)) != oracle:
                    self.fail(
                        1, f"stored point {kernel}/{policy}/{target}#{start} != oracle"
                    )

    def check_timing(self, reps) -> None:
        expected = self.expected["paper_timing_cycles"]
        for rep in reps:
            cycles = rep["check"]["cycles"]
            self.attempted += len(expected)
            wrong = sorted(
                key for key in set(expected) | set(cycles)
                if cycles.get(key) != expected.get(key)
            )
            if wrong:
                self.fail(len(wrong), f"rep {rep['index']}: cycles differ at {wrong}")

    # -- metrics ------------------------------------------------------- #
    @staticmethod
    def end_to_end(reps) -> dict:
        def median(key):
            return statistics.median(rep[key] for rep in reps)

        return {
            "points_per_s": {"value": median("points_per_s"), "unit": "1/s"},
            "setup_s": {"value": median("setup_s"), "unit": "s"},
            "peak_rss_mb": {"value": median("peak_rss_mb"), "unit": "MB"},
        }

    def per_layer(self, reps) -> dict:
        traced = [rep for rep in reps if rep["traced"]]
        untraced = [rep for rep in reps if not rep["traced"]]
        first = traced[0]
        for rep in traced[1:]:
            calls = {name: entry[0] for name, entry in rep["layers"].items()}
            if calls != {name: entry[0] for name, entry in first["layers"].items()}:
                # Not an output error: which pool worker takes a job is up
                # to the OS.  test_perfbench.py guards exact repetition.
                print(
                    f"perfbench: rep {rep['index']}: layer call counts differ "
                    f"from rep {first['index']}",
                    file=sys.stderr,
                )

        def seconds(name):
            return statistics.median(
                rep["layers"].get(name, [0, 0.0])[1] for rep in traced
            )

        metrics = {}
        for name, _module, _attribute in LAYERS:
            calls = first["layers"].get(name, [0, 0.0])[0]
            metrics[f"{name}_calls"] = {"value": calls, "unit": "count"}
            metrics[f"{name}_s"] = {"value": seconds(name), "unit": "s"}
        metrics["engine.self_s"] = {"value": seconds(ROOT), "unit": "s"}

        check = first["check"]
        simulated = check.get("simulated", 0)
        for mode in ("analytical", "streamed", "full"):
            metrics[f"triage.{mode}_points"] = {"value": check.get(mode, 0), "unit": "count"}
        metrics["triage.analytical_share"] = {
            "value": check.get("analytical", 0) / simulated if simulated else 0.0,
            "unit": "ratio",
        }
        metrics["store.hits"] = {"value": check.get("store_hits", 0), "unit": "count"}
        timing_s = seconds("pipeline.timing_run")
        instructions = check.get("instructions", 0)
        metrics["pipeline.sim_cycles"] = {
            "value": sum(check.get("cycles", {}).values()),
            "unit": "cycles",
        }
        metrics["pipeline.sim_instr_per_s"] = {
            "value": instructions / timing_s if timing_s else 0.0,
            "unit": "instr/s",
        }
        untraced_wall = statistics.median(rep["wall_s"] for rep in untraced)
        traced_wall = statistics.median(rep["wall_s"] for rep in traced)
        metrics["trace.overhead_share"] = {
            "value": (traced_wall - untraced_wall) / untraced_wall,
            "unit": "ratio",
        }
        metrics["trace.worker_reports"] = {
            "value": first["worker_reports"],
            "unit": "count",
        }
        metrics["host.probe_s"] = {
            "value": statistics.median(rep["probe_s"] for rep in reps),
            "unit": "s",
        }
        return metrics

    def run(self) -> dict:
        compileall.compile_dir(self.src, quiet=1)
        work_root = os.path.join(self.root, ".perfbench_work")
        os.makedirs(work_root, exist_ok=True)
        self.work = tempfile.mkdtemp(prefix="run-", dir=work_root)
        try:
            if self.args.workload == "campaign_resume_pooled":
                self.prepare()
            reps = self.repetitions()
            if self.args.workload == "paper_timing":
                self.check_timing(reps)
            else:
                self.check_campaign(reps)
            if self.args.trace:
                metrics = self.per_layer(reps)
            else:
                metrics = self.end_to_end(reps)
        finally:
            shutil.rmtree(self.work, ignore_errors=True)
            try:
                os.rmdir(work_root)
            except OSError:
                pass
        for problem in self.problems:
            print(f"perfbench: {problem}", file=sys.stderr)
        return {
            "correct": self.failed == 0,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": metrics,
        }


def main() -> int:
    parser = argparse.ArgumentParser(description="Run one benchmark workload.")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "repro", "__init__.py")):
        print(
            "perfbench: run from the root of a repository checkout "
            "(src/repro is missing here)",
            file=sys.stderr,
        )
        return 2
    print(json.dumps(Bench(args, root).run()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
