"""One golden artefact set per ``(kernel, scale)`` on the campaign path.

A campaign executes each kernel exactly once, with the lean golden pass
(:func:`repro.campaign.lean_sim.golden_pass`): the sampling population
(:func:`repro.campaign.sampling.kernel_fault_space`) and every batched
replay group read that one run, and each cache geometry's per-word
timelines are walked once and memoised on it.  These tests pin:

* the golden-derived fault space against the historical derivation from
  the functional simulator's trace, on every kernel at two scales;
* the memoised timelines against dedicated ``build_timelines`` walks,
  for arbitrary word subsets under write-back and write-through;
* the call counts of a serial campaign (no functional run, one golden
  pass per kernel, one timeline walk per kernel and geometry);
* phase accounting: golden time is booked once, never also as sampling.
"""

from __future__ import annotations

import collections
import time

import pytest
from hypothesis import given, settings, strategies as st

from repro.campaign import CampaignConfig, lean_sim, replay, run_campaign, sampling
from repro.campaign import timeline as timeline_module
from repro.campaign.sampling import KernelFaultSpace, kernel_fault_space
from repro.campaign.timeline import build_timelines, golden_timelines
from repro.campaign.triage import geometry_for
from repro.functional import simulator
from repro.functional.simulator import run_program
from repro.scenarios.spec import SimulationSpec
from repro.telemetry import analyze, metrics
from repro.telemetry.trace import Telemetry
from repro.workloads import KERNEL_NAMES, build_kernel


def _space_from_trace(trace) -> KernelFaultSpace:
    """The historical fault-space derivation, from a functional trace."""
    seen = set()
    first_touch = []
    distinct_before = [0]
    for dyn in trace.instructions:
        if dyn.address is None:
            continue
        word = dyn.address & ~0x3
        if word not in seen:
            seen.add(word)
            first_touch.append(word)
        distinct_before.append(len(seen))
    return KernelFaultSpace(
        mem_ops=len(distinct_before) - 1,
        first_touch=tuple(first_touch),
        distinct_before=tuple(distinct_before),
    )


def _geometry(policy: str):
    spec = SimulationSpec(kernel="rspeed", scale=0.1, policy=policy)
    return geometry_for(spec.core_config().resolved_hierarchy_config().l1d)


WRITE_BACK = _geometry("laec")
WRITE_THROUGH = _geometry("wt-parity")


@pytest.fixture
def fresh_golden_caches(monkeypatch):
    """Empty golden-run and fault-space caches for one test."""
    monkeypatch.setattr(replay, "_LEAN_GOLDEN_CACHE", {})
    monkeypatch.setattr(sampling, "_SPACE_CACHE", {})


class TestFaultSpaceOracle:
    @pytest.mark.parametrize("scale", [0.1, 0.05])
    @pytest.mark.parametrize("kernel", KERNEL_NAMES)
    def test_golden_space_equals_functional_trace_space(
        self, kernel, scale, fresh_golden_caches
    ):
        trace = run_program(build_kernel(kernel, scale=scale))
        assert kernel_fault_space(kernel, scale) == _space_from_trace(trace)


class TestTimelineMemo:
    def test_geometries_differ_in_write_policy(self):
        assert WRITE_BACK.write_back and not WRITE_THROUGH.write_back
        assert WRITE_BACK.line_bits == WRITE_THROUGH.line_bits

    GOLDEN = lean_sim.golden_pass(build_kernel("rspeed", scale=0.05))
    #: Touched words, untouched siblings on touched lines, and words on
    #: lines the run never touches.
    CANDIDATES = sorted(
        {wa + delta for wa in GOLDEN.op_wa for delta in (-4, 0, 4)}
        | {0x7FFF_0000, 0x7FFF_0004}
    )

    @given(
        first=st.lists(st.sampled_from(CANDIDATES), max_size=12, unique=True),
        second=st.lists(st.sampled_from(CANDIDATES), max_size=12, unique=True),
        write_back=st.booleans(),
    )
    @settings(max_examples=60, derandomize=True, deadline=None)
    def test_memo_restricted_to_subset_equals_dedicated_walk(
        self, first, second, write_back
    ):
        geometry = WRITE_BACK if write_back else WRITE_THROUGH
        golden = self.GOLDEN
        golden.timeline_memo.clear()
        # The first request builds the memo; the second exercises both
        # memo hits and the lazy walk of words the run never touched.
        for words in (first, second):
            memo = golden_timelines(golden, geometry, words)
            expected = build_timelines(golden, geometry, words)
            assert {wa: memo[wa] for wa in words} == expected


class TestCampaignGoldenCalls:
    CONFIG = dict(
        kernels=("rspeed", "canrdr"),
        policies=("laec", "wt-parity"),
        targets=("dl1", "l2"),
        scale=0.1,
        trials=6,
        batch=3,
        seed=2019,
        retry_backoff=0.0,
    )

    def test_serial_campaign_executes_each_kernel_once(
        self, monkeypatch, fresh_golden_caches
    ):
        calls = collections.Counter()
        walks = collections.Counter()

        def counted(name, func):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return func(*args, **kwargs)

            return wrapper

        def counted_walk(golden, geometry, words):
            walks[(golden.program.name, geometry)] += 1
            return original_walk(golden, geometry, words)

        original_walk = timeline_module.build_timelines
        monkeypatch.setattr(
            simulator, "run_program", counted("run_program", simulator.run_program)
        )
        monkeypatch.setattr(
            simulator.FunctionalSimulator,
            "run",
            counted("FunctionalSimulator.run", simulator.FunctionalSimulator.run),
        )
        monkeypatch.setattr(
            lean_sim, "golden_pass", counted("golden_pass", lean_sim.golden_pass)
        )
        monkeypatch.setattr(timeline_module, "build_timelines", counted_walk)

        result = run_campaign(CampaignConfig(**self.CONFIG))

        assert result.points == 2 * 2 * 2 * 6
        assert calls["run_program"] == 0
        assert calls["FunctionalSimulator.run"] == 0
        assert calls["golden_pass"] == 2
        names = {build_kernel(k, scale=0.1).name for k in self.CONFIG["kernels"]}
        assert set(walks) == {
            (name, geometry)
            for name in names
            for geometry in (WRITE_BACK, WRITE_THROUGH)
        }
        assert set(walks.values()) == {1}


class TestPhaseAccounting:
    GOLDEN_DELAY_S = 0.3

    def test_phase_sums_fit_in_the_campaign_span(
        self, monkeypatch, tmp_path, fresh_golden_caches
    ):
        """A slow golden pass makes any double booking visible: counted
        under both "golden" and "sampling", the phases would outgrow the
        campaign span they are part of."""
        original = lean_sim.golden_pass

        def slow_golden_pass(*args, **kwargs):
            time.sleep(self.GOLDEN_DELAY_S)
            return original(*args, **kwargs)

        monkeypatch.setattr(lean_sim, "golden_pass", slow_golden_pass)
        metrics.reset_registry()
        path = tmp_path / "phases.trace"
        try:
            run_campaign(
                CampaignConfig(
                    kernels=("rspeed", "canrdr"),
                    policies=("laec",),
                    scale=0.1,
                    trials=4,
                    batch=2,
                    seed=2019,
                ),
                telemetry=Telemetry(path),
            )
            phases = {
                dict(metric.labels)["phase"]: metric.sum
                for metric in metrics.registry()
                if metric.name == metrics.PHASE_METRIC
            }
        finally:
            metrics.reset_registry()
        (span,) = analyze.TraceFile(path).spans_named("campaign")
        campaign_s = float(span["t_end"]) - float(span["t_start"])
        assert phases["golden"] >= 2 * self.GOLDEN_DELAY_S
        assert phases["sampling"] < self.GOLDEN_DELAY_S
        assert sum(phases.values()) <= campaign_s
