"""The parallel experiment runner: equivalence, caching, fault capture."""

import os

import pytest

from repro.harness import experiments as E
from repro.harness.runner import (ExperimentRunner, MissingRunError, RunSpec)
from repro.timing.config import V2_CMP
from repro.timing.run import set_trace_cache_dir

_SPECS = [RunSpec("mpenc", "base", 1),
          RunSpec("mpenc", "V2-CMP", 2),
          RunSpec("mpenc", "V4-CMP", 4)]


@pytest.fixture(autouse=True)
def _no_disk_cache():
    set_trace_cache_dir(None)
    yield
    set_trace_cache_dir(None)


def _cycles(outcomes):
    return {s: o.result.cycles for s, o in outcomes.items() if o.ok}


class TestEquivalence:
    def test_parallel_matches_serial(self, tmp_path):
        serial = _cycles(ExperimentRunner(jobs=1).run(_SPECS))
        parallel = _cycles(ExperimentRunner(
            jobs=2, cache_dir=tmp_path).run(_SPECS))
        assert serial == parallel
        assert len(serial) == len(_SPECS)

    def test_warm_rerun_served_from_result_cache(self, tmp_path):
        first = ExperimentRunner(jobs=2, cache_dir=tmp_path)
        first.run(_SPECS)
        warm = ExperimentRunner(jobs=2, cache_dir=tmp_path)
        out = warm.run(_SPECS)
        assert all(o.result_cached for o in out.values())
        # zero trace regenerations, by the merged phase profile
        gen = warm.profiler.phases.get("trace_generation")
        assert gen is None or gen.calls == 0
        assert _cycles(out) == _cycles(first.outcomes)

    def test_duplicate_specs_deduped(self):
        r = ExperimentRunner(jobs=1)
        out = r.run([_SPECS[0], _SPECS[0], _SPECS[0]])
        assert len(out) == 1
        assert out[_SPECS[0]].ok

    def test_lane_swept_config_resolves_by_name(self):
        r = ExperimentRunner(jobs=1)
        out = r.run([RunSpec("mpenc", "base-2lane", 1)])
        assert out[RunSpec("mpenc", "base-2lane", 1)].ok


class TestFailureCapture:
    def test_bad_app_is_structured_failure(self):
        r = ExperimentRunner(jobs=1, retries=1)
        out = r.run([RunSpec("nosuchapp", "base", 1), _SPECS[0]])
        bad = out[RunSpec("nosuchapp", "base", 1)]
        assert not bad.ok
        assert bad.failure.error_type == "KeyError"
        assert bad.failure.attempts == 2   # initial + 1 retry
        assert "nosuchapp" in bad.failure.message
        assert bad.failure.traceback
        assert out[_SPECS[0]].ok   # the healthy spec still ran
        assert "FAILED" in r.report()

    def test_zero_timeout_rejected(self):
        # `_alarm` treats 0 as "no alarm" (signal semantics), so a
        # `timeout=0` typo used to silently run unbounded; now an error
        for bad in (0, 0.0, -1):
            with pytest.raises(ValueError, match="timeout must be > 0"):
                ExperimentRunner(timeout=bad)
        ExperimentRunner(timeout=None)   # explicit "no limit" still fine

    def test_timeout_is_captured(self):
        # 1ms: no run can build + simulate inside it, so the alarm
        # always fires (mxm end-to-end is ~30ms, close enough to 50ms
        # that a larger timeout is flaky on a fast machine)
        r = ExperimentRunner(jobs=1, retries=0, timeout=0.001)
        out = r.run([RunSpec("mxm", "base", 1)])
        f = out[RunSpec("mxm", "base", 1)].failure
        assert f is not None
        assert f.error_type == "RunTimeout"

    def test_worker_crash_quarantined(self, tmp_path, monkeypatch):
        monkeypatch.setenv("VLT_RUNNER_TEST_CRASH", "mpenc:V2-CMP")
        r = ExperimentRunner(jobs=2, cache_dir=tmp_path, retries=1)
        out = r.run(_SPECS)
        crashed = out[RunSpec("mpenc", "V2-CMP", 2)]
        assert not crashed.ok
        assert crashed.failure.error_type == "WorkerCrash"
        survivors = [s for s, o in out.items() if o.ok]
        assert len(survivors) == 2   # one bad config cannot kill the sweep
        # and the survivors' numbers match the serial reference
        monkeypatch.delenv("VLT_RUNNER_TEST_CRASH")
        serial = _cycles(ExperimentRunner(jobs=1).run(survivors))
        assert serial == {s: out[s].result.cycles for s in survivors}


class TestAlarmOffMainThread:
    def test_timeout_spec_runs_in_worker_thread(self):
        """Regression: `_alarm` used to call `signal.signal` from
        whatever thread executed the spec, which raises ValueError
        anywhere but the main thread -- every timed job submitted
        through a thread pool (the service's executor) died on arrival.
        Now it degrades to a no-op with a one-time warning."""
        import threading
        import warnings
        from concurrent.futures import ThreadPoolExecutor

        from repro.harness import runner as runner_mod
        from repro.harness.runner import _execute_spec

        old_flag = runner_mod._ALARM_THREAD_WARNED
        runner_mod._ALARM_THREAD_WARNED = False
        try:
            caught = []

            def _run():
                assert threading.current_thread() is not \
                    threading.main_thread()
                with warnings.catch_warnings(record=True) as w:
                    warnings.simplefilter("always")
                    payloads = [_execute_spec(_SPECS[0], 30.0, 50_000_000),
                                _execute_spec(_SPECS[0], 30.0, 50_000_000)]
                caught.extend(w)
                return payloads

            with ThreadPoolExecutor(max_workers=1) as pool:
                payloads = pool.submit(_run).result(timeout=300)
            for p in payloads:
                assert p.get("error") is None, p["error"]
                assert p["result"].cycles > 0
            relevant = [w for w in caught
                        if issubclass(w.category, RuntimeWarning)
                        and "main" in str(w.message)]
            assert len(relevant) == 1     # warned once, not per run
        finally:
            runner_mod._ALARM_THREAD_WARNED = old_flag

    def test_timeout_still_enforced_on_main_thread(self):
        from repro.harness.runner import _execute_spec
        p = _execute_spec(RunSpec("mxm", "base", 1), 0.001, 50_000_000)
        assert p["error"] is not None
        assert p["error"]["type"] == "RunTimeout"


class TestDriverIntegration:
    def test_driver_consumes_run_map(self):
        out = ExperimentRunner(jobs=1).run(E.fig3_matrix(("mpenc",)))
        runs = {s: o.result for s, o in out.items()}
        via_map = E.fig3_vlt_speedup(("mpenc",), runs=runs)
        inline = E.fig3_vlt_speedup(("mpenc",))
        assert via_map.cycles == inline.cycles

    def test_missing_run_raises(self):
        with pytest.raises(MissingRunError) as exc:
            E.fig3_vlt_speedup(("mpenc",), runs={})
        assert exc.value.spec.app == "mpenc"

    def test_matrix_for_dedupes_shared_base_runs(self):
        specs = E.matrix_for(["fig3", "fig5"], apps=["mpenc"])
        base = [s for s in specs if s.config == "base" and s.threads == 1]
        assert len(base) == 1   # fig3 and fig5 share the base run
        assert len(specs) == len(set(specs))

    def test_matrix_covers_all_nine_apps(self):
        specs = E.matrix_for(["fig1", "fig3", "fig4", "fig5", "fig6"])
        assert {s.app for s in specs} == set(E.ALL_APPS)

    def test_fig6_specs_are_scalar_only(self):
        assert all(s.scalar_only for s in E.fig6_matrix())

    def test_table4_matrix_is_inside_fig1(self):
        specs = E.matrix_for(["table4"])
        assert specs == [RunSpec(app, "base", 1) for app in (
            "mpenc", "trfd", "multprec", "bt", "radix", "ocean", "barnes")]
        assert set(specs) <= set(E.matrix_for(["fig1"]))

    def test_doc_matrix(self):
        from repro.timing.config import get_config
        specs = E.doc_matrix()
        assert len(specs) == len(set(specs)) == 72
        figures = E.matrix_for(["fig1", "fig3", "fig4", "fig5", "fig6"])
        assert specs[:len(figures)] == figures
        new = set(specs) - set(figures)
        assert {s.config for s in new} == {
            "V4-CMP-repVCL", "base-16lane", "V4-CMP-16lane"}
        assert len(new) == 6
        for spec in specs:   # every config resolves by name
            assert get_config(spec.config).name == spec.config


class TestWorkloadFlavourAliasing:
    """Regression: Workload.program() was order-dependent for
    non-vectorizable apps (the scalar_only=True flavour only aliased the
    base one if the base was built first)."""

    @pytest.mark.parametrize("app", ["barnes", "ocean"])
    @pytest.mark.parametrize("first", [False, True])
    def test_non_vectorizable_order_independent(self, app, first):
        from repro.workloads.base import _REGISTRY
        w = _REGISTRY[app]()   # fresh instance: order under our control
        assert w.vectorizable is False
        a = w.program(scalar_only=first)
        b = w.program(scalar_only=not first)
        assert a is b   # one flavour, whichever order was requested

    def test_vectorizable_flavours_distinct(self):
        from repro.workloads import get_workload
        w = get_workload("radix")   # radix has a real scalar flavour
        vec = w.program(scalar_only=False)
        sca = w.program(scalar_only=True)
        assert vec is not sca
        assert vec.digest() != sca.digest()
