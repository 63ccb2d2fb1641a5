"""The verify-runner drill battery must pass and report correctly."""

from repro.resilience import drills


class TestRunDrills:
    def test_quick_battery_passes(self):
        results = drills.run_drills(seed=0, quick=True)
        names = [r.name for r in results]
        assert names == ["surgery.rollback", "checkpoint.tamper",
                         "sentinel.recovery", "loader.retry",
                         "quant.deploy", "quant.corrupt",
                         "serve.shed", "serve.swap",
                         "serve.drain", "serve.restart", "serve.frame",
                         "replica.kill", "replica.hang",
                         "replica.rolling"]
        for result in results:
            assert result.passed, f"{result.name}: {result.failures}"
            assert result.seconds >= 0.0

    def test_full_battery_includes_crash_resume(self):
        results = drills.run_drills(seed=0, quick=False)
        assert results[-1].name == "crash.resume"
        for result in results:
            assert result.passed, f"{result.name}: {result.failures}"

    def test_drill_result_shape_matches_report_contract(self):
        # The verify runner's _report needs these exact attributes.
        result = drills.DrillResult("x")
        assert hasattr(result, "passed")
        assert hasattr(result, "name")
        assert hasattr(result, "seconds")
        assert hasattr(result, "failures")
        result.fail("boom")
        assert not result.passed and result.failures == ["boom"]
