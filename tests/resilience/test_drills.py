"""The verify-runner drill battery must pass and report correctly."""

from repro.resilience import drills
from repro.serve import drills as serve_drills

REPLICA_DRILLS = ["serve.replica.kill", "serve.replica.hang",
                  "serve.replica.rolling"]


class TestRunDrills:
    def test_quick_battery_passes(self):
        results = drills.run_drills(seed=0, quick=True)
        names = [r.name for r in results]
        assert names == ["surgery.rollback", "checkpoint.tamper",
                         "sentinel.recovery", "loader.retry",
                         "quant.deploy", "quant.corrupt",
                         "serve.shed", "serve.swap",
                         "serve.drain", "serve.restart", "serve.frame",
                         *REPLICA_DRILLS]
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

    def test_crashed_drill_reports_its_table_name(self, monkeypatch):
        def crash(seed):
            raise RuntimeError("planted")

        monkeypatch.setattr(serve_drills, "_drill_serve_replica_kill", crash)
        [result] = drills.run_drills(seed=0, only="serve.replica.kill")
        assert result.name == "serve.replica.kill"
        assert not result.passed
        assert result.failures == ["drill crashed: RuntimeError: planted"]

    def test_filter_and_report_use_table_names(self, monkeypatch):
        # Stub the fleet drills: only selection and naming are under test.
        for attr in ("_drill_serve_replica_kill", "_drill_serve_replica_hang",
                     "_drill_serve_replica_rolling"):
            monkeypatch.setattr(serve_drills, attr,
                                lambda seed: drills.DrillResult("stub"))
        results = drills.run_drills(seed=0, only="replica")
        assert [r.name for r in results] == REPLICA_DRILLS
        assert all(r.passed for r in results)
