"""CLI workflow: train -> prune -> profile -> compare -> specialize."""

import numpy as np
import pytest

from repro.cli import build_parser, main


@pytest.fixture(scope="module")
def base_checkpoint(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "base.npz"
    code = main([
        "train", "--model", "vgg11", "--width", "0.125",
        "--num-classes", "3", "--image-size", "8",
        "--samples-per-class", "20", "--epochs", "8", "--quiet",
        "--out", str(path),
    ])
    assert code == 0
    return path


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["transmogrify"])

    def test_train_defaults(self):
        args = build_parser().parse_args(["train", "--out", "x.npz"])
        assert args.model == "vgg16"
        assert args.lambda1 == pytest.approx(1e-4)
        assert args.lambda2 == pytest.approx(1e-2)

    def test_prune_strategy_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["prune", "--checkpoint", "a",
                                       "--out", "b", "--strategy", "magic"])

    def test_serve_defaults_and_repeatable_models(self):
        args = build_parser().parse_args(
            ["serve", "--model", "a=a.npz", "--model", "b@v2=b.npz"])
        assert args.model == ["a=a.npz", "b@v2=b.npz"]
        assert args.port == 7071
        assert args.max_pending == 64
        assert args.p99_budget_ms == pytest.approx(200.0)

    def test_serve_requires_a_model_or_resume(self):
        # --model is no longer parser-mandatory (a manifest via --resume
        # is an alternative source of deployments); a bare `serve` is
        # refused at runtime instead.
        from repro.cli import main
        assert main(["serve"]) == 1

    def test_serve_lifecycle_flag_defaults(self):
        args = build_parser().parse_args(["serve", "--resume", "mf"])
        assert args.resume == "mf"
        assert args.drain_grace == pytest.approx(30.0)
        assert args.request_timeout == pytest.approx(30.0)

    def test_serve_rejects_malformed_model_spec(self):
        from repro.cli import main
        assert main(["serve", "--model", "no-checkpoint-here"]) == 1

    def test_serve_bench_defaults(self):
        args = build_parser().parse_args(["serve-bench"])
        assert args.connections == "1,4,16"
        assert args.requests == 40
        assert not args.smoke


class TestWorkflow:
    def test_train_writes_checkpoint(self, base_checkpoint):
        assert base_checkpoint.exists()
        from repro.io import load_model
        model = load_model(base_checkpoint)
        assert model.arch["name"] == "vgg11"

    def test_prune(self, base_checkpoint, tmp_path, capsys):
        out = tmp_path / "pruned.npz"
        code = main([
            "prune", "--checkpoint", str(base_checkpoint),
            "--out", str(out), "--samples-per-class", "20",
            "--finetune-epochs", "1", "--max-iterations", "2",
            "--images-per-class", "4", "--tolerance", "0.5",
            "--epochs", "1", "--quiet",
        ])
        assert code == 0
        captured = capsys.readouterr().out
        assert "ratio=" in captured
        from repro.io import load_model
        pruned = load_model(out)
        assert pruned.num_parameters() > 0

    def test_profile(self, base_checkpoint, capsys):
        code = main(["profile", "--checkpoint", str(base_checkpoint)])
        assert code == 0
        out = capsys.readouterr().out
        assert "TOTAL" in out
        assert "total FLOPs" in out

    def test_compare(self, base_checkpoint, capsys):
        code = main([
            "compare", "--checkpoint", str(base_checkpoint),
            "--methods", "l1,random", "--samples-per-class", "20",
            "--target-ratio", "0.15", "--finetune-epochs", "1",
            "--max-iterations", "3", "--epochs", "1",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "L1 [23]" in out
        assert "Random" in out

    def test_specialize(self, base_checkpoint, tmp_path, capsys):
        out = tmp_path / "spec.npz"
        code = main([
            "specialize", "--checkpoint", str(base_checkpoint),
            "--classes", "0,2", "--out", str(out),
            "--samples-per-class", "20", "--finetune-epochs", "2",
            "--images-per-class", "4", "--epochs", "2",
        ])
        assert code == 0
        from repro.io import load_model
        model = load_model(out)
        assert model.classifier.out_features == 2


class TestRun:
    RUN_ARGS = ["--samples-per-class", "20", "--finetune-epochs", "1",
                "--max-iterations", "1", "--images-per-class", "4",
                "--tolerance", "0.5", "--epochs", "1", "--quiet"]

    def test_journaled_run_and_resume(self, base_checkpoint, tmp_path,
                                      capsys):
        run_dir = tmp_path / "run"
        code = main(["run", "--checkpoint", str(base_checkpoint),
                     "--run-dir", str(run_dir)] + self.RUN_ARGS)
        assert code == 0
        out = capsys.readouterr().out
        assert "stopped because:" in out
        assert (run_dir / "journal.jsonl").exists()
        assert (run_dir / "checkpoints" / "baseline.npz").exists()
        # Resuming a finished run reconstructs without CLI-side state.
        export = tmp_path / "resumed.npz"
        code = main(["run", "--run-dir", str(run_dir), "--resume",
                     "--out", str(export), "--quiet"])
        assert code == 0
        from repro.io import load_model
        assert load_model(export).num_parameters() > 0

    def test_resume_of_older_journals(self, base_checkpoint, tmp_path):
        """Journals written while worker pools existed record their
        settings in ``run_start``: a serial one (``workers: 0``) resumes
        bitwise, a worker-sharded or degraded one is refused."""
        import shutil

        from repro.io import load_model
        from repro.resilience import RunJournal

        args = list(self.RUN_ARGS)
        args[args.index("--max-iterations") + 1] = "2"
        run_dir = tmp_path / "run"
        reference = tmp_path / "reference.npz"
        assert main(["run", "--checkpoint", str(base_checkpoint),
                     "--run-dir", str(run_dir), "--out", str(reference)]
                    + args) == 0
        records = RunJournal.read(run_dir / "journal.jsonl")
        first = next(i for i, r in enumerate(records)
                     if r["event"] == "iteration")

        def older_run(name, workers=0, tail=()):
            """Copy of the run, cut after its first iteration, whose
            run_start carries the retired settings."""
            target = tmp_path / name
            shutil.copytree(run_dir, target)
            (target / "journal.jsonl").unlink()
            journal = RunJournal(target / "journal.jsonl")
            for record in records[:first + 1] + list(tail):
                fields = {k: v for k, v in record.items()
                          if k not in ("seq", "event")}
                if record["event"] == "run_start":
                    fields["config"] = dict(fields["config"], supervision={
                        "heartbeat_seconds": 0.2,
                        "stale_after_seconds": 10.0,
                        "task_deadline_seconds": 120.0, "max_respawns": 3,
                        "max_task_retries": 2, "respawn_delay": 0.05,
                        "respawn_factor": 2.0, "respawn_jitter": 0.1,
                        "seed": 0, "poll_seconds": 0.05})
                    fields["training"] = dict(
                        fields["training"], workers=workers,
                        grad_transport="fp32", grad_bucket_kb=512)
                journal.append(record["event"], **fields)
            return target

        resumed = tmp_path / "resumed.npz"
        assert main(["run", "--run-dir", str(older_run("serial")),
                     "--resume", "--out", str(resumed), "--quiet"]) == 0
        want = load_model(reference).state_dict()
        got = load_model(resumed).state_dict()
        assert sorted(got) == sorted(want)
        for key, value in want.items():
            np.testing.assert_array_equal(got[key], value, err_msg=key)

        with pytest.raises(SystemExit, match="workers=2"):
            main(["run", "--run-dir", str(older_run("sharded", workers=2)),
                  "--resume", "--quiet"])
        degrade = {"event": "parallel_degrade", "kind": "degrade",
                   "worker_id": 0, "detail": "respawn budget exhausted"}
        with pytest.raises(SystemExit, match="parallel_degrade"):
            main(["run", "--run-dir",
                  str(older_run("degraded", tail=[degrade])),
                  "--resume", "--quiet"])

    def test_fresh_run_requires_checkpoint(self, tmp_path):
        with pytest.raises(SystemExit, match="checkpoint"):
            main(["run", "--run-dir", str(tmp_path / "r"), "--quiet"])

    def test_resume_without_journal_fails(self, tmp_path):
        empty = tmp_path / "none"
        empty.mkdir()
        with pytest.raises((SystemExit, FileNotFoundError)):
            main(["run", "--run-dir", str(empty), "--resume", "--quiet"])
