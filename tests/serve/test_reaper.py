"""Replica artifact ledger: durability, orphan sweep, fork safety."""

import json
import multiprocessing as mp
import os

import pytest

from repro.serve import reaper


@pytest.fixture
def ledger(tmp_path, monkeypatch):
    """Isolate the ledger directory and this process's path set."""
    ledger_dir = tmp_path / "ledger"
    monkeypatch.setenv("REPRO_SHM_LEDGER_DIR", str(ledger_dir))
    saved = set(reaper._paths)
    reaper._paths.clear()
    yield ledger_dir
    reaper._paths.clear()
    reaper._paths.update(saved)


def _dead_pid() -> int:
    proc = mp.get_context("fork").Process(target=lambda: None)
    proc.start()
    proc.join()
    return proc.pid


class TestLedger:
    def test_register_writes_ledger_before_use(self, ledger, tmp_path):
        target = tmp_path / "replica.sock"
        reaper.register_path(target)
        entry = str(target.absolute())
        path = ledger / f"{os.getpid()}.json"
        assert json.loads(path.read_text()) == [entry]
        assert reaper.live_paths() == {entry}
        reaper.unregister_path(target)

    def test_unregister_deletes_empty_ledger(self, ledger, tmp_path):
        a, b = tmp_path / "a.sock", tmp_path / "b.sock"
        reaper.register_path(a)
        reaper.register_path(b)
        reaper.unregister_path(a)
        path = ledger / f"{os.getpid()}.json"
        assert json.loads(path.read_text()) == [str(b.absolute())]
        reaper.unregister_path(b)
        assert not path.exists()
        assert reaper.live_paths() == set()

    def test_reap_all_unlinks_registered_files(self, ledger, tmp_path):
        target = tmp_path / "r0.pid"
        target.write_text("1234")
        reaper.register_path(target)
        assert reaper.reap_all() == 1
        assert not target.exists()
        assert reaper.live_paths() == set()

    def test_reap_all_removes_files_before_their_directory(self, ledger,
                                                           tmp_path):
        # Registration order is dir first (it exists first); reclaim must
        # run deepest-first or the rmdir fails on a non-empty directory.
        socket_dir = tmp_path / "replicas"
        socket_dir.mkdir()
        reaper.register_path(socket_dir)
        for name in ("r0.sock", "r1.sock", "r0.pid"):
            child = socket_dir / name
            child.write_text("")
            reaper.register_path(child)
        assert reaper.reap_all() == 4
        assert not socket_dir.exists()

    def test_missing_paths_reap_quietly(self, ledger, tmp_path):
        reaper.register_path(tmp_path / "already-gone.sock")  # never created
        assert reaper.reap_all() == 0       # nothing reclaimed, no raise
        assert reaper.live_paths() == set()


class TestOrphanSweep:
    def test_sweep_reclaims_a_dead_replicas_artifacts(self, ledger,
                                                      tmp_path):
        socket_dir = tmp_path / "repro-replicas-x"
        socket_dir.mkdir()
        sock = socket_dir / "r0.1.sock"
        sock.write_text("")
        dead = _dead_pid()
        ledger.mkdir()
        (ledger / f"{dead}.json").write_text(json.dumps(
            [str(socket_dir.absolute()), str(sock.absolute())]))
        reaped = reaper.sweep_orphans()
        assert reaped == [str(sock.absolute()), str(socket_dir.absolute())]
        assert not socket_dir.exists()
        assert not (ledger / f"{dead}.json").exists()

    def test_live_pids_are_never_touched(self, ledger, tmp_path):
        target = tmp_path / "r0.sock"
        target.write_text("")
        reaper.register_path(target)        # our own (live) ledger
        assert reaper.sweep_orphans() == []
        assert target.exists()
        reaper.unregister_path(target)

    def test_garbage_ledger_files_are_skipped(self, ledger):
        ledger.mkdir()
        (ledger / "not-a-pid.json").write_text("[]")
        dead = _dead_pid()
        (ledger / f"{dead}.json").write_text("{corrupt")
        assert reaper.sweep_orphans() == []
        assert (ledger / "not-a-pid.json").exists()
        assert not (ledger / f"{dead}.json").exists()

    def test_relative_entries_are_never_reclaimed(self, ledger, tmp_path,
                                                  monkeypatch):
        # A name that is not an absolute path (a shared-memory segment
        # name, say) must not be resolved against the sweeper's cwd.
        monkeypatch.chdir(tmp_path)
        bystander = tmp_path / "psm_1234"
        bystander.write_text("")
        dead = _dead_pid()
        ledger.mkdir()
        (ledger / f"{dead}.json").write_text(json.dumps(["psm_1234"]))
        assert reaper.sweep_orphans() == []
        assert bystander.exists()


class TestForkSafety:
    def test_child_does_not_inherit_parents_paths(self, ledger, tmp_path):
        parent_entry = tmp_path / "parent.sock"
        child_entry = tmp_path / "child.sock"
        reaper.register_path(parent_entry)
        queue = mp.get_context("fork").Queue()

        def child(queue):
            # The inherited set must be reset: registering here must not
            # write the parent's live path into the child's ledger.
            reaper.register_path(child_entry)
            queue.put(sorted(reaper.live_paths()))
            queue.close()
            queue.join_thread()
            # _exit: a normal exit would run the inherited atexit sweep
            # and erase the child ledger this test wants to inspect.
            os._exit(0)

        proc = mp.get_context("fork").Process(target=child, args=(queue,))
        proc.start()
        seen = queue.get(timeout=10)
        proc.join(timeout=10)
        assert seen == [str(child_entry.absolute())]
        child_ledger = ledger / f"{proc.pid}.json"
        assert json.loads(child_ledger.read_text()) == [
            str(child_entry.absolute())]
        assert reaper.live_paths() == {str(parent_entry.absolute())}
        reaper.unregister_path(parent_entry)
        child_ledger.unlink()
