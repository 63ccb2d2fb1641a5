"""Run-scoped path ledger and orphan reaper for replica artifacts.

A replica fleet creates filesystem artifacts — unix-domain sockets, pid
files and their scratch directory — and a SIGKILL gives the owning
process no chance to remove them. This module guarantees they are
reclaimed:

* **ledger** — every artifact is recorded, as an absolute path, in a
  per-process ledger file ``<tmpdir>/repro-shm-ledger/<pid>.json``
  when it is created, and dropped from it after its orderly removal
  (``REPRO_SHM_LEDGER_DIR`` overrides the directory);
* **atexit sweep** — normal interpreter exit (including an uncaught
  ``KeyboardInterrupt``) removes everything still in this process's
  ledger;
* **orphan sweep** — on the next start (:class:`~repro.serve.ReplicaSet`
  construction, or an explicit :func:`sweep_orphans`), ledger files whose
  owning process is dead are replayed: their paths are removed and the
  stale ledger deleted. A SIGKILLed run leaks artifacts only until the
  next run starts.

Entries belonging to a still-running process are never touched. Paths
are reclaimed in reverse-sorted order, so the files inside a registered
directory go before the ``rmdir`` of the directory itself; ledger
entries that are not absolute paths are skipped.
"""

from __future__ import annotations

import atexit
import json
import os
import tempfile
import threading
from pathlib import Path

__all__ = ["ledger_dir", "register_path", "unregister_path", "live_paths",
           "sweep_orphans", "reap_all"]

_lock = threading.Lock()
_paths: set[str] = set()
_atexit_armed = False
_owner_pid = os.getpid()


def _check_fork() -> None:
    """Reset inherited state after a fork (caller holds ``_lock``).

    A forked child inherits the parent's ``_paths`` set; registering a
    new path there must not write the *parent's* live paths into the
    child's ledger — a later orphan sweep would destroy them under the
    still-running parent.
    """
    global _owner_pid
    if os.getpid() != _owner_pid:
        _paths.clear()
        _owner_pid = os.getpid()


def ledger_dir() -> Path:
    """Directory holding one ledger file per artifact-owning process."""
    override = os.environ.get("REPRO_SHM_LEDGER_DIR")
    return Path(override) if override else (
        Path(tempfile.gettempdir()) / "repro-shm-ledger")


def _write_ledger() -> None:
    """Persist this process's live-path set (caller holds ``_lock``)."""
    path = ledger_dir() / f"{os.getpid()}.json"
    if not _paths:
        try:
            path.unlink()
        except FileNotFoundError:
            pass
        return
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(sorted(_paths)))
    os.replace(tmp, path)


def _unlink_path(path: str) -> bool:
    """Best-effort removal of a ledgered file/socket/dir; True on removal.

    Directories are removed with ``rmdir`` only — a registered scratch
    dir is reclaimed after its (also-registered) contents, never by a
    recursive delete of files the run did not ledger.
    """
    target = Path(path)
    if not target.is_absolute():
        return False
    try:
        if target.is_dir() and not target.is_symlink():
            target.rmdir()
        else:
            target.unlink()
    except FileNotFoundError:
        return False
    except OSError:  # pragma: no cover - non-empty dir, permissions
        return False
    return True


def register_path(path: str | os.PathLike) -> None:
    """Ledger a replica-owned filesystem artifact (durable before use)."""
    global _atexit_armed
    with _lock:
        _check_fork()
        _paths.add(str(Path(path).absolute()))
        _write_ledger()
        if not _atexit_armed:
            _atexit_armed = True
            atexit.register(reap_all)


def unregister_path(path: str | os.PathLike) -> None:
    """Drop a filesystem artifact from the ledger after orderly removal."""
    with _lock:
        _check_fork()
        _paths.discard(str(Path(path).absolute()))
        _write_ledger()


def live_paths() -> set[str]:
    """Paths this process still owns according to its ledger."""
    with _lock:
        _check_fork()
        return set(_paths)


def reap_all() -> int:
    """Remove every path this process still has in its ledger.

    Called by atexit; safe to call directly (e.g. from a signal handler
    or a test). Returns how many paths were actually removed.
    """
    with _lock:
        _check_fork()
        doomed = sorted(_paths, reverse=True)
        _paths.clear()
        _write_ledger()
    return sum(_unlink_path(path) for path in doomed)


def _pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:  # pragma: no cover - alive, other user
        return True
    return True


def sweep_orphans() -> list[str]:
    """Reclaim paths whose owning process died without cleanup.

    Scans the ledger directory; for every ledger whose pid is dead, the
    listed paths are removed and the ledger file deleted. Returns the
    paths that were actually removed.
    """
    base = ledger_dir()
    if not base.is_dir():
        return []
    reaped: list[str] = []
    for path in sorted(base.glob("*.json")):
        try:
            pid = int(path.stem)
        except ValueError:
            continue
        if pid == os.getpid() or _pid_alive(pid):
            continue
        try:
            entries = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError):
            entries = []
        for entry in sorted((e for e in entries if isinstance(e, str)),
                            reverse=True):
            if _unlink_path(entry):
                reaped.append(entry)
        try:
            path.unlink()
        except FileNotFoundError:  # pragma: no cover - raced another sweep
            pass
    return reaped
