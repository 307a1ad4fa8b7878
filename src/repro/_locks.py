"""Cross-process file locking for the results store.

:class:`~repro.service.store.ResultsStore` serialises its SQLite write
transactions across service processes with a ``<db>.lock`` lockfile, on top
of SQLite's own busy handler, so concurrent writers never interleave
partially written runs.  The on-disk simulation cache and the compiled-plan
spill need no lock: each entry is written atomically (temp file +
``os.replace``), and skipped when it already exists.

:class:`FileLock` uses the portable ``O_EXCL`` lockfile protocol:

* ``acquire`` atomically creates ``<name>.lock`` with
  ``O_CREAT | O_EXCL`` -- exactly one process can succeed -- and writes its
  pid into the file for debuggability.
* A lock whose file is older than ``stale_timeout`` seconds is considered
  abandoned (its holder crashed between create and unlink) and is broken
  via an atomic *rename* to a waiter-unique victim name: of all the waiters
  observing the same stale lockfile, exactly one wins the rename (the rest
  get ``ENOENT`` and fall back to the create race), so takeover never
  multiplies owners.  Each lockfile carries its creator's pid plus a random
  token, and ``release`` unlinks only when the file still holds its own
  token -- a holder that was broken as stale can no longer delete the next
  owner's lock out from under it.
* ``acquire`` is best-effort by design: on timeout it returns ``False``
  rather than raising.  Each store write is a complete SQLite transaction,
  so proceeding without the lock is still safe -- SQLite's own locking
  then does the serialising.

The lock is advisory and cooperative: it only coordinates processes that use
:class:`FileLock` on the same path.
"""

from __future__ import annotations

import os
import time
import uuid
from pathlib import Path
from types import TracebackType
from typing import Optional, Type

from .faults import fault_point

__all__ = ["FileLock"]

#: Seconds between acquisition attempts while another process holds the lock.
_POLL_INTERVAL = 0.005


class FileLock:
    """An advisory ``O_EXCL``-lockfile mutex with stale-lock takeover.

    Parameters
    ----------
    path:
        Path of the lockfile itself (by convention ``<target>.lock`` next to
        the file whose writers it serialises).
    timeout:
        Maximum seconds :meth:`acquire` waits before giving up and returning
        ``False``.  ``0`` makes acquisition a single non-blocking attempt.
    stale_timeout:
        A lockfile older than this many seconds is treated as abandoned by a
        crashed holder and is broken.  Must comfortably exceed the longest
        critical section the lock protects.
    """

    def __init__(
        self,
        path: Path | str,
        *,
        timeout: float = 10.0,
        stale_timeout: float = 60.0,
    ) -> None:
        self.path = Path(path)
        self.timeout = float(timeout)
        self.stale_timeout = float(stale_timeout)
        self._held = False
        # The lockfile's content: pid for debuggability, token for identity.
        # `release` only unlinks a file still carrying this exact token, so
        # a holder broken as stale can never delete its successor's lock.
        self._token = f"{os.getpid()}:{uuid.uuid4().hex}"

    @property
    def held(self) -> bool:
        """Whether this instance currently holds the lock."""
        return self._held

    def _try_create(self) -> bool:
        """One atomic creation attempt."""
        try:
            fault_point("lock.acquire", key=str(self.path))
            handle = os.open(
                self.path, os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o644
            )
        except FileExistsError:
            return False
        except OSError:
            # Unwritable/removed parent (or an injected acquisition fault):
            # behave like an unacquirable lock this round; `acquire` keeps
            # retrying until its deadline, and callers ultimately degrade to
            # their (atomic) unlocked path.
            return False
        try:
            os.write(handle, f"{self._token}\n".encode("ascii"))
        except OSError:
            pass
        finally:
            os.close(handle)
        self._held = True
        return True

    def _break_if_stale(self) -> None:
        """Claim and remove the lockfile when its holder looks dead.

        The claim is an atomic rename to a waiter-unique victim path: when
        several waiters observe the same stale lockfile, exactly one rename
        succeeds and the losers fall back to the (also atomic) create race
        -- so breaking a stale lock can never yield two owners.
        """
        try:
            age = time.time() - self.path.stat().st_mtime
        except OSError:
            return  # already released (or broken by another waiter)
        if age < self.stale_timeout:
            return
        victim = self.path.with_name(f"{self.path.name}.stale-{self._token[-12:]}")
        try:
            os.rename(self.path, victim)
        except OSError:
            return  # lost the takeover race: another waiter claimed it first
        try:
            os.unlink(victim)
        except OSError:
            pass

    def acquire(self) -> bool:
        """Try to take the lock, waiting up to ``timeout`` seconds.

        Returns ``True`` on success.  ``False`` means another live process
        holds the lock for the whole window -- callers should either skip
        the duplicate work or proceed through their own atomic write path.
        """
        if self._held:
            raise RuntimeError(f"lock {str(self.path)!r} is already held")
        deadline = time.monotonic() + self.timeout
        while True:
            if self._try_create():
                return True
            self._break_if_stale()
            if time.monotonic() >= deadline:
                return False
            time.sleep(_POLL_INTERVAL)

    def release(self) -> None:
        """Release the lock (no-op when not held).

        Identity-checked: the file is unlinked only while it still carries
        this instance's token.  A holder that overstayed ``stale_timeout``
        and was broken by a waiter finds someone else's token (or no file)
        and leaves the successor's lock alone.
        """
        if not self._held:
            return
        self._held = False
        try:
            content = self.path.read_text(encoding="ascii", errors="replace")
        except OSError:
            return  # broken as stale by a waiter: nothing left to release
        if content.strip() != self._token:
            return  # the lock now belongs to a successor
        try:
            self.path.unlink()
        except OSError:
            pass

    def __enter__(self) -> "FileLock":
        self.acquire()
        return self

    def __exit__(
        self,
        exc_type: Optional[Type[BaseException]],
        exc: Optional[BaseException],
        tb: Optional[TracebackType],
    ) -> None:
        self.release()
