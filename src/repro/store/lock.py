"""Advisory file locks for the run store's concurrent writers.

Appends to one run's event stream — its submits included — can come
from several processes at once (two clients submitting, a daemon
resuming, a test battery hammering one stream on purpose).
:class:`FileLock` serialises them with an OS advisory lock
(``fcntl.flock``): cheap, crash-safe (the OS drops a dead holder's
flock automatically), and honoured across processes on one host — the
same trust model as the checkpoint directory itself.  The store runs
where the daemon does: on POSIX, which forks the job slots.
"""

from __future__ import annotations

import fcntl
import os
import time
from pathlib import Path

__all__ = ["FileLock", "LockTimeoutError"]


class LockTimeoutError(TimeoutError):
    """The lock's holder did not release it within the acquire timeout."""


class FileLock:
    """Exclusive advisory lock on a sidecar file, usable as a context manager.

    Parameters
    ----------
    path:
        The lock file (created on first use; its *content* is never
        read — only the OS lock on it matters).
    timeout:
        Seconds to wait for the holder before raising
        :class:`LockTimeoutError`.
    poll_interval:
        Sleep between acquisition attempts.

    Notes
    -----
    The lock dies with its holder — a ``kill -9``'d writer never wedges
    the store.
    """

    def __init__(
        self,
        path: str | Path,
        timeout: float = 30.0,
        poll_interval: float = 0.01,
    ) -> None:
        self.path = Path(path)
        self.timeout = float(timeout)
        self.poll_interval = float(poll_interval)
        self._fd: int | None = None

    @property
    def held(self) -> bool:
        """Whether this instance currently holds the lock."""
        return self._fd is not None

    def acquire(self) -> "FileLock":
        """Block (up to ``timeout``) until the lock is exclusively held."""
        if self._fd is not None:
            raise RuntimeError(f"lock {self.path} is already held by this object")
        self.path.parent.mkdir(parents=True, exist_ok=True)
        deadline = time.monotonic() + self.timeout
        fd = os.open(str(self.path), os.O_RDWR | os.O_CREAT, 0o644)
        while True:
            try:
                fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
                self._fd = fd
                return self
            except OSError:
                if time.monotonic() >= deadline:
                    os.close(fd)
                    raise LockTimeoutError(
                        f"could not acquire {self.path} within {self.timeout:.1f}s"
                    ) from None
                time.sleep(self.poll_interval)

    def release(self) -> None:
        """Release the lock (idempotent)."""
        fd, self._fd = self._fd, None
        if fd is None:
            return
        try:
            fcntl.flock(fd, fcntl.LOCK_UN)
        except OSError:  # pragma: no cover - release is best effort
            pass
        os.close(fd)

    def __enter__(self) -> "FileLock":
        return self.acquire()

    def __exit__(self, *exc) -> None:
        self.release()
