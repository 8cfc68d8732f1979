"""Contiguous ranges of one job, each after the first run by a forked child.

The caller splits its work with ``split``, forks the other ranges with
``forked`` and works through the first range itself. Each child writes its
result to an unlinked spool file that the caller reads back in range order,
so the output does not depend on how the work was split.
"""

from __future__ import annotations

import contextlib
import os
import signal
import tempfile
import traceback
import warnings
from pathlib import Path
from typing import IO, Callable, Iterator, Optional, Sequence


def split(items: int, weight: int, per_range: int) -> list[tuple[int, int]]:
    """(start, stop) of contiguous ranges covering ``range(items)``: as many
    as there are usable CPUs, at most one per ``per_range`` of ``weight``
    and one per item, and at least one; one where the platform cannot fork
    or tell the usable CPUs."""
    parts = 1
    if hasattr(os, "fork") and hasattr(os, "sched_getaffinity"):
        parts = max(1, min(len(os.sched_getaffinity(0)), weight // per_range, items))
    return [(items * k // parts, items * (k + 1) // parts) for k in range(parts)]


@contextlib.contextmanager
def forked(work: Callable[..., None], ranges: Sequence[tuple], name: Callable[..., str],
           spool_dir: Optional[str | Path] = None) -> Iterator[Iterator[IO[bytes]]]:
    """Fork a child per range that runs ``work(spool, *range)`` into its own
    unlinked spool file in ``spool_dir`` and exits; yield an iterator of the
    spools in range order, each rewound once its child has exited 0.

    A child that fails raises RuntimeError "``name(*range)`` ended with ...";
    a child whose ``work`` raised has written the traceback to stderr.
    Leaving the block kills and reaps every child still running.
    """
    with contextlib.ExitStack() as spools:
        running = []  # (pid, spool, range) of each child not yet reaped, in range order
        try:
            for part in ranges:
                spool = spools.enter_context(tempfile.TemporaryFile(dir=spool_dir))
                running.append((_fork(work, spool, part), spool, part))
            yield _reaped(running, name)
        finally:
            for pid, _, _ in running:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)


def _reaped(running: list, name: Callable[..., str]) -> Iterator[IO[bytes]]:
    while running:
        pid, spool, part = running[0]
        code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
        del running[0]
        if code:
            ended = f"signal {-code}" if code < 0 else f"exit code {code}"
            raise RuntimeError(f"{name(*part)} ended with {ended}")
        spool.seek(0)
        yield spool


def _fork(work: Callable[..., None], spool: IO[bytes], part: tuple) -> int:
    """Fork a child that runs ``work(spool, *part)`` and exits, 0 on success
    and 1, after writing the traceback to stderr, if it raises; return its pid."""
    with warnings.catch_warnings():
        # Python 3.12+ warns on fork in a process with other threads, which
        # numpy's BLAS pool starts. The child is safe: it runs no BLAS, takes
        # no lock, does not use the logging module (a traceback goes to fd 2
        # in one os.write), and leaves by os._exit.
        warnings.filterwarnings("ignore", r"This process .*use of fork\(\) may lead to "
                                "deadlocks", DeprecationWarning)
        pid = os.fork()
    if pid == 0:
        # never unwind into the caller (whose atomic_open would remove its
        # temporary file) nor flush the caller's buffers
        code = 1
        try:
            work(spool, *part)
            spool.flush()
            code = 0
        except Exception:
            os.write(2, traceback.format_exc().encode("utf-8", "backslashreplace"))
        finally:
            os._exit(code)
    return pid
