"""Leak checks for named POSIX shared-memory segments.

The worker pool (:mod:`repro.experiments.parallel`) creates no segment:
a ``fork`` worker inherits the store it was handed and a ``spawn``
worker unpickles it once.  Tests, the differential oracle, CI and the
benchmark still list ``/dev/shm`` after every pooled run, so a segment
that came back (a ``repro-shm`` name) shows up as a leak.
"""

from __future__ import annotations

import os
from typing import Iterable

#: The name marker the leak checks look for.
SHM_PREFIX = "repro-shm"

#: Where POSIX named segments appear on Linux (the leak-check surface).
SHM_DIR = "/dev/shm"


def list_segments(prefix: str = SHM_PREFIX) -> list[str]:
    """Names of live named segments carrying *prefix* (Linux: /dev/shm)."""
    try:
        entries: Iterable[str] = os.listdir(SHM_DIR)
    except OSError:
        return []
    return sorted(entry for entry in entries if entry.startswith(prefix))
