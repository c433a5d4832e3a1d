"""Which core the benchmark runs on.

On a shared 2-core host, a neighbour slowed one core by half for a minute at
a time while the other stayed near its best, and a lone busy thread stays on
the core it runs on, so a whole run could be timed on the slow core.  So each
pass pins the benchmark's thread to the next core in turn (`pin`): every
input is timed on every core, and its best time is not the slow core's.

Only the calling thread is pinned; numpy's threads keep every core.  A child
process would inherit the pin and size its thread pools to one core, which
made its set-up a third cheaper than a user's call.  So a child is started
through `taskset` with every core allowed (`unpinned`): it starts on the
core its parent is pinned to and sees every core, as a user's call does.
Without `taskset` no child is started from a pinned thread.
"""

from __future__ import annotations

import os
import shutil

CPUS = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []
TASKSET = shutil.which("taskset")
# Whether a pass that starts child processes may pin this thread.
PIN_WITH_CHILDREN = len(CPUS) > 1 and TASKSET is not None


def pin(turn: int) -> None:
    """Run the calling thread on core `turn` mod the cores."""
    if len(CPUS) > 1:
        os.sched_setaffinity(0, {CPUS[turn % len(CPUS)]})


def unpin() -> None:
    if len(CPUS) > 1:
        os.sched_setaffinity(0, CPUS)


def unpinned(argv: list[str]) -> list[str]:
    """`argv` started so that it may run on every core."""
    if PIN_WITH_CHILDREN:
        return ["taskset", "-c", ",".join(map(str, CPUS))] + argv
    return argv
