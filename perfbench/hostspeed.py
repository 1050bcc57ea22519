"""Host-speed calibration: a fixed pure-Python routine timed next to every op.

On a shared host the interpreter's speed swings by up to 1.5x over minutes,
and every workload's timings move with it, so medians taken minutes apart
differ by more than any bound worth gating. The benchmark therefore times a
fixed routine, `calibration_pass`, after the warm-up and after every op, and
scales each op's wall time by REFERENCE_S over the mean of the passes just
before and just after it. The result is the op's time in reference seconds:
the seconds it would take on a host where one pass takes REFERENCE_S.

The routine is the benchmark's own code and never calls the engine, so a
change to the engine moves the op times and not the passes. It does the kind
of work the engine's Python does, in miniature: rounds of colour refinement
on a fixed 64-node graph (tuple signatures from sorted generators, dict
lookups, list stores) plus string keys. Its data stay a few kilobytes, in
cache like the ops' hot data; a pass over a large list slowed under a
neighbour's cache pressure much more than the ops did. The garbage collector
is off during a pass, so the heap the engine leaves behind cannot slow it.
"""

from __future__ import annotations

import gc
import os
import time

# A typical pass on the reference host, a shared 2-vCPU Xeon VM running
# Python 3.11, under its usual load (an idle moment takes about 8 ms). It
# only sets the scale of the reported times.
REFERENCE_S = 0.015
ROUNDS = 100
NODES = 64
_START = [i % 5 for i in range(NODES)]


def _pass() -> int:
    cur = _START
    names: dict[str, int] = {}
    for r in range(ROUNDS):
        table: dict[tuple, int] = {}
        new = [0] * NODES
        for v in range(NODES):
            sig = (cur[v], tuple(sorted((cur[(v * 5 + j * 11 + r) % NODES], j) for j in range(3))))
            cid = table.get(sig)
            if cid is None:
                cid = len(table)
                table[sig] = cid
            new[v] = cid
        names[f"v{r % 16}@{len(table)}"] = r
        cur = new if len(table) < 40 else _START
    return len(names)


def calibration_pass() -> float:
    """Wall seconds of one pass of the fixed routine, with the GC off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        _pass()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def adjust(op_s: float, before_s: float, after_s: float) -> float:
    """An op's wall time in reference seconds, from the passes around it."""
    return op_s * REFERENCE_S / ((before_s + after_s) / 2)


def pin_to_one_cpu() -> None:
    """Keep this process, and the children it starts, on one CPU.

    The passes then measure the CPU the ops run on; on a shared host each
    CPU can be contended differently.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
