"""Correction of timings for the machine's speed at the moment.

On a shared virtual machine the CPU's speed can switch between modes
every few seconds. A fixed pure-Python loop took 1.33 or 1.95 ms and
`build_T()` 1.77 or 3.1 ms, switching together, in CPU time as well as in
wall time.  The runner therefore times a fixed probe before every
operation, outside the operation's own timing.  The probe is
allocation-heavy pure Python, run with the garbage collector paused, and
calls nothing from fsmkit.  Each operation's latency is then scaled by
``REFERENCE_S`` ÷ (median of the nearby probe times).  The corrected
figures read as times on a machine whose probe takes ``REFERENCE_S``;
the raw ones are reported beside them.
"""

from __future__ import annotations

import gc
import statistics
import time
from fractions import Fraction

#: Probe time the corrected figures are scaled to (about the probe's time
#: on the machine the baseline was measured on).
REFERENCE_S = 0.0012
#: Probes on each side of an operation that its correction uses.
HALF_WINDOW = 2


def _work():
    table = {}
    for i in range(1500):
        table[(i, i & 7)] = [i, str(i)]
    ordered = sorted(table.items(), key=lambda kv: (kv[0][1], -kv[0][0]))
    total = sum((Fraction(i, 7) for i in range(80)), Fraction(0))
    return len(ordered), total


def probe():
    """Seconds one run of the fixed probe takes now."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        _work()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def factors(probes):
    """Per-position correction factors: REFERENCE_S ÷ the median of the
    probes within HALF_WINDOW positions on either side."""
    out = []
    for i in range(len(probes)):
        window = probes[max(0, i - HALF_WINDOW):i + HALF_WINDOW + 1]
        out.append(REFERENCE_S / statistics.median(window))
    return out
