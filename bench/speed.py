"""Interpreter-speed calibration, so that timings taken on a shared machine compare.

On a host shared with other tenants the same Python code can run up to
~1.7x slower for stretches of tens of seconds (seen on a 2-vCPU x86-64 VM,
CPython 3.11), longer than one benchmark run.  The benchmark therefore runs
a fixed calibration kernel (exact Fraction arithmetic, dict inserts and
string formatting, like bhqc's own inner loops) before and after every
timed operation and reports each time rescaled to *reference seconds*:
seconds on an interpreter that runs the kernel in exactly ``REFERENCE_S``.
Both the raw and the rescaled figures are printed; the JSON metrics use
the rescaled ones.
"""

from __future__ import annotations

from fractions import Fraction
from time import perf_counter

# The kernel's median time on an idle 2-vCPU x86-64 VM under CPython 3.11,
# so that reference seconds are close to wall seconds on such a machine.
REFERENCE_S = 0.0005


def calibrate() -> float:
    """Seconds taken by one run of the fixed calibration kernel."""
    t0 = perf_counter()
    acc = Fraction(1, 3)
    seen = {}
    for k in range(100):
        acc = acc * Fraction(k + 2, k + 1) + Fraction(1, k + 7)
        seen[format(k, "06b")] = str(acc.numerator % 1000)
    return perf_counter() - t0


def rescale(times: list[float], calibrations: list[float]) -> list[float]:
    """Each time in reference seconds.

    ``calibrations`` has one entry more than ``times``: ``calibrations[i]``
    and ``calibrations[i + 1]`` were measured just before and just after
    ``times[i]``, and their mean is the interpreter's speed during it.
    """
    return [t * 2 * REFERENCE_S / (calibrations[i] + calibrations[i + 1])
            for i, t in enumerate(times)]
