"""Host-speed reference for the end-to-end times.

On a shared host the same Python code runs at speeds that drift by up to
~1.7x over tens of seconds (other tenants, shared cores).  The benchmark
therefore runs `calibrate()` between jobs: a fixed fraction-free integer
elimination, the same kind of work as tropic's simplex pivots, that never
touches tropic.  A job's wall time is rescaled by REFERENCE_S over the
median calibration time around it, which gives its time at the speed where
one calibration takes REFERENCE_S.  A change to tropic moves the rescaled
times; a change in host speed moves the job and the calibration together.
"""

from __future__ import annotations

import statistics
from time import perf_counter

REFERENCE_S = 0.002
_SIZE = 10
_REPEATS = 16


def _matrix():
    state = 12345
    rows = []
    for _ in range(_SIZE):
        row = []
        for _ in range(_SIZE):
            state = (state * 1103515245 + 12345) % 2**31
            row.append(state % 2001 - 1000)
        rows.append(row)
    return rows


_MATRIX = _matrix()


def _bareiss_det(rows) -> int:
    m = [r[:] for r in rows]
    n = len(m)
    prev = 1
    sign = 1
    for c in range(n - 1):
        piv = next((i for i in range(c, n) if m[i][c]), None)
        if piv is None:
            return 0
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            sign = -sign
        for i in range(c + 1, n):
            m[i] = [
                (m[i][j] * m[c][c] - m[i][c] * m[c][j]) // prev if j > c else 0
                for j in range(n)
            ]
        prev = m[c][c]
    return sign * m[n - 1][n - 1]


EXPECTED_DET = _bareiss_det(_MATRIX)


def calibrate() -> float:
    """Seconds for one fixed unit of integer work."""
    t0 = perf_counter()
    for _ in range(_REPEATS):
        if _bareiss_det(_MATRIX) != EXPECTED_DET:
            raise ArithmeticError("calibration kernel lost exactness")
    return perf_counter() - t0


def rescale(seconds: float, calibrations) -> float:
    """`seconds` at the reference speed, given nearby calibration times."""
    return seconds * REFERENCE_S / statistics.median(calibrations)
