"""Reference kernel that measures how fast the machine runs right now.

On a shared host the same command can take 7 s or 12 s minutes apart.
The benchmark times this fixed kernel in its own process, on the CPU its
children run on, between slices of every child, and scales each slice
by the ratio of ``NOMINAL_S`` to the kernel's time, which removes most
of that drift.  The kernel is benchmark code, independent of framekit,
so no change to the program moves it.  It has two halves, for the two
kinds of work framekit's eigensolvers do: a cyclic Jacobi sweep on
Python floats (interpreter-bound, like ``matcore._jacobi_scalar``) and
plane rotations of rows and columns of a 200 x 200 numpy array
(small-array calls and strided memory traffic, like
``matcore._jacobi_numpy``).
"""

import math
import random
import time

import numpy as np

#: Seconds ``measure()`` takes on a 2-vCPU Intel Xeon host (Python
#: 3.11.7, numpy 2.4.6) when the host is quiet (0.08-0.09 s then, 0.14 s
#: and more in slow spells); scaled times read as wall seconds at that
#: speed.
NOMINAL_S = 0.1

_N = 14
_SWEEPS = 8
_SCALAR_REPEATS = 20
_ARRAY_REPEATS = 10


def _matrix():
    rnd = random.Random(7)
    a = [[0.0] * _N for _ in range(_N)]
    for i in range(_N):
        for j in range(i, _N):
            a[i][j] = a[j][i] = rnd.uniform(-1.0, 1.0)
    return a


_A = _matrix()
#: The sweeps preserve the trace; checked on every call so the kernel
#: cannot silently do less work.
_TRACE = sum(_A[i][i] for i in range(_N))
_B = np.random.default_rng(7).standard_normal((200, 200))
_B_NORM = float(np.linalg.norm(_B))


def _jacobi_scalar(a) -> float:
    a = [row[:] for row in a]
    n = len(a)
    for _ in range(_SWEEPS):
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p][q]
                if apq == 0.0:
                    continue
                theta = (a[q][q] - a[p][p]) / (2.0 * apq)
                t = math.copysign(1.0, theta) / (abs(theta) + math.sqrt(theta * theta + 1.0))
                c = 1.0 / math.sqrt(t * t + 1.0)
                s = t * c
                for k in range(n):
                    akp, akq = a[k][p], a[k][q]
                    a[k][p], a[k][q] = c * akp - s * akq, s * akp + c * akq
                for k in range(n):
                    apk, aqk = a[p][k], a[q][k]
                    a[p][k], a[q][k] = c * apk - s * aqk, s * apk + c * aqk
    return sum(a[i][i] for i in range(n))


def _rotate_array(b) -> float:
    """Rotations keep the Frobenius norm, which the caller checks."""
    a = b.copy()
    c, s = 0.8, 0.6
    for p in range(0, 199, 2):
        for q in (p + 1, (p + 57) % 200, (p + 113) % 200):
            row = a[p].copy()
            a[p] = c * row - s * a[q]
            a[q] = s * row + c * a[q]
            col = a[:, p].copy()
            a[:, p] = c * col - s * a[:, q]
            a[:, q] = s * col + c * a[:, q]
    return float(np.linalg.norm(a))


def measure() -> float:
    """Wall seconds for a fixed amount of reference work."""
    start = time.perf_counter()
    for _ in range(_SCALAR_REPEATS):
        trace = _jacobi_scalar(_A)
    for _ in range(_ARRAY_REPEATS):
        norm = _rotate_array(_B)
    seconds = time.perf_counter() - start
    if abs(trace - _TRACE) > 1e-9 or abs(norm - _B_NORM) > 1e-9 * _B_NORM:
        raise RuntimeError("reference kernel lost an invariant")
    return seconds
