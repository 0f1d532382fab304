"""Reference kernels that time the machine rather than laurentfft.

The shared machines this benchmark runs on change speed by up to 2x within
seconds, and by how much depends on what the code does: a neighbour on the
same core slows interpreted Fraction arithmetic and numpy element access by
different factors. Each workload therefore has a kernel with the instruction
mix of its own hot path in laurentfft 0.1.0, built from fixed data and
running no laurentfft code, so a change under ``src/`` cannot move it. An op
time divided by the kernel's time measured around it keeps a change to
laurentfft and cancels most of the machine's drift.
"""

from __future__ import annotations

import json
from fractions import Fraction
from time import perf_counter_ns

import numpy as np

_RNG = np.random.default_rng(20150206)

# A straight-line program like a lowered N=64 plan: 128 rows of 22 signed
# unit coefficients over 64 inputs, applied one element at a time.
_PROGRAM = tuple(
    (i % 64, tuple((int(c), float(_RNG.choice((-1.0, 1.0))))
                   for c in sorted(_RNG.choice(64, size=22, replace=False))))
    for i in range(128))
_INPUT = _RNG.uniform(-1.0, 1.0, 64)

# Integer matrices like combination matrices: a large one to box into
# Fractions, a small one to row-reduce exactly.
_BOX_MATRIX = _RNG.integers(-2, 3, (40, 40))
_INT_MATRIX = _RNG.integers(-2, 3, (8, 8))

# A plan-like JSON document: sparse triplets with rational strings.
_DOCUMENT = json.dumps({"triplets": [
    [int(i), int(j), str(Fraction(int(_RNG.integers(-3, 4)),
                                  int(_RNG.integers(1, 4))))]
    for i, j in zip(_RNG.integers(0, 64, 600), _RNG.integers(0, 64, 600))]})


def _execute_program() -> np.ndarray:
    out = np.zeros(64)
    for i, row in _PROGRAM:
        acc = 0.0
        for c, x in row:
            if x == 1.0:
                acc += _INPUT[c]
            elif x == -1.0:
                acc -= _INPUT[c]
            else:
                acc += x * _INPUT[c]
        out[i] += acc
    return out


def _eliminate() -> int:
    """Box one integer matrix into Fractions and row-reduce another; returns
    the rank."""
    boxed = [[Fraction(int(x)) for x in row] for row in _BOX_MATRIX]
    rows = [[Fraction(int(x)) for x in row] for row in _INT_MATRIX]
    rank = 0
    for col in range(len(rows[0])):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        lead = rows[rank][col]
        rows[rank] = [x / lead for x in rows[rank]]
        for r in range(len(rows)):
            factor = rows[r][col]
            if r != rank and factor:
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank + len(boxed)


def _load_document() -> int:
    doc = json.loads(_DOCUMENT)
    values = [Fraction(v) for _, _, v in doc["triplets"]]
    _execute_program()
    return len(values)


KERNELS = {"sweep": _eliminate, "stream": _execute_program,
           "reload": _load_document}


def calibration_ns(workload: str) -> int:
    """Time one pass of ``workload``'s reference kernel, in ns."""
    kernel = KERNELS[workload]
    start = perf_counter_ns()
    kernel()
    return perf_counter_ns() - start
