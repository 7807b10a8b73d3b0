"""Machine-speed gauge for a shared, noisy host.

On a host whose speed drifts by tens of percent over seconds (other
tenants on the same cores), raw op times from two runs minutes apart
are not comparable. The gauge times a fixed snippet that uses no
finegames code right before and right after every op. Each op time is
then scaled by REFERENCE_MS over the mean of those two snippet times,
giving the op's time at the reference speed: the speed at which the
snippet takes REFERENCE_MS. A change to the package cannot move the
snippet, so the scaling cancels host drift and nothing else. The host's
speed changes within a second, so the two nearest snippets track it
better than a median over more distant ones (on recorded runs, p90/p50
of identical ops fell from 1.47 raw to 1.12, against 1.23 for a median
over the 11 nearest).

The snippet mixes what the workloads do: interpreter-bound dict work,
small complex numpy calls of the 8x8 kind, and frozen-dataclass
construction with a raised and caught exception. Against 2-second
windows of each workload's ops, this mix tracked host drift best of
the candidates tried (ratio varying by 3-5 % where raw times varied by
up to 15 %).
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

REFERENCE_MS = 2.0

_M = (np.eye(8) * 0.5 + 0.01).astype(np.complex128)


@dataclass(frozen=True)
class _Pair:
    a: float
    b: float

    def __post_init__(self):
        object.__setattr__(self, "a", float(self.a))


def _snippet():
    d: dict[int, float] = {}
    for i in range(1500):
        d[i % 37] = d.get(i % 37, 0.0) + i * 0.5
    for _ in range(40):
        np.linalg.eigvalsh(_M)
        np.trace(_M @ _M)
        np.array([1.0, 2.0, 3.0])
        np.abs(_M).max()
    for i in range(400):
        _Pair(i, 2.0)
        try:
            raise ValueError(i)
        except ValueError:
            pass


def gauge() -> float:
    """Wall time (s) of one run of the fixed snippet."""
    start = time.perf_counter()
    _snippet()
    return time.perf_counter() - start


def factor(before: float, after: float) -> float:
    """What times taken between two gauges are multiplied by to give
    them at reference speed."""
    return (REFERENCE_MS / 1e3) / ((before + after) / 2.0)
