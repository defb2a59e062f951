"""Host-speed calibration around every timed section.

On a shared virtual machine the same work can take twice as long from
one minute to the next, which no amount of repetition inside one run
averages away.  A :class:`Stopwatch` therefore times a fixed,
interpreter-bound reference loop (this module's own code, never the
program's) right before and right after every timed section, and scales
the section to a host on which one slice of the loop takes
:data:`NOMINAL_SLICE_S`.  A workload whose timed phase lasts seconds
times it in several short sections, so the scaling follows the host.
The raw timings are kept alongside.
"""

from __future__ import annotations

import statistics
from typing import List, Optional, Tuple

from pbench.common import clock, quiesce

#: One slice of the reference loop on the nominal host (seconds).
NOMINAL_SLICE_S = 0.010
#: Slices timed on each side of a section.
SLICES = 6
#: Sections shorter than this reuse the last calibration: a host-speed
#: error on them is negligible, and measuring it would cost more than
#: the section.
SHORT_SECTION_S = 0.005

_MASK = 0xFFFFFFFF


class _Cell:
    __slots__ = ("key", "value", "next")

    def __init__(self, key: int, value: int, nxt) -> None:
        self.key = key
        self.value = value
        self.next = nxt


def _rotl(x: int, bits: int) -> int:
    return ((x << bits) | (x >> (32 - bits))) & _MASK


def _round(v0: int, v1: int, v2: int, v3: int):
    v0 = (v0 + v1) & _MASK
    v1 = _rotl(v1, 5) ^ v0
    v0 = _rotl(v0, 16)
    v2 = (v2 + v3) & _MASK
    v3 = _rotl(v3, 8) ^ v2
    v0 = (v0 + v3) & _MASK
    v3 = _rotl(v3, 7) ^ v0
    v2 = (v2 + v1) & _MASK
    v1 = _rotl(v1, 13) ^ v2
    v2 = _rotl(v2, 16)
    return v0, v1, v2, v3


def reference_loop(rounds: int = 1800, cells: int = 12000) -> int:
    """Fixed work: 32-bit ALU rounds and calls, then object, dict and
    list traffic, the two kinds of work the workloads spend time on."""
    state = (1, 2, 3, 4)
    for i in range(rounds):
        state = _round(state[0] ^ i, state[1], state[2], state[3])
    table: dict = {}
    head = None
    acc = state[0]
    for i in range(cells):
        acc = ((acc << 5) ^ (acc >> 3) ^ i) & _MASK
        head = _Cell(acc & 1023, i, head if i % 64 else None)
        table[acc & 4095] = table.get(acc & 4095, 0) + 1
    return acc ^ len(table)


def slices(count: int = SLICES) -> List[float]:
    """Host seconds of ``count`` consecutive slices of the loop."""
    # The episode's cyclic garbage must not be collected on our clock.
    quiesce()
    out = []
    for _ in range(count):
        started = clock()
        reference_loop()
        out.append(clock() - started)
    return out


def slowdown(samples: List[float]) -> float:
    """How much slower than nominal the host ran (1.0 = nominal)."""
    return statistics.median(samples) / NOMINAL_SLICE_S


class Stopwatch:
    """Sums timed sections, each scaled by the host slowdown measured on
    both sides of it (consecutive sections share a calibration)."""

    def __init__(self) -> None:
        #: Host seconds, and host seconds scaled to the nominal host.
        self.raw = 0.0
        self.scaled = 0.0
        #: ``(start, end)`` host-clock interval of every section.
        self.windows: List[Tuple[float, float]] = []
        self._calibration: Optional[List[float]] = None
        self._started: Optional[float] = None

    def start(self) -> None:
        if self._calibration is None:
            self._calibration = slices()
        quiesce()
        self._started = clock()

    def stop(self) -> float:
        """End the section; returns its raw host seconds."""
        end = clock()
        elapsed = end - self._started
        self.windows.append((self._started, end))
        self.raw += elapsed
        if elapsed < SHORT_SECTION_S:
            self.scaled += elapsed / slowdown(self._calibration)
            return elapsed
        after = slices()
        self.scaled += elapsed / slowdown(self._calibration + after)
        self._calibration = after
        return elapsed
