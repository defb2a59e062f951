"""Shared pieces of the benchmark workloads: episodes, gates, fingerprints."""

from __future__ import annotations

import gc
import hashlib
import json
import math
import time
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

#: Host clock for every timing the benchmark reports.
clock = time.perf_counter


class CheckFailed(RuntimeError):
    """A correctness check failed; the run reports no numbers."""

    def __init__(self, failures: Sequence[str], attempted: int = 0,
                 failed: int = 0):
        super().__init__("; ".join(failures))
        self.failures = list(failures)
        self.attempted = attempted
        self.failed = failed


@dataclass
class Episode:
    """One set-up plus one timed phase of a workload, with its checks done.

    ``setup_s`` and ``phase_s`` are scaled to the nominal host
    (:mod:`pbench.calibrate`); ``raw_*`` are the host seconds measured.
    ``windows`` are the host-clock intervals of the timed sections; a
    traced run attributes only the spans that start inside them.
    """

    setup_s: float
    phase_s: float
    raw_setup_s: float
    raw_phase_s: float
    #: User-level operations completed in the timed phase.
    ops: int
    #: Operations attempted / failed (C-DP requests, KMP exchanges, or
    #: data packets), set-up excluded.
    attempted: int
    failed: int
    #: Switch pipeline passes during the timed phase.
    passes: int
    #: sha256 over the simulated (virtual-time) statistics.
    fingerprint: str
    windows: List[Tuple[float, float]] = field(default_factory=list)
    #: Workload-specific host-time samples (latencies, round times),
    #: scaled like ``phase_s``.
    samples: Dict[str, List[float]] = field(default_factory=dict)
    #: Per-layer counts read from the program's public counters.
    counters: Dict[str, float] = field(default_factory=dict)

    @property
    def slowdown(self) -> float:
        """Measured over scaled host time: 1.0 on the nominal host."""
        return ((self.raw_setup_s + self.raw_phase_s)
                / (self.setup_s + self.phase_s))


def quiesce() -> None:
    """Collect garbage so each timed section starts from a settled heap."""
    gc.collect()


def fingerprint(stats: object) -> str:
    """sha256 of the canonical JSON form of ``stats``.

    Floats are rendered with ``repr`` (shortest round-trip form), so two
    runs agree exactly when their simulated statistics do.
    """
    def canon(value):
        if isinstance(value, float):
            return repr(value)
        if isinstance(value, dict):
            return {str(k): canon(v) for k, v in value.items()}
        if isinstance(value, (list, tuple)):
            return [canon(v) for v in value]
        return value

    blob = json.dumps(canon(stats), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def percentile(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile (``pct`` in 0..100); NaN when empty."""
    if not values:
        return math.nan
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


def beyond(values: Sequence[float], pct: float) -> int:
    """How many samples lie strictly above the ``pct`` percentile."""
    if not values:
        return 0
    cut = percentile(values, pct)
    return sum(1 for value in values if value > cut)


def median(values: Sequence[float]) -> float:
    return percentile(values, 50.0)


def require(failures: List[str], ok: bool, message: str) -> None:
    """Record ``message`` as a failed check unless ``ok``."""
    if not ok:
        failures.append(message)


def raise_if(failures: List[str], attempted: int, failed: int) -> None:
    if failures:
        raise CheckFailed(failures, attempted, failed)


def span_in(windows: Sequence[Tuple[float, float]], start: float) -> bool:
    return any(lo <= start <= hi for lo, hi in windows)
