"""One benchmark run of one workload, inside the workload's own process.

An untraced run repeats episodes (fresh set-up, fixed seeded inputs,
timed phase, checks) until the timed phases add up to ``--seconds``, and
reports the end-to-end metrics: medians over episodes, with every timed
section scaled by the host slowdown measured around it
(:mod:`pbench.calibrate`).  A traced run plays one episode without
tracing and the same episode with every layer wrapped, and reports the
per-layer metrics and the tracing overhead.  Either way every episode
must pass its correctness checks and produce the same fingerprint of
simulated statistics.
"""

from __future__ import annotations

import hashlib
import os
import platform
import resource
import shutil
import sys
from typing import Dict, List, Optional, Tuple

from pbench import cdp_service, dpdp_hula, kmp_fleet, layers
from pbench.common import CheckFailed, Episode, beyond, median, percentile
from pbench.spans import Tracer

WORKLOADS = {mod.NAME: mod for mod in (cdp_service, dpdp_hula, kmp_fleet)}

#: End-to-end metrics: (name, unit, better, bound).  Every workload
#: reports all of them.
END_TO_END: List[Tuple[str, str, str, float]] = [
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("ops_per_s", "1/s", "higher", 0.2),
    ("dp_pkts_per_s", "1/s", "higher", 0.2),
]

#: Episodes every untraced run makes at least (so that one slow episode
#: cannot move the median, and episodes always have a fingerprint to
#: agree with), and set-ups it times.
MIN_EPISODES = 3
SETUP_SAMPLES = 5


def _metric(value: float, unit: str) -> Dict[str, object]:
    return {"value": value, "unit": unit}


def _fingerprint_of(episodes: List[Episode]) -> str:
    prints = {ep.fingerprint for ep in episodes}
    if len(prints) != 1:
        raise CheckFailed(
            [f"episodes of one run disagree on simulated statistics: "
             f"{sorted(p[:12] for p in prints)}"],
            sum(ep.attempted for ep in episodes),
            sum(ep.failed for ep in episodes))
    return prints.pop()


def details(episodes: List[Episode]) -> Dict[str, Dict[str, object]]:
    """Workload-specific host timings, pooled over the run's episodes
    (scaled to the nominal host, like the end-to-end metrics).

    ``*_ms`` samples are request latencies (median and p95, with the
    number of samples beyond the p95); ``*_s`` samples are round times
    (median).
    """
    pooled: Dict[str, List[float]] = {}
    for ep in episodes:
        for key, values in ep.samples.items():
            pooled.setdefault(key, []).extend(values)
    out: Dict[str, Dict[str, object]] = {}
    for key, values in sorted(pooled.items()):
        if key.endswith("_ms"):
            base = key[:-3]
            out[f"{base}_p50_ms"] = {"value": percentile(values, 50),
                                     "unit": "ms", "n": len(values)}
            out[f"{base}_p95_ms"] = {"value": percentile(values, 95),
                                     "unit": "ms", "n": len(values),
                                     "beyond": beyond(values, 95)}
        else:
            out[key] = {"value": median(values), "unit": "s",
                        "n": len(values)}
    attempted = sum(ep.attempted for ep in episodes)
    out["failed_frac"] = {"value": sum(ep.failed for ep in episodes)
                          / attempted, "unit": "frac", "n": attempted}
    return out


def measured_run(mod, seed: int, size: dict, seconds: float,
                 workdir: str) -> dict:
    episodes: List[Episode] = []
    while (len(episodes) < MIN_EPISODES
           or sum(ep.raw_phase_s for ep in episodes) < seconds):
        episodes.append(mod.run_episode(seed, size, workdir))
        print(f"  episode {len(episodes)}: setup "
              f"{episodes[-1].setup_s:.4f} s, phase "
              f"{episodes[-1].phase_s:.3f} s, host slowdown "
              f"{episodes[-1].slowdown:.3f}", file=sys.stderr)
    fp = _fingerprint_of(episodes)
    setups = [(ep.setup_s, ep.raw_setup_s) for ep in episodes]
    while len(setups) < SETUP_SAMPLES:
        watch = mod.setup_only(seed, size, workdir)
        setups.append((watch.scaled, watch.raw))
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    # Medians over episodes: a burst of load from elsewhere on the host
    # slows a few episodes, not the figure.
    metrics = {
        "setup_s": _metric(median([scaled for scaled, _raw in setups]),
                           "s"),
        "peak_rss_mb": _metric(rss_mb, "MB"),
        "ops_per_s": _metric(
            median([ep.ops / ep.phase_s for ep in episodes]), "1/s"),
        "dp_pkts_per_s": _metric(
            median([ep.passes / ep.phase_s for ep in episodes]), "1/s"),
    }
    detail = details(episodes)
    raw = {
        "raw_setup_s": (median([raw for _scaled, raw in setups]), "s"),
        "raw_ops_per_s": (median([ep.ops / ep.raw_phase_s
                                  for ep in episodes]), "1/s"),
        "raw_dp_pkts_per_s": (median([ep.passes / ep.raw_phase_s
                                      for ep in episodes]), "1/s"),
        "host_slowdown": (median([ep.slowdown for ep in episodes]), "x"),
    }
    for name, (value, unit) in raw.items():
        detail[name] = {"value": value, "unit": unit, "n": len(episodes)}
    return {"metrics": metrics, "detail": detail,
            "fingerprint": fp, "episodes": len(episodes),
            "attempted": sum(ep.attempted for ep in episodes),
            "failed": sum(ep.failed for ep in episodes)}


def traced_run(mod, seed: int, size: dict, workdir: str,
               spans_path: str) -> dict:
    reference = mod.run_episode(seed, size, workdir)
    tracer = Tracer()
    layers.install(tracer)
    try:
        traced = mod.run_episode(seed, size, workdir)
    finally:
        tracer.uninstall()
    fp = _fingerprint_of([reference, traced])
    values = layers.per_layer(tracer, traced, reference)
    units = {name: unit for name, unit, _better in layers.PER_LAYER}
    tracer.write(spans_path)
    return {"metrics": {name: _metric(values[name], units[name])
                        for name in units},
            "detail": details([reference]),
            "fingerprint": fp, "episodes": 2,
            "attempted": reference.attempted + traced.attempted,
            "failed": reference.failed + traced.failed}


def _git_revision(root: str) -> Optional[str]:
    """The checked-out commit, read from ``.git`` without running git."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as handle:
                return handle.read().strip()
        with open(os.path.join(git, "packed-refs")) as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        return None
    return None


def source_digest(root: str, subdir: str) -> str:
    """sha256 over every Python file under ``root/subdir`` (path and
    bytes): the code that decides what a run simulates."""
    digest = hashlib.sha256()
    src = os.path.join(root, subdir)
    for directory, dirs, files in sorted(os.walk(src)):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            if not name.endswith(".py"):
                continue
            path = os.path.join(directory, name)
            digest.update(os.path.relpath(path, src).encode("utf-8"))
            with open(path, "rb") as handle:
                digest.update(handle.read())
    return digest.hexdigest()


def metadata(root: str, seed: int) -> Dict[str, object]:
    from repro.crypto import vectorized

    try:
        import numpy
        numpy_version: Optional[str] = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "have_numpy": vectorized.HAVE_NUMPY,
        "cpu_count": os.cpu_count(),
        "git_revision": _git_revision(root),
        "src_sha256": source_digest(root, "src"),
        "bench_sha256": source_digest(root, "perfbench"),
        "seed": seed,
        "hash_seed": os.environ.get("PYTHONHASHSEED"),
        "platform": platform.platform(),
    }


def run(workload: str, seed: int, seconds: float, trace: bool, size: str,
        root: str, out_dir: str) -> dict:
    """Run one workload and return the result document (never raises
    :class:`CheckFailed`: a failed check yields ``correct: false``)."""
    mod = WORKLOADS[workload]
    workdir = os.path.join(out_dir, f"work-{workload}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    result: Dict[str, object] = {"workload": workload, "seed": seed,
                                 "trace": int(trace), "size": size,
                                 "seconds": seconds}
    try:
        # Warm-up: fill lazy imports and caches on a tiny episode.
        mod.run_episode(seed, mod.SIZES["tiny"], workdir)
        if trace:
            spans_path = os.path.join(
                out_dir, f"spans-{workload}-seed{seed}.tsv.gz")
            body = traced_run(mod, seed, mod.SIZES[size], workdir,
                              spans_path)
            result["spans_file"] = os.path.relpath(spans_path, root)
        else:
            body = measured_run(mod, seed, mod.SIZES[size], seconds,
                                workdir)
        result.update(body)
        result["correct"] = True
        result["failures"] = []
    except CheckFailed as exc:
        result.update({"correct": False, "failures": exc.failures,
                       "attempted": exc.attempted, "failed": exc.failed,
                       "metrics": {}, "detail": {}})
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result["meta"] = metadata(root, seed)
    return result
