"""The three register read/write stacks compared in Figs 18 and 19.

- :class:`P4RuntimeStack` — register access through the gRPC + P4Runtime
  server + driver path (no PacketOut).  Models the paper's "P4Runtime"
  variant.
- :class:`PlainRegOpDataplane` / :class:`PlainController` — register
  access via PacketOut/PacketIn messages processed in the data plane,
  with **no authentication**: the paper's "DP-Reg-RW" variant (and the
  vulnerable client the RouteScout attack rides on).
- The P4Auth variant is :class:`repro.core.P4AuthController` +
  :class:`repro.core.P4AuthDataplane` — DP-Reg-RW plus digests.

All three are codecs over one request lifecycle
(:class:`repro.core.requests.RequestCore`: seq issue, pending table,
FIFO departure, deadline/retry/abandon, RCT histogram), and
:func:`deploy_stack` is the one way to put any of them on a network.
:mod:`repro.runtime.harness` drives any of them with the paper's
sequential request workload and reports RCT and throughput.
"""

from repro.runtime.plain import (
    CTL_HEADER,
    PlainRegOpDataplane,
    PlainController,
)
from repro.runtime.p4runtime import P4RuntimeStack
from repro.runtime.harness import RunStats, run_sequential
from repro.runtime.comparison import STACKS, build_stack, deploy_stack, measure

__all__ = [
    "CTL_HEADER",
    "PlainRegOpDataplane",
    "PlainController",
    "P4RuntimeStack",
    "RunStats",
    "run_sequential",
    "STACKS",
    "build_stack",
    "deploy_stack",
    "measure",
]
