"""The P4Runtime register-access stack (cost model).

The paper's first variant performs register reads/writes through the
P4Runtime API: gRPC request to the P4Runtime server in the switch control
plane, then SDK/driver calls into the ASIC.  No PacketOut is involved and
the packet pipeline is bypassed, so we model this stack as a timed
sequence of cost-model charges around a direct register access — the
shape that matters for Figs 18/19 is its extra per-request stack overhead
and the read/write compose asymmetry (paper: read throughput is 1.7x
write throughput because writes compose both the index and the data).

Security-wise this path runs *through the untrusted switch OS*: the
control-channel taps apply, which is exactly why the paper's threat model
defeats TLS-protected P4Runtime (§I) — the tamper happens below the gRPC
endpoint.  We model that by routing the request's parameters through the
same tap chain as PacketOut messages.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.core.constants import REG_OP, RegOpType
from repro.core.requests import RequestCore, RequestStack
from repro.dataplane.packet import Packet
from repro.dataplane.switch import DataplaneSwitch
from repro.net.network import Network
from repro.runtime.plain import build_plain_request, compose_plain_request


class P4RuntimeStack(RequestStack):
    """Register access via the (modeled) P4Runtime API."""

    def __init__(self, network: Network,
                 request_timeout_s: Optional[float] = None,
                 max_request_attempts: int = 3):
        self.network = network
        self.sim = network.sim
        self.costs = network.costs
        self._switches: Dict[str, DataplaneSwitch] = {}
        # A request "departs" when it reaches the P4Runtime server: the
        # per-switch FIFO horizon is one ordered gRPC stream, so a
        # cheap-to-compose read issued after a write never arrives first.
        # A request or response the switch OS drops is simply never
        # answered; the deadline (if any) retries it.
        self.requests = RequestCore(
            self.sim, network.telemetry, "P4Runtime", compose=self._compose,
            depart=self._apply, timeout_s=request_timeout_s,
            max_attempts=max_request_attempts)

    def provision(self, switch: DataplaneSwitch) -> None:
        self._switches[switch.name] = switch
        self.requests.seqs.setdefault(switch.name, 1)

    def _compose(self, switch: str, kind: str, reg_name: str, index: int,
                 value: int, seq: int) -> Tuple[Packet, float]:
        # The request parameters, framed so the compromised-OS tap chain
        # can mangle them on the way through the SDK/driver.
        surrogate, compose_cost = compose_plain_request(
            self.costs, kind, self._switches[switch].registers.id_of(reg_name),
            index, value, seq)
        # Compose + gRPC/P4Runtime server overhead, then one C-DP transit.
        request_delay = (compose_cost + self.costs.p4runtime_overhead_s
                         + self.network.jittered(self.costs.cdp_one_way_s))
        return surrogate, self.sim.now + request_delay

    def _apply(self, switch: str, surrogate: Packet) -> None:
        ctl = surrogate.get("ctl")
        seq, is_read = ctl["seqNum"], ctl["msgType"] == RegOpType.READ_REQ
        channel = self.network.control_channels[switch]
        survivor = channel.transit(surrogate, "c->dp")
        if survivor is None:
            return
        device = self._switches[switch]
        payload = survivor.get(REG_OP)
        register = device.registers.get(device.registers.name_of(
            payload["regId"]))
        ok = True
        if is_read:
            result = register.read(payload["index"])
        else:
            try:
                register.write(payload["index"], payload["value"])
                result = payload["value"]
            except (ValueError, IndexError):
                ok = False
                result = 0
        # Driver apply cost + response transit back through the OS.
        response = build_plain_request(
            RegOpType.ACK if ok else RegOpType.NACK,
            payload["regId"], payload["index"], result, seq,
        )
        survivor_up = channel.transit(response, "dp->c")
        if survivor_up is None:
            return
        response_delay = (self.costs.switch_fwd_s
                          + self.network.jittered(self.costs.cdp_one_way_s)
                          + self.costs.controller_proc_s)
        self.sim.schedule(
            response_delay, self.requests.resolve, switch, seq,
            survivor_up.get("ctl")["msgType"] == RegOpType.ACK,
            survivor_up.get(REG_OP)["value"])
