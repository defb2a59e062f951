"""DP-Reg-RW: unauthenticated register access over PacketOut/PacketIn.

The paper's middle variant — register read/write requests are crafted as
PacketOut messages and processed in the data plane (like P4Auth), but
carry no digest.  It is both the fair performance baseline for Figs 18/19
and the attack surface for the C-DP adversary demos: a control-channel
tap can rewrite these messages and nobody notices.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.core.constants import REG_OP, REG_OP_HEADER, RegOpType
from repro.core.requests import RequestCore, RequestStack
from repro.dataplane.headers import HeaderType
from repro.dataplane.packet import Packet
from repro.dataplane.pipeline import PipelineContext
from repro.dataplane.switch import DataplaneSwitch
from repro.dataplane.tables import MatchActionTable, MatchKind, TableEntry
from repro.net.network import Network

#: Unauthenticated control header: message type + sequence number only.
CTL_HEADER = HeaderType("ctl", [
    ("msgType", 8),
    ("seqNum", 32),
])


def build_plain_request(msg_type: RegOpType, reg_id: int, index: int,
                        value: int, seq_num: int) -> Packet:
    packet = Packet()
    packet.push("ctl", CTL_HEADER.instantiate(msgType=int(msg_type),
                                              seqNum=seq_num))
    packet.push(REG_OP, REG_OP_HEADER.instantiate(regId=reg_id, index=index,
                                                  value=value))
    return packet


def compose_plain_request(costs, kind: str, reg_id: int, index: int,
                          value: int, seq_num: int) -> Tuple[Packet, float]:
    """A ``kind`` request in the plain frame, and its compose cost."""
    if kind == "read":
        return (build_plain_request(RegOpType.READ_REQ, reg_id, index,
                                    value, seq_num), costs.compose_read_s)
    return (build_plain_request(RegOpType.WRITE_REQ, reg_id, index, value,
                                seq_num), costs.compose_write_s)


class PlainRegOpDataplane:
    """Data-plane handler for unauthenticated register operations."""

    def __init__(self, switch: DataplaneSwitch):
        self.switch = switch
        self.mapping_table = MatchActionTable(
            "plain_reg_id_to_name",
            [("regId", MatchKind.EXACT, 32), ("opType", MatchKind.EXACT, 8)],
            max_entries=4096,
        )
        switch.add_table(self.mapping_table)
        self._op_index = 0
        self._op_value = 0
        self._op_result = 0
        self._op_ok = False
        self.regops_served = 0

    def install(self) -> "PlainRegOpDataplane":
        self.switch.pipeline.insert_stage(0, "plain_regop", self._stage)
        return self

    def map_register(self, name: str) -> int:
        register = self.switch.registers.get(name)
        reg_id = self.switch.registers.id_of(name)

        def do_read() -> None:
            self._op_ok = True
            self._op_result = register.read(self._op_index)

        def do_write() -> None:
            self._op_ok = True
            register.write(self._op_index, self._op_value)
            self._op_result = self._op_value

        self.mapping_table.register_action(f"{name}_read", do_read)
        self.mapping_table.register_action(f"{name}_write", do_write)
        self.mapping_table.insert(TableEntry(
            key=(reg_id, int(RegOpType.READ_REQ)), action=f"{name}_read"))
        self.mapping_table.insert(TableEntry(
            key=(reg_id, int(RegOpType.WRITE_REQ)), action=f"{name}_write"))
        return reg_id

    def map_all_registers(self) -> Dict[str, int]:
        return {
            name: self.map_register(name)
            for name in self.switch.registers.names()
            if not name.startswith("p4auth_")
        }

    def _stage(self, ctx: PipelineContext) -> None:
        packet = ctx.packet
        if (ctx.ingress_port != DataplaneSwitch.CPU_PORT
                or not packet.has("ctl") or not packet.has(REG_OP)):
            return
        ctl = packet.get("ctl")
        payload = packet.get(REG_OP)
        self._op_index = payload["index"]
        self._op_value = payload["value"]
        self._op_ok = False
        self._op_result = 0
        self.mapping_table.lookup(payload["regId"], ctl["msgType"])
        msg_type = RegOpType.ACK if self._op_ok else RegOpType.NACK
        if self._op_ok:
            self.regops_served += 1
        response = build_plain_request(
            msg_type, payload["regId"], payload["index"],
            self._op_result, ctl["seqNum"],
        )
        ctx.to_controller(response, reason="plain reg-op response")
        ctx.stop()


class PlainController(RequestStack):
    """Controller for the DP-Reg-RW stack (no authentication).

    API-compatible with :class:`repro.core.P4AuthController` for register
    operations, so in-network system controllers (e.g., RouteScout's) can
    run over either stack.
    """

    def __init__(self, network: Network,
                 request_timeout_s: Optional[float] = None,
                 max_request_attempts: int = 3):
        self.network = network
        self.sim = network.sim
        self.costs = network.costs
        self.requests = RequestCore(
            self.sim, network.telemetry, "DP-Reg-RW", compose=self._compose,
            depart=network.send_packet_out, timeout_s=request_timeout_s,
            max_attempts=max_request_attempts)
        self._reg_ids: Dict[str, Dict[str, int]] = {}
        network.attach_controller(self)

    def provision(self, switch: DataplaneSwitch) -> None:
        self._reg_ids[switch.name] = {
            reg_name: reg_id
            for reg_id, reg_name in switch.registers.id_map().items()
        }
        self.requests.seqs.setdefault(switch.name, 1)

    def _compose(self, switch: str, kind: str, reg_name: str, index: int,
                 value: int, seq: int) -> Tuple[Packet, float]:
        request, compose_cost = compose_plain_request(
            self.costs, kind, self._reg_ids[switch][reg_name], index, value,
            seq)
        return request, self.sim.now + compose_cost

    def handle_packet_in(self, switch: str, packet: Packet) -> None:
        if not packet.has("ctl"):
            return
        ctl = packet.get("ctl")
        value = packet.get(REG_OP)["value"] if packet.has(REG_OP) else 0
        self.requests.resolve(switch, ctl["seqNum"],
                              ctl["msgType"] == RegOpType.ACK, value)
