"""Every service request resolves: a deadline on each stack's requests.

A dropped or tampered dp->c response used to leave its op pending
forever.  The shard's issue window then never freed the slot, so enough
of them (one window's worth, all to one switch) wedged every switch the
shard owns.  Each test bounds its wait in wall-clock time, so a
regression fails instead of hanging.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.attacks.control_plane import RegisterResponseTamperer
from repro.core.constants import REG_OP
from repro.runtime.comparison import STACKS
from repro.service import ControllerService, FleetConfig, ServiceClient

#: Wall-clock bound on any one await (the fixed code needs well under 1 s).
WAIT_S = 20.0


def run_on_one_shard(stack: str, scenario) -> None:
    """Run ``scenario(service, client)`` against sw0 and sw1 on one shard."""

    async def main() -> None:
        service = ControllerService(FleetConfig(stack=stack, m=2, shards=1))
        await service.start()
        try:
            await scenario(service, ServiceClient(service))
            await asyncio.wait_for(service.stop(), WAIT_S)
        finally:
            # A wedged shard never drains: cancel its task instead.
            for worker in service.workers.values():
                if worker._task is not None:
                    worker._task.cancel()

    asyncio.run(main())


def drop_responses(service, switch: str, count: int) -> dict:
    state = {"dropped": 0}

    def tap(packet, direction):
        if direction == "dp->c" and packet.has(REG_OP) \
                and state["dropped"] < count:
            state["dropped"] += 1
            return None
        return packet

    worker = service.worker_for(switch)
    worker.net.control_channels[switch].add_tap(tap)
    return state


@pytest.mark.parametrize("stack", STACKS)
def test_one_dropped_response_still_resolves(stack):
    async def scenario(service, client):
        dropped = drop_responses(service, "sw0", 1)
        result = await asyncio.wait_for(
            client.write("sw0", "target", 2, 0xAB), WAIT_S)
        assert dropped["dropped"] == 1
        assert result["ok"]  # the retry landed
        worker = service.worker_for("sw0")
        assert worker.status()["in_flight"] == 0
        assert worker.stack.requests.stats.retries == 1

    run_on_one_shard(stack, scenario)


@pytest.mark.parametrize("stack", STACKS)
def test_dropped_responses_to_one_switch_do_not_stall_another(stack):
    async def scenario(service, client):
        assert service.owner_of("sw0") == service.owner_of("sw1")
        dropped = drop_responses(service, "sw0", 40)
        flood = asyncio.ensure_future(client.batch([
            {"kind": "write", "switch": "sw0", "register": "target",
             "index": i % 16, "value": i} for i in range(40)]))
        await asyncio.sleep(0)
        healthy = await asyncio.wait_for(
            client.write("sw1", "target", 0, 0x5EED), WAIT_S)
        assert healthy["ok"]
        outcome = await asyncio.wait_for(flood, WAIT_S)
        assert len(outcome["results"]) == 40
        assert dropped["dropped"] == 40
        assert service.worker_for("sw0").status()["in_flight"] == 0

    run_on_one_shard(stack, scenario)


def test_tampered_p4auth_response_resolves():
    async def scenario(service, client):
        worker = service.worker_for("sw0")
        reg_id = worker.net.switch("sw0").registers.id_of("target")
        tamperer = RegisterResponseTamperer([(reg_id, 7)],
                                            lambda value: value ^ 0x666)
        tamperer.attach(worker.net.control_channels["sw0"])
        result = await asyncio.wait_for(client.read("sw0", "target", 7),
                                        WAIT_S)
        # Detected on every attempt, retried, then abandoned.
        assert result["ok"] is False
        attempts = worker.stack.requests.max_attempts
        assert len(worker.stack.tamper_events) == attempts
        assert worker.stack.requests.stats.abandoned == 1
        assert worker.status()["in_flight"] == 0

    run_on_one_shard("P4Auth", scenario)
