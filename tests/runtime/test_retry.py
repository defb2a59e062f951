"""Bounded request retries, one contract checked on all three stacks.

Every stack defaults to fire-and-wait (a lost request stays pending and
never calls back); opting into ``request_timeout_s`` turns loss into
bounded retries with a terminal ``callback(False, 0)``.  Each resend is
freshly composed under a *fresh* sequence number — for P4Auth that
means re-signed (and, for encrypted writes, re-encrypted from the
plaintext), or the switch's replay window would reject the retry itself.
"""

from repro.core.auth_dataplane import P4AuthConfig, P4AuthDataplane
from repro.core.constants import P4AUTH, REG_OP
from repro.core.controller import P4AuthController
from repro.dataplane.switch import DataplaneSwitch
from repro.net.network import Network
from repro.net.simulator import EventSimulator
from repro.runtime.comparison import deploy_stack


def seq_of(packet):
    header = packet.get(P4AUTH) if packet.has(P4AUTH) else packet.get("ctl")
    return header["seqNum"]


def eat(net, direction, count=None, seen=None):
    """Tap s1's control channel: drop up to ``count`` register messages
    travelling ``direction`` (all of them when ``count`` is None)."""
    state = {"eaten": 0}

    def tap(packet, travelling):
        if travelling != direction or not packet.has(REG_OP):
            return packet
        if seen is not None:
            seen.append(seq_of(packet))
        if count is not None and state["eaten"] >= count:
            return packet
        state["eaten"] += 1
        return None

    net.control_channels["s1"].add_tap(tap)


class _RetryContract:
    STACK = ""

    def deploy(self, timeout_s=0.01):
        sim = EventSimulator()
        net = Network(sim)
        switch = DataplaneSwitch("s1", num_ports=2)
        net.add_switch(switch)
        switch.registers.define("target", 64, 16)
        stack, _ = deploy_stack(self.STACK, net, ["s1"],
                                k_seeds={"s1": 0x42}, bootstrap_s=0.1,
                                request_timeout_s=timeout_s)
        return sim, net, stack

    def test_lost_request_abandoned_terminally(self):
        sim, net, stack = self.deploy()
        seqs = []
        eat(net, "c->dp", seen=seqs)
        outcomes = []
        stack.write_register("s1", "target", 0, 0x42,
                             lambda ok, v: outcomes.append((ok, v)))
        sim.run(until=sim.now + 2.0)
        assert outcomes == [(False, 0)]
        assert stack.requests.stats.retries == 2
        assert stack.requests.stats.abandoned == 1
        assert stack.outstanding_count() == 0
        # Each resend was freshly composed: three distinct seq numbers.
        assert len(seqs) == 3 and len(set(seqs)) == 3

    def test_retry_recovers_from_a_single_loss(self):
        sim, net, stack = self.deploy()
        eat(net, "c->dp", count=1)
        outcomes = []
        stack.write_register("s1", "target", 3, 0x77,
                             lambda ok, v: outcomes.append((ok, v)))
        sim.run(until=sim.now + 2.0)
        assert outcomes == [(True, 0x77)]
        assert stack.requests.stats.retries == 1
        assert stack.requests.stats.abandoned == 0
        assert net.switch("s1").registers.get("target").read(3) == 0x77

    def test_read_retry_path(self):
        sim, net, stack = self.deploy()
        net.switch("s1").registers.get("target").write(4, 0x1234)
        eat(net, "c->dp", count=1)
        outcomes = []
        stack.read_register("s1", "target", 4,
                            lambda ok, v: outcomes.append((ok, v)))
        sim.run(until=sim.now + 2.0)
        assert outcomes == [(True, 0x1234)]
        assert stack.requests.stats.retries == 1

    def test_response_leg_loss_also_retried(self):
        sim, net, stack = self.deploy()
        eat(net, "dp->c", count=1)
        outcomes = []
        stack.write_register("s1", "target", 5, 0x99,
                             lambda ok, v: outcomes.append((ok, v)))
        sim.run(until=sim.now + 2.0)
        assert outcomes == [(True, 0x99)]
        assert stack.requests.stats.retries == 1

    def test_success_cancels_the_timeout(self):
        sim, net, stack = self.deploy()
        cancelled_before = sim.events_cancelled
        outcomes = []
        stack.write_register("s1", "target", 0, 0x11,
                             lambda ok, v: outcomes.append(ok))
        sim.run(until=sim.now + 2.0)
        assert outcomes == [True]  # no spurious late failure callback
        assert stack.requests.stats.retries == 0
        assert sim.events_cancelled == cancelled_before + 1

    def test_legacy_default_stays_silent(self):
        sim, net, stack = self.deploy(timeout_s=None)
        eat(net, "c->dp")
        outcomes = []
        stack.write_register("s1", "target", 0, 0x42,
                             lambda ok, v: outcomes.append(ok))
        sim.run(until=sim.now + 2.0)
        assert outcomes == []  # fire-and-wait: loss means no callback
        assert stack.requests.stats.abandoned == 0
        assert stack.outstanding_count() == 1


class TestPlainStackRetry(_RetryContract):
    STACK = "DP-Reg-RW"


class TestP4RuntimeStackRetry(_RetryContract):
    STACK = "P4Runtime"


class TestP4AuthStackRetry(_RetryContract):
    STACK = "P4Auth"

    def test_retried_write_reencrypts_and_lands_the_plain_value(self):
        sim = EventSimulator()
        net = Network(sim)
        switch = DataplaneSwitch("s1", num_ports=2)
        net.add_switch(switch)
        switch.registers.define("target", 64, 16)
        dataplane = P4AuthDataplane(
            switch, k_seed=0xE2C,
            config=P4AuthConfig(encrypt_regops=True)).install()
        dataplane.map_register("target")
        controller = P4AuthController(net, encrypt_regops=True,
                                      request_timeout_s=0.05)
        controller.provision(dataplane)
        controller.kmp.local_key_init("s1")
        sim.run(until=0.1)
        eat(net, "c->dp", count=1)
        outcomes = []
        controller.write_register("s1", "target", 2, 0xBEEF,
                                  lambda ok, v: outcomes.append(ok))
        sim.run(until=2.0)
        assert outcomes == [True]
        assert controller.requests.stats.retries == 1
        # The retry re-encrypted the original plaintext, not the ciphertext.
        assert switch.registers.get("target").read(2) == 0xBEEF
