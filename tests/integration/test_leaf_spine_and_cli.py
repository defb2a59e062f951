"""Leaf-spine HULA protection and the CLI entry points."""

import pytest

from repro.attacks.link import ProbeFieldTamperer
from repro.core.auth_dataplane import P4AuthConfig, P4AuthDataplane
from repro.core.controller import P4AuthController
from repro.net.topology import leaf_spine
from repro.systems.hula import (
    HulaDataplane,
    leaf_spine_hula_configs,
    make_data_packet,
    make_probe,
)


class TestLeafSpineHula:
    def build(self, protect=True):
        net, extras = leaf_spine(3, 2)
        sim = extras["sim"]
        configs = leaf_spine_hula_configs(3, 2)
        hulas = {name: HulaDataplane(net.switch(name), config).install()
                 for name, config in configs.items()}
        controller = None
        if protect:
            dataplanes = {}
            for index, name in enumerate(sorted(configs)):
                dataplanes[name] = P4AuthDataplane(
                    net.switch(name), k_seed=0x11E + index,
                    config=P4AuthConfig(protected_headers={"hula_probe"}),
                ).install()
            controller = P4AuthController(net)
            for dataplane in dataplanes.values():
                controller.provision(dataplane)
            controller.kmp.bootstrap_all()
            sim.run(until=1.0)
        return net, extras, hulas, controller

    def run_traffic(self, net, extras, duration_s=1.5):
        sim = extras["sim"]
        end = sim.now + duration_s

        def probes(round_index=0):
            if sim.now >= end:
                return
            for leaf_index in (1, 2, 3):
                extras["hosts"][f"leaf{leaf_index}"].send(
                    make_probe(leaf_index, round_index))
            sim.schedule(0.005, probes, round_index + 1)

        def data(seq=0):
            if sim.now >= end:
                return
            extras["hosts"]["leaf1"].send(make_data_packet(2, seq,
                                                           seq & 0xFFFF))
            sim.schedule(0.001, data, seq + 1)

        sim.schedule(0.0, probes)
        sim.schedule(0.02, data)
        sim.run(until=end)

    def test_unprotected_fabric_balances_and_delivers(self):
        net, extras, hulas, _ = self.build(protect=False)
        self.run_traffic(net, extras)
        delivered = len(extras["hosts"]["leaf2"].received)
        assert delivered > 1000

    def test_protected_fabric_delivers(self):
        net, extras, hulas, controller = self.build(protect=True)
        self.run_traffic(net, extras)
        delivered = len(extras["hosts"]["leaf2"].received)
        assert delivered > 1000
        assert len(controller.alerts) == 0  # no adversary, no noise

    def test_tampered_fabric_link_avoided(self):
        net, extras, hulas, controller = self.build(protect=True)
        adversary = ProbeFieldTamperer("hula_probe", "path_util",
                                       lambda util: (util + 7) % 101)
        adversary.attach(net.link_between("leaf2", "spine1"))
        self.run_traffic(net, extras)
        leaf1 = hulas["leaf1"]
        total = sum(leaf1.data_tx_per_port.values()) or 1
        # Port 3 on leaf1 is spine2; the healthy path takes everything.
        assert leaf1.data_tx_per_port.get(3, 0) / total > 0.9
        assert len(controller.alerts) > 0


class TestCli:
    def test_table2(self, capsys):
        from repro.__main__ import main
        assert main(["run", "table2", "--out-dir", ""]) == 0
        out = capsys.readouterr().out
        assert "51.4%" in out and "Table II" in out

    def test_fig20(self, capsys):
        from repro.__main__ import main
        assert main(["run", "fig20", "--short", "--out-dir", ""]) == 0
        out = capsys.readouterr().out
        assert "local_init" in out and "port_update" in out

    def test_rejects_unknown_experiment(self):
        from repro.__main__ import main
        with pytest.raises(SystemExit):
            main(["fig99"])
