"""Unit tests for topologies."""

import pytest

from repro.net.topology import Topology


def test_full_mesh_connects_all_pairs():
    topo = Topology(range(4))
    for a in range(4):
        for b in range(4):
            assert topo.connected(a, b) == (a != b)


def test_custom_links_validated():
    with pytest.raises(ValueError):
        Topology([0, 1], links=[(0, 2)])
    with pytest.raises(ValueError):
        Topology([0, 1], links=[(0, 0)])


def test_empty_topology_rejected():
    with pytest.raises(ValueError):
        Topology([])
