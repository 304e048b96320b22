"""Shared helpers for the replay differential tests."""

import pytest

from repro.cluster import TraceGenConfig, TraceGenerator
from repro.cluster.pool_topology import PoolTopology


@pytest.fixture(scope="session")
def crossshard_case():
    """Build positional ``replay_crossshard`` arguments for a 2x8-server
    fleet: ``crossshard_case(policy, topology, capacity_gb, constrain)``."""
    def build(policy, topology, capacity_gb, constrain):
        cfgs = [
            TraceGenConfig(cluster_id=f"xs-{i}", n_servers=8,
                           duration_days=0.6, mean_lifetime_hours=2.0,
                           target_core_utilization=0.85, seed=21 + i)
            for i in range(2)
        ]
        traces = [TraceGenerator(cfg).generate() for cfg in cfgs]
        topo = getattr(PoolTopology, topology)([8, 8], 2, 8)
        return (traces, [policy, policy], [8, 8],
                [cfg.server_config for cfg in cfgs], topo, capacity_gb,
                constrain, 3600.0)
    return build


@pytest.fixture(scope="session")
def one_shard():
    """``one_shard(simulator, trace, policy)``: positional
    ``replay_crossshard`` arguments that replay ``simulator``'s cluster as
    a one-shard fleet, the way ``ClusterSimulator.run`` does."""
    def build(simulator, trace, policy):
        pooled = bool(simulator.pool_size_sockets)
        topo = PoolTopology.per_shard([simulator.n_servers],
                                      simulator.server_config.sockets,
                                      simulator.pool_size_sockets)
        return ([trace], [policy if pooled else None], [simulator.n_servers],
                [simulator.server_config], topo,
                simulator.pool_capacity_gb_per_group,
                simulator.constrain_memory, simulator.sample_interval_s,
                simulator.record_placements)
    return build


@pytest.fixture
def forbid(monkeypatch):
    """``forbid(owner, name)`` makes any call to ``owner.name`` fail the
    test, to check that a replay never reaches that loop."""
    def install(owner, name):
        def refuse(*args, **kwargs):
            pytest.fail(f"{name} was called")
        monkeypatch.setattr(owner, name, refuse)
    return install
