"""Property test: every stats class merges and dumps through ``Counters``.

For random field values of each accounting class, ``merged`` equals the
left fold of ``add`` and is associative; numbers sum, lists concatenate,
dicts add per key (new keys in first-seen order), the ``max`` field keeps
the maximum and the ``last`` field the last block's value.  ``as_dict``
lists the dataclass fields in declaration order, and
``FaultImpactStats.as_dict`` is pinned to a literal.  Derandomized, no
database.
"""

import copy
import dataclasses
import typing

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.faults import FaultImpactStats
from repro.cluster.pool import SpeculationStats
from repro.core.control_plane.online import OnlineControlStats
from repro.core.counters import Counters
from repro.core.policies import PolicyStats

PROPS = settings(derandomize=True, database=None, deadline=None,
                 max_examples=60)

CLASSES = [PolicyStats, OnlineControlStats, FaultImpactStats,
           SpeculationStats]

_VALUES = {
    int: st.integers(0, 10 ** 9),
    float: st.floats(0.0, 1e6, allow_nan=False, allow_infinity=False),
    typing.List[str]: st.lists(st.text("abcxyz", max_size=3), max_size=4),
    typing.Dict[int, int]: st.dictionaries(
        st.integers(-3, 12), st.integers(0, 100), max_size=5),
}


def blocks(cls):
    hints = typing.get_type_hints(cls)
    return st.builds(cls, **{f.name: _VALUES[hints[f.name]]
                             for f in dataclasses.fields(cls)})


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_every_stats_class_is_counters(cls):
    assert issubclass(cls, Counters)
    assert "add" not in vars(cls) and "as_dict" not in vars(cls)


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
@PROPS
@given(data=st.data())
def test_merged_is_the_fieldwise_fold(cls, data):
    a, b, c = (data.draw(blocks(cls)) for _ in range(3))
    inputs = copy.deepcopy((a, b, c))
    merged = cls.merged([a, None, b, c])
    assert merged == cls().add(a).add(b).add(c)
    assert merged == cls.merged([cls.merged([a, b]), c])
    assert (a, b, c) == inputs  # merging never writes into its inputs

    for f in dataclasses.fields(cls):
        values = [getattr(block, f.name) for block in (a, b, c)]
        got = getattr(merged, f.name)
        merge = f.metadata.get("merge")
        if merge == "max":
            assert got == max(values)
        elif merge == "last":
            assert got == values[-1]
        elif isinstance(values[0], list):
            assert got == values[0] + values[1] + values[2]
        elif isinstance(values[0], dict):
            order = list(dict.fromkeys(k for v in values for k in v))
            assert list(got) == order
            assert got == {k: sum(v.get(k, 0) for v in values) for k in order}
        else:
            assert got == values[0] + values[1] + values[2]


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
@PROPS
@given(data=st.data())
def test_as_dict_lists_fields_in_declaration_order(cls, data):
    block = data.draw(blocks(cls))
    out = block.as_dict()
    assert list(out) == [f.name for f in dataclasses.fields(cls)]
    for name, value in out.items():
        field_value = getattr(block, name)
        if isinstance(field_value, dict):
            assert list(value) == [str(k) for k in sorted(field_value)]
            assert value == {str(k): n for k, n in field_value.items()}
        else:
            assert value == field_value
            if isinstance(field_value, list):
                assert value is not field_value


def test_merged_of_nothing_is_zero():
    assert FaultImpactStats.merged([]) == FaultImpactStats()
    assert PolicyStats.merged([None, None]) == PolicyStats()


def test_fault_impact_as_dict_literal():
    stats = FaultImpactStats(
        n_fail_events=3, n_repair_events=2, vms_affected=40,
        vms_migrated_local=30, vms_live_migrated=7, vms_killed=3,
        migrated_local_gb=120.5, live_migrated_gb=28.0, killed_gb=12.25,
        stranded_gb=64.0, capacity_lost_gb=256.0,
        recovery_latency_s_total=7200.0, recovery_latency_s_max=5400.0,
        n_recoveries=2, n_unrecovered=1,
        blast_radius_by_group={10: 5, 2: 30, -1: 5},
        killed_vm_ids=["vm-9", "vm-1", "vm-4"],
    )
    assert stats.as_dict() == {
        "n_fail_events": 3,
        "n_repair_events": 2,
        "vms_affected": 40,
        "vms_migrated_local": 30,
        "vms_live_migrated": 7,
        "vms_killed": 3,
        "migrated_local_gb": 120.5,
        "live_migrated_gb": 28.0,
        "killed_gb": 12.25,
        "stranded_gb": 64.0,
        "capacity_lost_gb": 256.0,
        "recovery_latency_s_total": 7200.0,
        "recovery_latency_s_max": 5400.0,
        "n_recoveries": 2,
        "n_unrecovered": 1,
        "blast_radius_by_group": {"-1": 5, "2": 30, "10": 5},
        "killed_vm_ids": ["vm-9", "vm-1", "vm-4"],
    }
    assert list(stats.as_dict()) == [
        "n_fail_events", "n_repair_events", "vms_affected",
        "vms_migrated_local", "vms_live_migrated", "vms_killed",
        "migrated_local_gb", "live_migrated_gb", "killed_gb", "stranded_gb",
        "capacity_lost_gb", "recovery_latency_s_total",
        "recovery_latency_s_max", "n_recoveries", "n_unrecovered",
        "blast_radius_by_group", "killed_vm_ids",
    ]
    assert list(stats.as_dict()["blast_radius_by_group"]) == ["-1", "2", "10"]
