"""A config is a value: a run reads it and never writes it.

A trial is a pure function of its config.  The same config object run
twice, or a :func:`dataclasses.replace` copy of it that shares its plan
lists, fires the same faults and computes the same run; and a run leaves
its config equal to a deep copy taken before it.  A trace-triggered
plan's trigger state belongs to the run's ``FailureInjector``, not to
the plan.
"""

import copy
import json
from dataclasses import asdict, fields, replace

import pytest
from helpers import e2e_workloads

from repro.core.config import (
    AdaptiveConfig,
    FaultConfig,
    StorageRealismConfig,
    SystemConfig,
)
from repro.core.system import run_config
from repro.procs import failure
from test_chaos import chaos_config

#: the e2e scale the second test runs every workload's specs at
SCALE = 0.05


def recovery_churn_second_crash():
    """``recovery_churn``'s trace-triggered case: node 5 dies the
    instant the first recovery's request reaches it."""
    (spec,) = [
        spec for spec in e2e_workloads()["recovery_churn"].specs(1000, 0.1)
        if spec.label == "failure-during-recovery-nonblocking-0"
    ]
    return spec.config


def churn_chaos_with_injections():
    """A churn chaos trial with a storage outage plan, a partition and
    two crashes."""
    config = chaos_config("fbl", "nonblocking", 2, 3, profile="churn")
    assert config.injections and config.faults.partitions and len(config.crashes) == 2
    return config


def fingerprint(result):
    """What the run computed (the e2e benchmark's ``sim_fingerprint``
    fields) and how many recoveries it ran."""
    return json.dumps([
        result.digests, result.end_time, result.deliveries,
        asdict(result.network), result.storage_ops, len(result.episodes),
    ], sort_keys=True)


@pytest.mark.parametrize("make", [recovery_churn_second_crash, churn_chaos_with_injections],
                         ids=["recovery-churn-trace-triggered", "chaos-churn-injections"])
def test_one_config_runs_the_same_every_time(make):
    """Both crashes fire in each run: twice on one config object, then
    on a ``replace`` copy that shares its plan lists."""
    config = make()
    runs = [run_config(config), run_config(config), run_config(replace(config))]
    assert len({fingerprint(result) for result in runs}) == 1
    assert len(runs[0].episodes) == 2


def every_workload_config():
    configs = [
        spec.config
        for workload in e2e_workloads().values()
        for spec in workload.specs(1000, SCALE)
    ]
    return configs + [churn_chaos_with_injections()]


def test_a_run_leaves_its_config_as_it_was():
    for config in every_workload_config():
        before = copy.deepcopy(config)
        run_config(config)
        assert config == before, config.name


@pytest.mark.parametrize("cls", [
    SystemConfig, FaultConfig, StorageRealismConfig, AdaptiveConfig,
    failure.TriggeredPlan, failure.CrashPlan, failure.LinkFaultPlan,
    failure.PartitionPlan, failure.StorageFaultPlan,
])
def test_config_and_plan_classes_are_frozen(cls):
    assert cls.__dataclass_params__.frozen
    assert not any(f.name.startswith("_") for f in fields(cls))
