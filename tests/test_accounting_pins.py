"""The accounting outputs, pinned byte for byte.

Each count has one live write (a ``*Stats`` field or a ledger account);
the registry counters, the ledger's totals and its ``conservation``
report are read off those.  Moving a count from one place to another
must not move a single output byte, so the four accounting outputs of
four runs are pinned as sha256 digests of their canonical JSON:

* ``metrics`` -- ``RunResult.extra["metrics"]`` (the registry snapshot);
* ``cost`` -- ``extra["cost"]``, ``conservation`` included;
* ``timeseries`` -- ``extra["timeseries"]`` with each sample's
  ``counters`` key stripped (samples no longer carry one);
* ``transport_stats`` -- ``extra["transport_stats"]``.

A run pins only the outputs it produces.  The digests in
``tests/data/accounting_pins.json`` are re-captured only when a change
*intends* to move one of these outputs:

    PYTHONPATH=src python tests/test_accounting_pins.py > tests/data/accounting_pins.json
"""

import hashlib
import importlib.util
import json
from pathlib import Path

import pytest

from repro import build_system
from repro.core.config import FaultConfig, StorageRealismConfig
from repro.procs.failure import crash_at

from helpers import small_config

ROOT = Path(__file__).resolve().parent.parent
PINS = Path(__file__).parent / "data" / "accounting_pins.json"
OUTPUTS = ("metrics", "cost", "timeseries", "transport_stats")


def _observed_run():
    """The benchmark's ``observed_run`` trial at seed 1000, scale 0.1."""
    spec = importlib.util.spec_from_file_location(
        "e2e_workloads", ROOT / "benchmarks" / "e2e" / "workloads.py"
    )
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    (trial,) = workloads.WORKLOADS["observed_run"].specs(1000, 0.1)
    return trial.materialize()


def _costed(**overrides):
    """One crash, periodic checkpoints, the ledger and the sampler on."""
    return small_config(
        crashes=[crash_at(node=2, time=0.05)], checkpoint_every=3,
        cost_ledger=True, timeseries_window=0.02, **overrides,
    )


CONFIGS = {
    "flat-fbl-one-crash": lambda: small_config(crashes=[crash_at(node=2, time=0.05)]),
    "realism-ledger-sampler": lambda: _costed(
        protocol="pessimistic", recovery="local",
        storage_realism=StorageRealismConfig(
            incremental_checkpoints=True, group_commit=True,
            batch_window=0.005, log_compaction=True,
        ),
    ),
    "lossy-transport-ledger-sampler": lambda: _costed(
        transport="reliable", transport_params={"max_retries": 30},
        faults=FaultConfig(loss_prob=0.05),
    ),
    "observed-run": _observed_run,
}


def _canonical(value) -> str:
    return hashlib.sha256(
        json.dumps(value, sort_keys=True, separators=(",", ":")).encode("utf-8")
    ).hexdigest()


def pinned_outputs(name: str) -> dict:
    """Digest of each accounting output the named run produces."""
    extra = build_system(CONFIGS[name]()).run().extra
    if "timeseries" in extra:
        extra["timeseries"] = [
            {key: value for key, value in sample.items() if key != "counters"}
            for sample in extra["timeseries"]
        ]
    return {output: _canonical(extra[output]) for output in OUTPUTS if output in extra}


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_accounting_outputs_byte_identical(name):
    assert pinned_outputs(name) == json.loads(PINS.read_text())[name]


def test_every_output_is_pinned_somewhere():
    pins = json.loads(PINS.read_text())
    assert set(pins) == set(CONFIGS)
    assert {output for digests in pins.values() for output in digests} == set(OUTPUTS)


if __name__ == "__main__":
    print(json.dumps({name: pinned_outputs(name) for name in sorted(CONFIGS)}, indent=2))
