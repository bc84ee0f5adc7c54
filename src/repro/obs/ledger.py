"""The communication-cost ledger: byte-exact purpose attribution.

Every wire byte and every stable-storage byte/op is charged to one
account keyed ``(domain, process, peer, purpose, phase)``:

* **domain** — ``wire`` (network transmissions), ``storage`` (stable
  device transfers) or ``gc`` (reclaimed space, a credit account);
* **process / peer** — the sender and destination for wire charges, the
  device owner and operation direction (``read``/``write``) for storage;
* **purpose** — the fixed taxonomy :data:`PURPOSES`, mapping traffic to
  the paper's cost terms (piggybacked dependency metadata, determinant
  logging, recovery control, checkpoint transfer, ...);
* **phase** — ``failure-free``, or ``recovery-N`` while the N-th
  recovery episode of the run is in progress (nested episodes attribute
  to the most recently begun one, matching how the trace's span chains
  nest).

The keystone property is **byte conservation**: the ledger is charged at
exactly the statements that mutate :class:`~repro.net.network.NetworkStats`
and :class:`~repro.storage.stable.StableStorageStats` -- the counts of
record -- so account sums equal those totals *to the byte*
(:meth:`CostLedger.conservation`).  A
wire message splits into header + piggyback + body sub-charges that
re-add to its transmitted size; a group-commit batch charges one device
op and per-entry purpose bytes that re-add to the flushed total.

Charging is host-side bookkeeping only — no simulated events, no
randomness — so the ledger can never perturb a run (the goldens in
``tests/test_cost_ledger.py`` prove byte-identical results with it on).
"""

from __future__ import annotations

from operator import itemgetter
from typing import Any, Dict, List, Optional, Tuple

#: The fixed purpose taxonomy (see docs/OBSERVABILITY.md for the mapping
#: to the paper's cost terms).
PURPOSES = (
    "app-payload",
    "header",
    "piggyback-determinant",
    "control-plane",
    "retransmit",
    "recovery-data",
    "checkpoint",
    "determinant-log",
    "gc-metadata",
)

#: Protocol-kind message types whose body is not plain control traffic.
_PROTOCOL_BODY_PURPOSE = {
    "retransmit_data": "recovery-data",  # logged messages re-sent to a recoverer
    "det_push": "determinant-log",  # determinants pushed to reach f+1 hosts
    "gc_notice": "gc-metadata",
    "stable_info": "gc-metadata",  # stability gossip drives log pruning
}

#: Recovery-kind message types that carry recovered data rather than
#: round control (replies with determinants / dependency vectors).
_RECOVERY_DATA_MTYPES = frozenset(
    {"recovery_reply", "depinfo_reply", "depinfo_distribute"}
)

_FAILURE_FREE = "failure-free"
_BYTES = itemgetter(1)  # of an account or purpose cell
_EMPTY = (0, 0)


def classify_wire(kind: str, mtype: str) -> str:
    """Purpose of a message *body* from its accounting kind and mtype.

    The header and piggyback portions of the same message are charged to
    the ``header`` / ``piggyback-determinant`` accounts separately.
    """
    if kind == "application":
        return "app-payload"
    if kind == "protocol":
        return _PROTOCOL_BODY_PURPOSE.get(mtype, "control-plane")
    if kind == "recovery":
        return (
            "recovery-data" if mtype in _RECOVERY_DATA_MTYPES else "control-plane"
        )
    if kind == "storage":
        # traffic to a stable-storage process (f = n logging)
        return "determinant-log"
    return "control-plane"  # transport acks and anything future


def classify_storage(name: str, is_log: bool = False) -> str:
    """Purpose of a stable-storage operation from its key / log name."""
    if is_log:
        # every append-only log holds determinants / receipts / HOPs
        return "determinant-log"
    if name.startswith("checkpoint:") or name.startswith("round:"):
        return "checkpoint"
    if name.startswith("recovery_reply:"):
        return "recovery-data"
    if name.startswith("admode:"):
        # the adaptive stack's epoch-stamped mode markers: switch events
        # are control traffic, not determinant logging
        return "control-plane"
    # commit markers, gather progress and other durable control records
    return "control-plane"


class CostLedger:
    """Byte-exact cost accounts, fed by pre-bound subsystem hooks.

    Accounts map ``(domain, proc, peer, purpose, phase)`` to
    ``[count, bytes]``.  For wire accounts ``count`` is messages charged
    to that account (each message counts once on its body account, once
    on ``header``, once on ``piggyback-determinant`` when it piggybacks);
    for storage accounts it is logical operations (each batched append
    counts, the shared device op is counted in :attr:`device_ops`).

    A charge writes its account cell and the cell's purpose roll-up
    (:attr:`purposes`), which lets a per-window reader take totals
    without scanning the accounts; every total is read off those two
    (:meth:`totals`).  The ``*Stats`` objects stay the counts of record:
    :meth:`conservation` checks the accounts against them.

    The off path stays zero-cost: subsystems hold ``cost = None`` and
    guard every charge with a single ``is not None`` branch, exactly
    like the span pre-binding pattern.
    """

    def __init__(self) -> None:
        self.accounts: Dict[Tuple[str, Any, Any, str, str], List[int]] = {}
        #: domain -> purpose -> ``[count, bytes]``: the accounts summed
        #: over process, peer and phase, in first-charge order
        self.purposes: Dict[str, Dict[str, List[int]]] = {
            "wire": {}, "storage": {}, "gc": {},
        }
        #: owner -> device operations (a group-commit flush is one op
        #: however many entries, and so storage account counts, it holds)
        self.device_ops: Dict[int, int] = {}
        # -- phase tracking ----------------------------------------------
        self._episodes_begun = 0
        self._phase_stack: List[Tuple[int, str]] = []
        self._phase = _FAILURE_FREE
        # -- optional collaborators (bound by System) --------------------
        #: a repro.sim.spans.SpanChainTracker when spans are on; charges
        #: then also accumulate into the collapsed-stack flame profile
        self.spans = None
        #: a repro.obs.sampler.CostSampler when time-series sampling is on
        self._sampler = None
        self.flame: Dict[Tuple[str, ...], int] = {}
        # -- what repeats, resolved once ---------------------------------
        #: (node, innermost open span, purpose) -> collapsed stack; a
        #: span's parent chain is fixed when it begins
        self._flame_stacks: Dict[Tuple[int, Optional[int], str], Tuple[str, ...]] = {}
        #: (src, dst, body purpose, phase) -> the body, header and
        #: piggyback ``(account, purpose)`` cell pairs (piggyback ``None``
        #: until a message carries one)
        self._wire_cells: Dict[Tuple[int, int, str, str], List[Any]] = {}

    # ------------------------------------------------------------------
    # phases
    # ------------------------------------------------------------------
    def begin_episode(self, node: int) -> None:
        """Enter the next numbered recovery phase (``node`` crashed)."""
        self._episodes_begun += 1
        phase = f"recovery-{self._episodes_begun}"
        self._phase_stack.append((node, phase))
        self._phase = phase

    def end_episode(self, node: int) -> None:
        """Leave ``node``'s recovery phase (it completed recovery)."""
        for i in range(len(self._phase_stack) - 1, -1, -1):
            if self._phase_stack[i][0] == node:
                del self._phase_stack[i]
                break
        self._phase = (
            self._phase_stack[-1][1] if self._phase_stack else _FAILURE_FREE
        )

    @property
    def phase(self) -> str:
        """The phase charges are currently attributed to."""
        return self._phase

    @property
    def episodes_begun(self) -> int:
        return self._episodes_begun

    # ------------------------------------------------------------------
    # charging
    # ------------------------------------------------------------------
    def _cells(
        self, domain: str, proc: Any, peer: Any, purpose: str, phase: str
    ) -> Tuple[List[int], List[int]]:
        """The ``(account, purpose roll-up)`` cell pair, made on first use."""
        key = (domain, proc, peer, purpose, phase)
        cell = self.accounts.get(key)
        if cell is None:
            cell = self.accounts[key] = [0, 0]
        totals = self.purposes[domain]
        total = totals.get(purpose)
        if total is None:
            total = totals[purpose] = [0, 0]
        return cell, total

    def _charge(self, domain: str, proc: Any, peer: Any, purpose: str, size: int) -> None:
        for cell in self._cells(domain, proc, peer, purpose, self._phase):
            cell[0] += 1
            cell[1] += size

    def _flame_add(self, node: int, purpose: str, size: int) -> None:
        key = (node, self.spans.innermost(node), purpose)
        stack = self._flame_stacks.get(key)
        if stack is None:
            kinds = [link["kind"] for link in reversed(self.spans.chain(node))]
            stack = self._flame_stacks[key] = (f"node {node}", *kinds, purpose)
        self.flame[stack] = self.flame.get(stack, 0) + size

    def charge_wire(
        self,
        now: float,
        src: int,
        dst: int,
        kind: str,
        mtype: str,
        size: int,
        header: int,
        piggyback: int,
        retransmit: bool,
    ) -> None:
        """Charge one transmission of ``size`` bytes (header + piggyback
        + body) from ``src`` to ``dst``.  Retransmitted copies charge
        their full size to the ``retransmit`` account — the cost of
        reliability is its own column, matching
        :meth:`NetworkStats.record_retransmit`."""
        sampler = self._sampler
        if sampler is not None and now >= sampler.next_boundary:
            sampler.flush_to(now)
        if retransmit:
            self._charge("wire", src, dst, "retransmit", size)
            if self.spans is not None:
                self._flame_add(src, "retransmit", size)
            return
        phase = self._phase
        body = size - header - piggyback
        purpose = classify_wire(kind, mtype)
        key = (src, dst, purpose, phase)
        cells = self._wire_cells.get(key)
        if cells is None:
            cells = self._wire_cells[key] = [
                self._cells("wire", src, dst, purpose, phase),
                self._cells("wire", src, dst, "header", phase),
                None,
            ]
        for cell in cells[0]:
            cell[0] += 1
            cell[1] += body
        for cell in cells[1]:
            cell[0] += 1
            cell[1] += header
        if piggyback:
            if cells[2] is None:
                cells[2] = self._cells("wire", src, dst, "piggyback-determinant", phase)
            for cell in cells[2]:
                cell[0] += 1
                cell[1] += piggyback
        if self.spans is not None:
            self._flame_add(src, purpose, body)
            self._flame_add(src, "header", header)
            if piggyback:
                self._flame_add(src, "piggyback-determinant", piggyback)

    def charge_storage(
        self,
        now: float,
        owner: int,
        op: str,
        name: str,
        size: int,
        is_log: bool = False,
    ) -> None:
        """Charge one stable-storage device operation of ``size`` bytes."""
        sampler = self._sampler
        if sampler is not None and now >= sampler.next_boundary:
            sampler.flush_to(now)
        purpose = classify_storage(name, is_log)
        self._charge("storage", owner, op, purpose, size)
        self.device_ops[owner] = self.device_ops.get(owner, 0) + 1
        if self.spans is not None:
            self._flame_add(owner, purpose, size)

    def charge_batch(
        self, now: float, owner: int, entries: List[Tuple[str, int]], total: int
    ) -> None:
        """Charge one group-commit flush: a *single* device op whose
        ``total`` bytes split per-entry by each log's purpose.

        ``entries`` is ``[(log_name, size_bytes), ...]``.  Only they are
        charged: ``total`` is what :meth:`StableStorage._flush_batch`
        adds to ``stats.bytes_written``, and :meth:`conservation` checks
        that the entries re-add to it."""
        sampler = self._sampler
        if sampler is not None and now >= sampler.next_boundary:
            sampler.flush_to(now)
        for log, size in entries:
            purpose = classify_storage(log, is_log=True)
            self._charge("storage", owner, "write", purpose, size)
            if self.spans is not None:
                self._flame_add(owner, purpose, size)
        self.device_ops[owner] = self.device_ops.get(owner, 0) + 1

    def charge_gc(self, now: float, owner: int, size: int) -> None:
        """Credit ``size`` reclaimed bytes (a zero-I/O metadata op)."""
        sampler = self._sampler
        if sampler is not None and now >= sampler.next_boundary:
            sampler.flush_to(now)
        self._charge("gc", owner, "-", "gc-metadata", size)

    # ------------------------------------------------------------------
    # conservation (the keystone check)
    # ------------------------------------------------------------------
    def conservation(
        self, network_stats: Any, storage_stats: Dict[int, Any]
    ) -> Dict[str, Any]:
        """Check the accounts against the counts of record, the stats.

        The ledger column is summed from the accounts (device ops from
        :attr:`device_ops`), so equality tests the one thing the ledger
        adds: that its purpose split partitions every charge.

        Byte-exact equalities (``==`` on integers, no tolerance):

        * wire account bytes == ``NetworkStats.total_bytes()`` +
          ``retransmit_bytes``; ``header`` account counts ==
          ``total_messages()``, ``retransmit`` account counts ==
          ``retransmits``;
        * per device, storage ops / storage account bytes ==
          ``operations`` / ``total_bytes`` of that device's stats;
        * per device, gc account bytes == ``bytes_reclaimed``.
        """
        wire_bytes = messages = retransmits = 0
        owner_bytes: Dict[Tuple[str, Any], int] = {}
        for (domain, proc, _peer, purpose, _phase), (count, nbytes) in self.accounts.items():
            if domain == "wire":
                wire_bytes += nbytes
                if purpose == "header":
                    messages += count
                elif purpose == "retransmit":
                    retransmits += count
            else:
                owner_bytes[domain, proc] = owner_bytes.get((domain, proc), 0) + nbytes
        checks: Dict[str, Any] = {
            "wire_bytes": {
                "ledger": wire_bytes,
                "expected": network_stats.total_bytes() + network_stats.retransmit_bytes,
            },
            "wire_messages": {"ledger": messages, "expected": network_stats.total_messages()},
            "wire_retransmits": {"ledger": retransmits, "expected": network_stats.retransmits},
        }
        columns = {"storage_ops": [0, 0], "storage_bytes": [0, 0], "gc_bytes": [0, 0]}
        per_device_ok = True
        for owner, stats in sorted(storage_stats.items()):
            for name, ledger, expected in (
                ("storage_ops", self.device_ops.get(owner, 0), stats.operations),
                ("storage_bytes", owner_bytes.get(("storage", owner), 0), stats.total_bytes),
                ("gc_bytes", owner_bytes.get(("gc", owner), 0), stats.bytes_reclaimed),
            ):
                columns[name][0] += ledger
                columns[name][1] += expected
                per_device_ok = per_device_ok and ledger == expected
        for name, (ledger, expected) in columns.items():
            checks[name] = {"ledger": ledger, "expected": expected}
        checks["per_device"] = per_device_ok
        checks["conserved"] = per_device_ok and all(
            isinstance(check, bool) or check["ledger"] == check["expected"]
            for check in checks.values()
        )
        return checks

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------
    def by_purpose(self, domain: str = "wire") -> Dict[str, int]:
        """Total bytes per purpose within one domain, sorted by name."""
        return {
            purpose: cell[1] for purpose, cell in sorted(self.purposes[domain].items())
        }

    def by_phase(self, domain: str = "wire") -> Dict[str, int]:
        """Total bytes per phase within one domain (failure-free first)."""
        totals: Dict[str, int] = {}
        for (dom, _proc, _peer, _purpose, phase), cell in self.accounts.items():
            if dom == domain:
                totals[phase] = totals.get(phase, 0) + cell[1]
        return dict(
            sorted(totals.items(), key=lambda kv: (kv[0] != _FAILURE_FREE, kv[0]))
        )

    def link_matrix(self) -> Dict[Tuple[int, int], int]:
        """Wire bytes per directed ``(src, dst)`` link (all purposes)."""
        totals: Dict[Tuple[int, int], int] = {}
        for (dom, proc, peer, _purpose, _phase), cell in self.accounts.items():
            if dom == "wire":
                totals[(proc, peer)] = totals.get((proc, peer), 0) + cell[1]
        return totals

    def totals(self) -> Dict[str, Any]:
        """Run totals, read off the purpose roll-up and the device ops:
        what :meth:`summary` reports and the sampler differences."""
        wire = self.purposes["wire"]
        # purpose -> bytes, built without a Python-level frame: the
        # sampler takes this once per window
        wire_bytes = dict(zip(wire, map(_BYTES, wire.values())))
        return {
            "wire": wire_bytes,
            "wire_bytes": sum(wire_bytes.values()),
            "wire_messages": wire.get("header", _EMPTY)[0],
            "wire_retransmits": wire.get("retransmit", _EMPTY)[0],
            "storage_bytes": sum(map(_BYTES, self.purposes["storage"].values())),
            "storage_ops": sum(self.device_ops.values()),
            "gc_bytes": sum(map(_BYTES, self.purposes["gc"].values())),
        }

    def overhead_share(self) -> float:
        """Fraction of wire bytes that is not application payload —
        the paper's failure-free overhead number."""
        totals = self.totals()
        if not totals["wire_bytes"]:
            return 0.0
        return 1.0 - totals["wire"].get("app-payload", 0) / totals["wire_bytes"]

    def flame_lines(self) -> List[str]:
        """Collapsed-stack lines (``frame;frame;purpose bytes``) in the
        format speedscope and ``flamegraph.pl`` load directly."""
        return [
            ";".join(stack) + f" {size}"
            for stack, size in sorted(self.flame.items())
            if size > 0
        ]

    def summary(
        self,
        network_stats: Optional[Any] = None,
        storage_stats: Optional[Dict[int, Any]] = None,
    ) -> Dict[str, Any]:
        """JSON-able roll-up for ``RunResult.extra["cost"]``."""
        totals = self.totals()
        out: Dict[str, Any] = {
            "wire": {
                "total_bytes": totals["wire_bytes"],
                "messages": totals["wire_messages"],
                "retransmits": totals["wire_retransmits"],
                "by_purpose": self.by_purpose("wire"),
                "by_phase": self.by_phase("wire"),
            },
            "storage": {
                "total_bytes": totals["storage_bytes"],
                "ops": totals["storage_ops"],
                "by_purpose": self.by_purpose("storage"),
                "by_phase": self.by_phase("storage"),
            },
            "gc": {"total_bytes": totals["gc_bytes"]},
            "overhead_share": self.overhead_share(),
            "episodes": self._episodes_begun,
            "accounts": [
                [domain, proc, peer, purpose, phase, cell[0], cell[1]]
                for (domain, proc, peer, purpose, phase), cell in sorted(
                    self.accounts.items(),
                    key=lambda kv: tuple(map(str, kv[0])),
                )
            ],
        }
        if network_stats is not None and storage_stats is not None:
            out["conservation"] = self.conservation(network_stats, storage_stats)
            out["conserved"] = out["conservation"]["conserved"]
        return out

    # ------------------------------------------------------------------
    # cross-trial dump/merge (repro.runner)
    # ------------------------------------------------------------------
    def dump(self) -> Dict[str, Any]:
        """Picklable, mergeable state (see :func:`merge_cost_dumps`)."""
        return {
            "accounts": [
                [list(key), cell[0], cell[1]]
                for key, cell in sorted(
                    self.accounts.items(), key=lambda kv: tuple(map(str, kv[0]))
                )
            ],
            "device_ops": dict(sorted(self.device_ops.items())),
            "episodes": self._episodes_begun,
            "flame": [
                [list(stack), size] for stack, size in sorted(self.flame.items())
            ],
        }


def merge_cost_dumps(dumps: List[Dict[str, Any]]) -> CostLedger:
    """Fold per-trial :meth:`CostLedger.dump` outputs into one ledger.

    Accounts, device ops and flame stacks sum.  Folding happens
    strictly in the order given (the runner passes dumps in spec order),
    so merged reports are identical at any job count.  Per-trial
    recovery phases keep their own ordinals — a merged ``recovery-1``
    aggregates every trial's first episode, which is what a sweep report
    wants to compare.
    """
    merged = CostLedger()
    for dump in dumps:
        for key_list, count, nbytes in dump["accounts"]:
            for cell in merged._cells(*key_list):
                cell[0] += count
                cell[1] += nbytes
        for owner, ops in dump["device_ops"].items():
            merged.device_ops[owner] = merged.device_ops.get(owner, 0) + ops
        merged._episodes_begun = max(merged._episodes_begun, dump["episodes"])
        for stack_list, size in dump.get("flame", []):
            key = tuple(stack_list)
            merged.flame[key] = merged.flame.get(key, 0) + size
    return merged
