"""The deterministic application process model.

Rollback-recovery by message logging rests on the *piecewise
deterministic* (PWD) assumption: a process's execution is a deterministic
function of its initial state and the sequence of messages it delivers.
:class:`ApplicationProcess` enforces PWD by construction -- all activity
is message-driven (initial sends are a deterministic function of the
initial state; there are no timers or other nondeterministic inputs) and
the reaction to each delivery is delegated to a pure
:class:`~repro.workloads.generators.Workload` function.

The process maintains a SHA-256 *digest chain* over its delivery history.
Two executions that delivered the same messages in the same order have
equal digests, which is how the test suite proves that replayed
executions reproduce the pre-crash state exactly.
"""

from __future__ import annotations

from hashlib import sha256
from typing import Any, Dict, List, NamedTuple, Tuple

#: sentinel destination for sends aimed at the outside world (output
#: commit); see :mod:`repro.core.output`
OUTPUT_DST = -2


class Send(NamedTuple):
    """An application-level send request: destination, payload, size.

    ``dst = OUTPUT_DST`` requests an *output commit*: the payload goes
    to the outside world once the protocol deems the state recoverable.
    """

    dst: int
    payload: Dict[str, Any]
    body_bytes: int = 128


def stable_payload_repr(payload: Dict[str, Any]) -> str:
    """Canonical string form of a payload, stable across runs."""
    return repr(sorted(payload.items()))


class ApplicationProcess:
    """A replayable, deterministic application endpoint.

    Parameters
    ----------
    node_id:
        This process's id.
    n_nodes:
        Total application processes in the system.
    workload:
        Pure behaviour function; see :mod:`repro.workloads.generators`.
    state_bytes:
        Modelled size of the process image (checkpoint size).  The
        paper's processes were "about one Mbyte".
    dirty_bytes_per_delivery:
        Modelled bytes of state touched by each delivery, feeding the
        copy-on-write dirty counter that incremental checkpoints charge
        instead of the full image.  Zero (the default) disables the
        tracking entirely.
    """

    def __init__(
        self,
        node_id: int,
        n_nodes: int,
        workload: "Workload",
        state_bytes: int = 1_000_000,
        dirty_bytes_per_delivery: int = 0,
    ) -> None:
        self.node_id = node_id
        self.n_nodes = n_nodes
        self.workload = workload
        self.state_bytes = state_bytes
        self.dirty_bytes_per_delivery = dirty_bytes_per_delivery
        #: bytes dirtied since the last checkpoint (saturates at the
        #: full image size -- rewriting a page twice dirties it once)
        self.dirty_bytes = 0
        self.delivered_count = 0
        self.digest = self._initial_digest()
        self.delivery_history: List[Tuple[int, int]] = []  # (sender, ssn) in order

    def _initial_digest(self) -> str:
        seed = f"init:{self.node_id}:{self.n_nodes}"
        return sha256(seed.encode()).hexdigest()

    # ------------------------------------------------------------------
    # deterministic behaviour
    # ------------------------------------------------------------------
    def initial_sends(self) -> List[Send]:
        """Sends generated at startup (deterministic in the initial state)."""
        return self.workload.initial_sends(self.node_id, self.n_nodes)

    def deliver(self, sender: int, ssn: int, payload: Dict[str, Any]) -> List[Send]:
        """Deliver one message; returns the sends it triggers.

        Advances the digest chain.  Calling this with the same arguments
        in the same order always produces the same digests and sends --
        this *is* the PWD assumption.
        """
        # the payload part is stable_payload_repr(payload), inline
        record = f"{self.digest}|{sender}:{ssn}:{sorted(payload.items())!r}"
        self.digest = sha256(record.encode()).hexdigest()
        rsn = self.delivered_count
        self.delivered_count += 1
        self.delivery_history.append((sender, ssn))
        if self.dirty_bytes_per_delivery:
            self.dirty_bytes = min(
                self.state_bytes, self.dirty_bytes + self.dirty_bytes_per_delivery
            )
        return self.workload.on_deliver(
            self.node_id, self.n_nodes, rsn, sender, payload
        )

    # ------------------------------------------------------------------
    # snapshot / restore (checkpointing support)
    # ------------------------------------------------------------------
    def snapshot(self) -> Dict[str, Any]:
        """Replayable state for a checkpoint (plain data, own copy)."""
        return {
            "delivered_count": self.delivered_count,
            "digest": self.digest,
            "delivery_history": list(self.delivery_history),
        }

    def mark_clean(self) -> None:
        """A checkpoint just snapshotted this state: nothing is dirty."""
        self.dirty_bytes = 0

    def restore(self, state: Dict[str, Any]) -> None:
        """Reset to a checkpointed state (start of replay).  ``state`` is
        adopted, not copied: pass a fresh decode of a checkpoint image."""
        self.delivered_count = state["delivered_count"]
        self.digest = state["digest"]
        self.delivery_history = state["delivery_history"]
        self.dirty_bytes = 0

    def reset(self) -> None:
        """Crash: volatile state vanishes (until a checkpoint is restored)."""
        self.delivered_count = 0
        self.digest = self._initial_digest()
        self.delivery_history = []
        self.dirty_bytes = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ApplicationProcess(node={self.node_id}, "
            f"delivered={self.delivered_count}, digest={self.digest[:8]})"
        )
