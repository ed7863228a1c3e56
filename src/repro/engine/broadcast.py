"""Broadcast variables: read-only values shipped once to every worker.

Shark's map join (Section 3.1.1) broadcasts the small table to all nodes.
In this in-process engine the value is shared by reference, but the size is
recorded so the cost model can charge for the network transfer, and the
broadcast registry lets tests assert what got broadcast and how big it was.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.cluster.worker import approximate_size_bytes


class Broadcast:
    """A read-only value available to every task via ``.value``.

    With an ``accountant``, the value's bytes are charged to the
    driver's execution pool under ``broadcast_<id>`` until the
    broadcast is destroyed or the owning query releases its accounting.
    """

    def __init__(
        self,
        broadcast_id: int,
        value: Any,
        accountant=None,
        size_bytes: Optional[int] = None,
    ):
        self.broadcast_id = broadcast_id
        self._value = value
        # A caller that already sized the value (a join build side)
        # passes it in rather than walking a large structure twice.
        self.size_bytes = (
            size_bytes
            if size_bytes is not None
            else approximate_size_bytes(value)
        )
        self._destroyed = False
        self._accountant = accountant
        if accountant is not None:
            from repro.engine.memory import DRIVER_WORKER

            accountant.reserve(
                DRIVER_WORKER,
                "execution",
                f"broadcast_{broadcast_id}",
                self.size_bytes,
            )

    @property
    def value(self) -> Any:
        if self._destroyed:
            raise ValueError(
                f"broadcast {self.broadcast_id} was destroyed and cannot be read"
            )
        return self._value

    def release_accounting(self) -> int:
        """Return this broadcast's ledger charge (idempotent); the value
        stays readable — only the memory attribution ends."""
        if self._accountant is None:
            return 0
        accountant, self._accountant = self._accountant, None
        return accountant.release_owner(f"broadcast_{self.broadcast_id}")

    def destroy(self) -> None:
        """Release the value (frees worker memory on a real cluster)."""
        self.release_accounting()
        self._destroyed = True
        self._value = None

    def __repr__(self) -> str:
        status = "destroyed" if self._destroyed else f"{self.size_bytes}B"
        return f"Broadcast({self.broadcast_id}, {status})"
