"""The fair command queue: weighted round-robin with priority lanes.

Dispatch order is the serving layer's fairness policy, so it is fully
deterministic and very boring on purpose:

* **lanes** are strict priorities — a queued interactive command always
  dispatches before any queued normal command, which always dispatches
  before background work (the same idea as the DMS giving prefetch I/O
  a lower :class:`~repro.des.resources.Resource` priority);
* **within a lane** tenants are served weighted round-robin: each
  *round*, a tenant with backlog receives up to ``weight`` consecutive
  dispatches; the rotation order is tenant registration order, and a
  round ends when every backlogged tenant has exhausted its credit.

The WRR invariant the property suite pins: while a tenant stays
backlogged, at most ``sum(weights of concurrently backlogged tenants)``
dispatches separate two of its consecutive dispatches — no starvation
within a lane, with service share proportional to weight.

Items are arbitrary objects (the server queues
:class:`~repro.serve.server.ServeHandle`); :meth:`discard` cancels a
queued item by lazy tombstoning: it stays in its FIFO until a pop
reaches it or the tenant has no live item left in that lane.

Per-request cost does not depend on how many tenants are registered,
only on how many are backlogged in the lane (``B``).  Each lane keeps
bisect-maintained indexes of its backlogged tenants, and of those with
credit left this round, by registration position.  So
:meth:`~FairCommandQueue.put`, :meth:`~FairCommandQueue.get` and
:meth:`~FairCommandQueue.discard` cost O(log B) Python steps; inserts,
deletes and the copy that starts a new round add O(B) memmoves in C.
A new round bumps an epoch instead of rewriting every tenant's credit
(credit stamped with an older epoch reads as the full weight), and a
tenant's per-lane FIFO is created on its first push into that lane.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from collections import deque
from typing import Any

from ..des.kernel import Environment, Event
from .tenancy import N_LANES

__all__ = ["FairCommandQueue"]

#: attribute stamped on discarded items (lazy tombstone).
_DEAD = "_fairq_dead"
#: attribute stamped on items the moment they are popped.  A popped
#: item may not have started executing yet (the dispatcher process gets
#: its first step later in the same timestep); the stamp lets the
#: server distinguish "still cancellable in-queue" from "already
#: dispatched" without a race.
_POPPED = "_fairq_popped"


def _remove(index: list[int], pos: int) -> None:
    """Drop ``pos`` from the sorted ``index`` if it is there."""
    i = bisect_left(index, pos)
    if i < len(index) and index[i] == pos:
        del index[i]


class _Backlog:
    """One tenant's FIFO and WRR credit in one lane."""

    __slots__ = ("items", "live", "credit", "epoch")

    def __init__(self) -> None:
        self.items: deque = deque()
        self.live = 0
        self.credit = 0
        #: round the credit was last spent in; older means full weight.
        self.epoch = -1


class _Lane:
    """One priority lane: per-tenant FIFOs under weighted round-robin.

    Tenants are their registration positions in the queue-wide
    ``order``.  ``backlog`` holds the positions with live items and
    ``eligible`` those of them with credit left this round, both sorted,
    so the WRR cursor's next tenant is one bisection away.
    """

    __slots__ = ("order", "weight", "tenants", "backlog", "eligible",
                 "epoch", "cursor", "live")

    def __init__(self, order: list[str], weight: list[int]) -> None:
        self.order = order
        self.weight = weight
        self.tenants: dict[int, _Backlog] = {}
        self.backlog: list[int] = []
        self.eligible: list[int] = []
        self.epoch = 0
        self.cursor = 0
        self.live = 0

    def push(self, pos: int, item: Any) -> None:
        b = self.tenants.get(pos)
        if b is None:
            b = self.tenants[pos] = _Backlog()
        b.items.append(item)
        b.live += 1
        self.live += 1
        if b.live == 1:
            insort(self.backlog, pos)
            if b.epoch != self.epoch or b.credit > 0:
                insort(self.eligible, pos)

    def discard_one(self, pos: int) -> None:
        b = self.tenants[pos]
        b.live -= 1
        self.live -= 1
        if not b.live:
            b.items.clear()  # only tombstones are left
            _remove(self.backlog, pos)
            _remove(self.eligible, pos)

    def backlogged(self) -> list[str]:
        return [self.order[p] for p in self.backlog]

    def pop(self) -> Any:
        """The WRR-next live item; ``None`` when the lane is empty.

        The next tenant is the first one at or after the cursor, in
        cyclic registration order, that is backlogged with credit left.
        When no backlogged tenant has credit, a new round starts and
        every tenant's credit is its weight again.  The cursor stays on
        a tenant that keeps credit and backlog, else moves past it.
        """
        if self.live == 0:
            return None
        eligible = self.eligible
        if not eligible:
            self.epoch += 1
            eligible = self.eligible = self.backlog[:]
        i = bisect_left(eligible, self.cursor)
        if i == len(eligible):
            i = 0
        pos = eligible[i]
        b = self.tenants[pos]
        q = b.items
        # Purge tombstoned items at the head (lazy cancellation).
        while getattr(q[0], _DEAD, False):
            q.popleft()
        item = q.popleft()
        b.live -= 1
        self.live -= 1
        credit = (b.credit if b.epoch == self.epoch else self.weight[pos]) - 1
        b.credit = credit
        b.epoch = self.epoch
        if credit == 0 or not b.live:
            self.cursor = (pos + 1) % len(self.order)
            del eligible[i]
            if not b.live:
                q.clear()  # only tombstones are left
                _remove(self.backlog, pos)
        else:
            self.cursor = pos
        return item


class FairCommandQueue:
    """Multi-lane weighted-fair queue with event-based consumption.

    :meth:`get` returns a DES :class:`Event` that fires with the next
    item the fairness policy selects — immediately if backlog exists,
    else when the next :meth:`put` arrives.  The *selection happens at
    fire time*, so a dispatcher that waits for a free worker slot
    first, then calls :meth:`get`, always receives the globally best
    queued command at the moment capacity frees up.
    """

    def __init__(self, env: Environment, n_lanes: int = N_LANES,
                 record_pops: bool = False):
        self.env = env
        #: tenants in registration order, their positions and weights;
        #: shared by every lane.
        self._order: list[str] = []
        self._pos: dict[str, int] = {}
        self._weight: list[int] = []
        self._lanes = [_Lane(self._order, self._weight)
                       for _ in range(n_lanes)]
        self._getters: deque[Event] = deque()
        #: optional dispatch audit log for the fairness property suite:
        #: (lane, tenant, tuple-of-backlogged-tenants-before-this-pop).
        self.record_pops = record_pops
        self.pop_log: list[tuple[int, str, tuple[str, ...]]] = []

    def __len__(self) -> int:
        return sum(lane.live for lane in self._lanes)

    def add_tenant(self, name: str, weight: int = 1) -> None:
        """Register ``name`` in every lane's rotation (idempotent)."""
        if name in self._pos:
            return
        if weight < 1:
            raise ValueError(f"weight must be >= 1, got {weight}")
        self._pos[name] = len(self._order)
        self._order.append(name)
        self._weight.append(weight)

    def backlog(self, lane: int | None = None) -> dict[str, int]:
        """Live queued items per tenant (one lane or all lanes summed)."""
        lanes = self._lanes if lane is None else [self._lanes[lane]]
        out: dict[str, int] = {}
        for ln in lanes:
            for pos in ln.backlog:
                t = self._order[pos]
                out[t] = out.get(t, 0) + ln.tenants[pos].live
        return out

    # ------------------------------------------------------------ put/get
    def put(self, tenant: str, lane: int, item: Any) -> None:
        """Enqueue ``item`` for ``tenant`` in ``lane``."""
        self._lanes[lane].push(self._pos[tenant], item)
        while self._getters:
            getter = self._getters.popleft()
            if getter.triggered:
                continue
            nxt = self._pop()
            if nxt is None:  # pragma: no cover - defensive
                self._getters.appendleft(getter)
            else:
                getter.succeed(nxt)
            return

    def get(self) -> Event:
        """An event yielding the next item under the fairness policy."""
        evt = Event(self.env)
        item = self._pop()
        if item is not None:
            evt.succeed(item)
        else:
            self._getters.append(evt)
        return evt

    def discard(self, tenant: str, lane: int, item: Any) -> None:
        """Cancel a queued item (tombstone; purged on pop)."""
        if getattr(item, _DEAD, False):
            return
        setattr(item, _DEAD, True)
        self._lanes[lane].discard_one(self._pos[tenant])

    # ------------------------------------------------------------ helpers
    @staticmethod
    def popped(item: Any) -> bool:
        """Has ``item`` already left the queue?"""
        return getattr(item, _POPPED, False)

    def _pop(self) -> Any:
        for idx, lane in enumerate(self._lanes):
            if lane.live:
                if self.record_pops:
                    before = tuple(lane.backlogged())
                    item = lane.pop()
                    self.pop_log.append(
                        (idx, getattr(item, "tenant", "?"), before)
                    )
                else:
                    item = lane.pop()
                setattr(item, _POPPED, True)
                return item
        return None
