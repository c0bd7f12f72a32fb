"""Reference oracle: the fair queue that scans every registered tenant.

This is the original :class:`~repro.serve.queue.FairCommandQueue`
selection, kept only to check the indexed queue against it pop for pop.
Each pop walks the rotation over *all* registered tenants and a new
round rewrites every tenant's credit, so a pop costs O(registered
tenants).
"""

from collections import deque

from repro.serve.queue import _DEAD, _POPPED


class ScanLane:
    """One priority lane: per-tenant FIFOs under weighted round-robin."""

    def __init__(self):
        self.queues = {}
        self.order = []
        self.weight = {}
        self.credit = {}
        self.cursor = 0
        self.live = 0
        self.live_by = {}

    def add_tenant(self, name, weight):
        if name in self.queues:
            return
        self.queues[name] = deque()
        self.order.append(name)
        self.weight[name] = weight
        self.credit[name] = weight
        self.live_by[name] = 0

    def push(self, name, item):
        self.queues[name].append(item)
        self.live_by[name] += 1
        self.live += 1

    def discard_one(self, name):
        self.live_by[name] -= 1
        self.live -= 1

    def backlogged(self):
        return [t for t in self.order if self.live_by[t]]

    def pop(self):
        if self.live == 0:
            return None
        order, queues = self.order, self.queues
        credit, live_by = self.credit, self.live_by
        n = len(order)
        scanned = 0
        while True:
            if scanned >= n:
                # Full rotation with no credit left anywhere: new round.
                weight = self.weight
                for t in order:
                    credit[t] = weight[t]
                scanned = 0
            t = order[self.cursor]
            q = queues[t]
            while q and getattr(q[0], _DEAD, False):
                q.popleft()
            if live_by[t] and credit[t] > 0:
                item = q.popleft()
                live_by[t] -= 1
                self.live -= 1
                credit[t] -= 1
                if credit[t] == 0 or not live_by[t]:
                    self.cursor = (self.cursor + 1) % n
                return item
            self.cursor = (self.cursor + 1) % n
            scanned += 1


class ScanFairCommandQueue:
    """The synchronous surface of the queue over :class:`ScanLane`."""

    def __init__(self, n_lanes=3):
        self.lanes = [ScanLane() for _ in range(n_lanes)]
        self.pop_log = []

    def __len__(self):
        return sum(lane.live for lane in self.lanes)

    def add_tenant(self, name, weight=1):
        for lane in self.lanes:
            lane.add_tenant(name, weight)

    def backlog(self, lane=None):
        lanes = self.lanes if lane is None else [self.lanes[lane]]
        out = {}
        for ln in lanes:
            for t, n in ln.live_by.items():
                if n:
                    out[t] = out.get(t, 0) + n
        return out

    def put(self, tenant, lane, item):
        self.lanes[lane].push(tenant, item)

    def discard(self, tenant, lane, item):
        if getattr(item, _DEAD, False):
            return
        setattr(item, _DEAD, True)
        self.lanes[lane].discard_one(tenant)

    def pop(self):
        for idx, lane in enumerate(self.lanes):
            if lane.live:
                before = tuple(lane.backlogged())
                item = lane.pop()
                self.pop_log.append((idx, item.tenant, before))
                setattr(item, _POPPED, True)
                return item
        return None
