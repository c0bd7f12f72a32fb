"""The indexed fair queue against the scanning reference, pop for pop.

:mod:`tests.serve.scan_queue` keeps the original rotation walk.  Any
interleaving of registrations (weights 1-4), puts across lanes,
cancellations and gets must dispatch the same items in the same order,
leave the same backlog, and write the same audit log.  A scaling test
pins that a pop no longer costs time in proportion to the registered
tenants.
"""

import time

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.des import Environment
from repro.serve import LANE_BACKGROUND, LANE_NORMAL
from repro.serve.queue import FairCommandQueue

from .scan_queue import ScanFairCommandQueue


class Item:
    def __init__(self, tenant, tag):
        self.tenant = tenant
        self.tag = tag


#: few tenants, mostly one lane, puts and gets in runs: backlogs build
#: up, rounds end, tenants idle and return.
PUT = st.tuples(st.just("put"), st.integers(0, 4),
                st.sampled_from((1, 1, 1, 0, 2)), st.integers(1, 4))
OPS = st.lists(
    st.one_of(
        PUT, PUT,
        st.tuples(st.just("get"), st.integers(1, 6)),
        st.tuples(st.just("add"), st.integers(1, 4)),
        st.tuples(st.just("discard"), st.integers(0, 1000)),
    ),
    min_size=1,
    max_size=60,
)


@given(weights=st.lists(st.integers(1, 4), min_size=1, max_size=6), ops=OPS)
@settings(max_examples=500, deadline=None)
def test_indexed_queue_matches_scan_oracle(weights, ops):
    queue = FairCommandQueue(Environment(), record_pops=True)
    oracle = ScanFairCommandQueue()
    names = []

    def add(weight):
        name = f"t{len(names)}"
        names.append(name)
        queue.add_tenant(name, weight)
        oracle.add_tenant(name, weight)

    for w in weights:
        add(w)
    queued = []  #: (lane, queue item, oracle item) not yet popped
    waiting = []  #: getters the queue could not serve yet
    served = []
    expected = []
    tag = 0
    for op in ops:
        if op[0] == "add":
            add(op[1])
        elif op[0] == "put":
            tenant = names[op[1] % len(names)]
            lane = op[2]
            for _ in range(op[3]):
                mine, theirs = Item(tenant, tag), Item(tenant, tag)
                tag += 1
                queue.put(tenant, lane, mine)
                oracle.put(tenant, lane, theirs)
                queued.append((lane, mine, theirs))
                if waiting:
                    evt = waiting.pop(0)
                    assert evt.triggered
                    served.append(evt.value.tag)
                    expected.append(oracle.pop().tag)
        elif op[0] == "discard" and queued:
            lane, mine, theirs = queued.pop(op[1] % len(queued))
            queue.discard(mine.tenant, lane, mine)
            oracle.discard(theirs.tenant, lane, theirs)
        elif op[0] == "get":
            for _ in range(op[1]):
                evt = queue.get()
                if evt.triggered:
                    served.append(evt.value.tag)
                    expected.append(oracle.pop().tag)
                else:
                    assert len(oracle) == 0
                    waiting.append(evt)
        queued = [q for q in queued if not FairCommandQueue.popped(q[1])]
        assert served == expected
        assert len(queue) == len(oracle)
        for lane in range(3):
            assert queue.backlog(lane) == oracle.backlog(lane)
        assert queue.backlog() == oracle.backlog()
    # Drain what is left: the tails must agree too.
    while len(queue):
        served.append(queue.get().value.tag)
        expected.append(oracle.pop().tag)
    assert served == expected
    assert queue.pop_log == oracle.pop_log


def test_scripted_rounds_with_idle_tenants_match_oracle():
    """Tenants drain, idle and return across round resets."""
    queue = FairCommandQueue(Environment())
    oracle = ScanFairCommandQueue()
    for q in (queue, oracle):
        q.add_tenant("a", 2)
        q.add_tenant("b", 3)
        q.add_tenant("c", 1)
    script = [
        ("a", 2), ("b", 1), ("get", 3), ("a", 3), ("c", 2), ("b", 4),
        ("get", 5), ("a", 1), ("get", 4), ("c", 3), ("get", 4),
    ]
    tag = 0
    for what, n in script:
        for _ in range(n):
            if what == "get":
                got = queue.get().value
                want = oracle.pop()
                assert (got.tenant, got.tag) == (want.tenant, want.tag)
            else:
                queue.put(what, LANE_NORMAL, Item(what, tag))
                oracle.put(what, LANE_NORMAL, Item(what, tag))
                tag += 1
    assert len(queue) == len(oracle) == 0


def test_get_cost_is_independent_of_registered_tenants():
    """100k registered tenants, 2 backlogged, 10k gets.

    The scan walks about half the rotation per pop here, some 10**9
    steps in all; the indexed queue takes a few tens of milliseconds.
    The bound sits over 50x above that, and the loop stops at the bound
    so a regression fails fast instead of running for minutes.
    """
    queue = FairCommandQueue(Environment())
    n_tenants, n_gets = 100_000, 10_000
    for i in range(n_tenants):
        queue.add_tenant(f"t{i}", 1 + i % 4)
    first, last = "t0", f"t{n_tenants - 1}"
    for i in range(n_gets // 2):
        queue.put(first, LANE_BACKGROUND, Item(first, i))
        queue.put(last, LANE_BACKGROUND, Item(last, i))
    bound_s = 2.0
    served = []
    t0 = time.perf_counter()
    deadline = t0 + bound_s
    for _ in range(n_gets):
        served.append(queue.get().value.tenant)
        if time.perf_counter() > deadline:
            break
    elapsed = time.perf_counter() - t0
    assert len(served) == n_gets, (
        f"only {len(served)} of {n_gets} gets within {bound_s} s"
    )
    assert elapsed < bound_s
    # WRR over the two backlogged tenants (weights 1 and 4).
    assert served[:10] == [first] + [last] * 4 + [first] + [last] * 4
    assert len(queue) == 0
