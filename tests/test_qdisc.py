import random
from dataclasses import dataclass

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from minins.errors import ScenarioError
from minins.qdisc import (
    ACCEPTED,
    DropTail,
    EnqueueResult,
    QdiscConfig,
    Sfq,
    build_qdisc,
    sfq_bucket,
)
from minins.scenario import parse_scenario

from reference_model import ReferenceSfq, reference_bucket


@dataclass
class Pkt:
    uid: int
    fid: int = 0


# -- DropTail ---------------------------------------------------------------


def test_droptail_accepts_until_limit_then_drops_arrival():
    q = DropTail(limit=2)
    p1, p2, p3 = Pkt(1), Pkt(2), Pkt(3)
    assert q.enqueue(p1).dropped is None
    assert q.enqueue(p2).dropped is None
    result = q.enqueue(p3)
    assert result == EnqueueResult(dropped=p3)
    assert q.held() == 2
    assert q.dequeue() is p1
    assert q.dequeue() is p2
    assert q.held() == 0


def test_droptail_matches_list_model_on_random_interleavings():
    for trial in range(20):
        rng = random.Random(trial)
        limit = rng.randint(1, 8)
        q = DropTail(limit=limit)
        model = []
        uid = 0
        for _ in range(300):
            if rng.random() < 0.6:
                pkt = Pkt(uid)
                uid += 1
                got = q.enqueue(pkt)
                if len(model) < limit:
                    model.append(pkt)
                    assert got.dropped is None
                else:
                    assert got == EnqueueResult(dropped=pkt)
            elif model:  # a link dequeues only while held() > 0
                assert q.dequeue() is model.pop(0)
            assert q.held() == len(model) <= limit


# -- SFQ ---------------------------------------------------------------------


def test_sfq_bucket_matches_reference_hash():
    for fid in list(range(64)) + [10**9, 2**63, 2**64 - 1]:
        for buckets in (1, 7, 16):
            assert sfq_bucket(fid, buckets) == reference_bucket(fid, buckets)


def test_sfq_bucket_pure_and_mod_one():
    assert sfq_bucket(1234, 1) == 0
    assert sfq_bucket(42, 16) == sfq_bucket(42, 16)


def test_sfq_under_limit_accepts():
    q = Sfq(limit=40, buckets=16)
    assert q.enqueue(Pkt(1, fid=7)).dropped is None
    assert q.held() == 1


def test_sfq_overflow_drops_from_longest_bucket():
    # Flows in distinct buckets: A holds 3, B holds 1, limit 4. The new
    # A arrival makes A's bucket longest, so the arrival is the victim.
    fid_a, fid_b = 1, 2
    assert sfq_bucket(fid_a, 16) != sfq_bucket(fid_b, 16)
    q = Sfq(limit=4, buckets=16)
    for uid in range(3):
        assert q.enqueue(Pkt(uid, fid_a)).dropped is None
    assert q.enqueue(Pkt(10, fid_b)).dropped is None
    newcomer = Pkt(99, fid_a)
    result = q.enqueue(newcomer)
    assert result == EnqueueResult(dropped=newcomer)
    assert q.held() == 4


def test_sfq_overflow_can_evict_resident_of_longer_bucket():
    fid_a, fid_b = 1, 2
    q = Sfq(limit=4, buckets=16)
    residents = [Pkt(uid, fid_a) for uid in range(3)]
    for pkt in residents:
        q.enqueue(pkt)
    q.enqueue(Pkt(10, fid_b))
    newcomer = Pkt(99, fid_b)  # B holds 1; A's bucket (3) stays longest
    result = q.enqueue(newcomer)
    assert result.dropped is residents[-1]  # tail of the longest bucket
    assert q.held() == 4


def test_sfq_round_robin_service_order():
    fid_a, fid_b = 1, 2  # bucket(A)=5 < bucket(B)=10: scan meets A first
    assert sfq_bucket(fid_a, 16) < sfq_bucket(fid_b, 16)
    q = Sfq(limit=40, buckets=16)
    a = [Pkt(uid, fid_a) for uid in (1, 2, 3)]
    b = [Pkt(uid, fid_b) for uid in (4, 5, 6)]
    for pkt in a + b:
        q.enqueue(pkt)
    served = [q.dequeue() for _ in range(6)]
    assert served == [a[0], b[0], a[1], b[1], a[2], b[2]]
    assert q.held() == 0


def test_sfq_per_bucket_fifo_over_random_arrivals():
    rng = random.Random(7)
    q = Sfq(limit=500, buckets=16)
    sent = {fid: [] for fid in range(5)}
    for uid in range(400):
        fid = rng.randrange(5)
        pkt = Pkt(uid, fid)
        q.enqueue(pkt)
        sent[fid].append(pkt)
    got = {fid: [] for fid in range(5)}
    while q.held():
        pkt = q.dequeue()
        got[pkt.fid].append(pkt)
    assert got == sent  # order preserved within each flow


def test_sfq_two_backlogged_flows_share_service_k_plus_minus_1():
    fid_a, fid_b = 1, 2
    q = Sfq(limit=400, buckets=16)
    for uid in range(100):
        q.enqueue(Pkt(uid, fid_a))
        q.enqueue(Pkt(uid + 1000, fid_b))
    # Both flows stay backlogged through the first 160 services.
    served = [q.dequeue().fid for _ in range(160)]
    for k in (1, 2, 5, 10, 40):
        for lo in range(0, 160 - 2 * k):
            window = served[lo:lo + 2 * k]
            assert abs(window.count(fid_a) - k) <= 1


def test_sfq_conservation_counts():
    rng = random.Random(3)
    q = Sfq(limit=10, buckets=4)
    enq = drops = deq = 0
    for uid in range(500):
        if rng.random() < 0.7:
            enq += 1
            if q.enqueue(Pkt(uid, rng.randrange(8))).dropped is not None:
                drops += 1
        elif q.held():
            q.dequeue()
            deq += 1
        assert q.held() <= 10
    assert enq == deq + drops + q.held()


# Each op enqueues a packet of that fid, or on None dequeues if a packet is held.
SFQ_OPS = st.lists(st.one_of(st.none(), st.integers(0, 9)), max_size=300)


@settings(max_examples=400, deadline=None)
@given(buckets=st.sampled_from([1, 2, 16, 17, 10**9]), limit=st.integers(1, 24), ops=SFQ_OPS)
# limit 1, fids 1 and 2 in buckets 5 and 10 of 16: the tie evicts the
# resident of bucket 5 and empties it, so bucket 10 is served next.
@example(buckets=16, limit=1, ops=[1, 2, None, None, 1, None])
def test_sfq_matches_plain_list_reference(buckets, limit, ops):
    q = Sfq(limit=limit, buckets=buckets)
    ref = ReferenceSfq(limit=limit, buckets=buckets)
    for uid, fid in enumerate(ops):
        if fid is None:
            if ref.held():
                assert q.dequeue() is ref.dequeue()
        else:
            pkt = Pkt(uid, fid)
            assert q.enqueue(pkt).dropped is ref.enqueue(pkt)
        assert q.held() == ref.held()


# Each op enqueues a packet of that fid, or on None dequeues if a packet
# is held; a fid paired with True is served instead whenever the queue
# is empty, as a packet that finds its link idle is.
SERVE_OPS = st.lists(st.one_of(st.none(), st.tuples(st.integers(0, 9), st.booleans())),
                     max_size=200)


@settings(max_examples=300, deadline=None)
@given(kind=st.sampled_from(["droptail", "sfq"]),
       buckets=st.sampled_from([1, 2, 16, 17, 10**9]), limit=st.integers(1, 24), ops=SERVE_OPS)
# fids 1 and 2 in buckets 5 and 10 of 16: serving fid 1 first makes
# bucket 10 the next served, and fid 1's next enqueue needs its bucket.
@example(kind="sfq", buckets=16, limit=4, ops=[(1, True), (1, False), (2, False), None, None])
def test_serve_leaves_what_enqueue_then_dequeue_leaves(kind, buckets, limit, ops):
    served = build_qdisc(QdiscConfig(kind, limit, buckets))
    queued = build_qdisc(QdiscConfig(kind, limit, buckets))
    for uid, op in enumerate(ops):
        if op is None:
            if queued.held():
                assert served.dequeue() is queued.dequeue()
        else:
            fid, idle = op
            pkt = Pkt(uid, fid)
            if idle and queued.held() == 0:
                served.serve(pkt)
                assert queued.enqueue(pkt) is ACCEPTED
                assert queued.dequeue() is pkt
            else:
                assert served.enqueue(pkt).dropped is queued.enqueue(pkt).dropped
        assert served.held() == queued.held()


def test_enqueue_without_drop_returns_the_shared_result():
    assert DropTail(limit=1).enqueue(Pkt(1)) is ACCEPTED
    assert Sfq(limit=1, buckets=16).enqueue(Pkt(1)) is ACCEPTED
    assert ACCEPTED.dropped is None


# -- config ------------------------------------------------------------------


def test_build_qdisc_from_config():
    assert isinstance(build_qdisc(QdiscConfig("droptail", 50)), DropTail)
    sfq = build_qdisc(QdiscConfig("sfq", 40, 8))
    assert isinstance(sfq, Sfq)
    assert sfq.limit == 40 and sfq.buckets == 8


def test_config_validation():
    # Queue parameters are validated once, where the scenario is parsed.
    head = "sim duration=1s\nnode a\nnode b\nduplex-link a b bw=1Mb delay=0s "
    cases = [
        ("queue=red", "droptail or sfq"),
        ("queue=droptail limit=0", "queue limit"),
        ("queue=sfq limit=0", "queue limit"),
        ("queue=sfq buckets=0", "bucket count"),
    ]
    for options, fragment in cases:
        with pytest.raises(ScenarioError, match=f"line 4: .*{fragment}"):
            parse_scenario(head + options + "\n")
