"""Tests of classical (uniform) atomic broadcast."""

from __future__ import annotations

from collections import Counter

import pytest

from repro.core.audit import SafetyAudit
from repro.gcs import GroupCommunicationSystem, engine_names
from repro.gcs.total_order import _PendingMessage
from repro.network import Lan, LinkFault, Node
from repro.obs.tracer import Observability
from repro.replication.cluster import ReplicatedDatabaseCluster
from repro.sim import Simulator
from repro.workload import OpenLoopClientPool, SimulationParameters
from tests.reference_broadcast import broadcast_trace


def build_group(member_count=3, seed=7, end_to_end=False, **kwargs):
    sim = Simulator(seed=seed)
    lan = Lan(sim)
    nodes = [lan.attach(Node(sim, f"s{i}")) for i in range(1, member_count + 1)]
    gcs = GroupCommunicationSystem(sim, lan, end_to_end=end_to_end, **kwargs)
    gcs.start()
    return sim, lan, nodes, gcs


def attach_consumers(sim, gcs, nodes, delivered, acknowledge=False):
    def consumer(name):
        endpoint = gcs.endpoint(name)
        while True:
            delivery = yield endpoint.deliveries.get()
            delivered[name].append(delivery.payload)
            if acknowledge:
                endpoint.acknowledge(delivery)

    for node in nodes:
        if node.is_up:
            node.spawn(consumer(node.name))


@pytest.mark.parametrize("engine", engine_names())
@pytest.mark.parametrize("crash_at", [None, 0.5],
                         ids=["no-crash", "coordinator-crash"])
def test_all_members_deliver_in_the_same_order(engine, crash_at):
    # The coordinator of both engines is s1; crashed at 0.5 ms it has
    # broadcast two of its four messages and may have ordered some.
    sim, lan, nodes, gcs = build_group(engine=engine)
    obs = Observability(sim)
    delivered = {node.name: [] for node in nodes}
    attach_consumers(sim, gcs, nodes, delivered)

    def producer(name, count):
        endpoint = gcs.endpoint(name)
        for index in range(count):
            endpoint.broadcast(f"{name}-m{index}")
            yield sim.timeout(0.3)

    for node in nodes:
        node.spawn(producer(node.name, 4))
    if crash_at is not None:
        sim.call_at(crash_at, nodes[0].crash)
    sim.run(until=200.0)

    up = [node.name for node in nodes if node.is_up]
    sequences = [delivered[name] for name in up]
    assert all(sequence == sequences[0] for sequence in sequences)
    survivors = {f"{name}-m{index}" for name in up for index in range(4)}
    assert survivors <= set(sequences[0])
    if crash_at is None:
        assert len(sequences[0]) == 12
    trace = broadcast_trace(obs)
    assert trace.check_validity()
    assert trace.check_integrity()
    assert trace.check_total_order()
    assert trace.check_uniform_agreement(up)


def test_sender_delivers_its_own_broadcast():
    sim, lan, nodes, gcs = build_group()
    delivered = {node.name: [] for node in nodes}
    attach_consumers(sim, gcs, nodes, delivered)
    gcs.endpoint("s2").broadcast("hello")
    sim.run(until=50.0)
    assert delivered["s2"] == ["hello"]


def test_broadcast_latency_is_sub_millisecond_on_the_paper_lan():
    sim, lan, nodes, gcs = build_group()
    arrival_times = []

    def consumer():
        endpoint = gcs.endpoint("s3")
        delivery = yield endpoint.deliveries.get()
        arrival_times.append(delivery.delivered_at)

    nodes[2].spawn(consumer())
    gcs.endpoint("s1").broadcast("timed")
    sim.run(until=50.0)
    assert arrival_times and arrival_times[0] < 2.0    # paper quotes ~1 ms


def test_delivery_requires_quorum_of_acknowledgements():
    # With 2 of 3 members crashed there is no quorum: nothing is delivered.
    sim, lan, nodes, gcs = build_group()
    delivered = {node.name: [] for node in nodes}
    nodes[1].crash()
    nodes[2].crash()
    sim.run(until=10.0)
    attach_consumers(sim, gcs, nodes, delivered)
    gcs.endpoint("s1").broadcast("lonely")
    sim.run(until=100.0)
    assert delivered["s1"] == []


def test_uniform_delivery_survives_minority_crash():
    sim, lan, nodes, gcs = build_group()
    delivered = {node.name: [] for node in nodes}
    attach_consumers(sim, gcs, nodes, delivered)
    gcs.endpoint("s1").broadcast("before-crash")
    sim.run(until=20.0)
    nodes[2].crash()
    sim.run(until=40.0)
    gcs.endpoint("s1").broadcast("after-crash")
    sim.run(until=200.0)
    assert delivered["s1"] == ["before-crash", "after-crash"]
    assert delivered["s2"] == ["before-crash", "after-crash"]


def test_view_change_elects_new_sequencer_and_broadcasts_continue():
    sim, lan, nodes, gcs = build_group()
    obs = Observability(sim)
    delivered = {node.name: [] for node in nodes}
    attach_consumers(sim, gcs, nodes, delivered)
    gcs.endpoint("s1").broadcast("m1")
    sim.run(until=20.0)
    nodes[0].crash()                      # the sequencer crashes
    sim.run(until=40.0)
    assert gcs.membership.view.primary == "s2"
    assert gcs.endpoint("s2").is_sequencer
    gcs.endpoint("s3").broadcast("m2")
    gcs.endpoint("s2").broadcast("m3")
    sim.run(until=300.0)
    assert delivered["s2"][0] == "m1"
    assert set(delivered["s2"]) == {"m1", "m2", "m3"}
    assert delivered["s2"] == delivered["s3"]
    assert broadcast_trace(obs).check_total_order()


def test_crash_wipes_undelivered_messages_classical():
    """Delivered-to-endpoint but unprocessed messages die with the node."""
    sim, lan, nodes, gcs = build_group()
    # No consumer on s3: its deliveries stay queued at the endpoint.
    delivered = {node.name: [] for node in nodes}
    attach_consumers(sim, gcs, nodes[:2], delivered)
    gcs.endpoint("s1").broadcast("will-be-lost-on-s3")
    sim.run(until=20.0)
    assert len(gcs.endpoint("s3").deliveries) == 1
    nodes[2].crash()
    assert len(gcs.endpoint("s3").deliveries) == 0


def test_classical_recovery_uses_state_transfer_not_replay():
    sim, lan, nodes, gcs = build_group()
    delivered = {node.name: [] for node in nodes}
    attach_consumers(sim, gcs, nodes[:2], delivered)
    # A provider hands out its state with the last delivery it reflects.
    gcs.endpoint("s1").checkpoint_provider = lambda: (1, {"state": "from-s1"})
    gcs.endpoint("s2").checkpoint_provider = lambda: (1, {"state": "from-s2"})
    gcs.endpoint("s1").broadcast("missed-by-s3")
    sim.run(until=20.0)
    nodes[2].crash()
    sim.run(until=30.0)
    nodes[2].recover()

    def recovery():
        checkpoint = yield from gcs.endpoint("s3").recover(rejoin_timeout=20.0)
        return checkpoint

    process = nodes[2].spawn(recovery())
    sim.run(until=200.0)
    assert process.ok
    # A live member supplied an application checkpoint ...
    assert process.value in ({"state": "from-s1"}, {"state": "from-s2"})
    # ... and the missed message is NOT replayed (classical primitive).
    assert len(gcs.endpoint("s3").deliveries) == 0


@pytest.mark.parametrize("engine", engine_names())
def test_a_joiner_installs_the_delivery_its_checkpoint_reflects(engine):
    """Fig. 5 at the provider: the live members' applications hold their
    second delivery unprocessed when s3 rejoins, so their checkpoints
    reflect one delivery while their endpoints have delivered two.  s3
    installs the sequence the provider names, not the provider's delivery
    horizon, and the ordering protocol hands it the held message, once."""
    sim, lan, nodes, gcs = build_group(engine=engine)
    processed = {node.name: [] for node in nodes}
    release = sim.event()

    def consumer(name):
        endpoint = gcs.endpoint(name)
        while True:
            delivery = yield endpoint.deliveries.get()
            if delivery.payload == "held":
                yield release
            processed[name].append(delivery.payload)

    for node in nodes:
        node.spawn(consumer(node.name))
        gcs.endpoint(node.name).checkpoint_provider = (
            lambda name=node.name: (len(processed[name]),
                                    list(processed[name])))
    gcs.endpoint("s1").broadcast("m1")
    sim.run(until=20.0)
    nodes[2].crash()
    gcs.endpoint("s1").broadcast("held")
    sim.run(until=40.0)
    assert [gcs.endpoint(name)._delivered_seq for name in ("s1", "s2")] \
        == [2, 2]
    assert processed["s1"] == processed["s2"] == ["m1"]
    nodes[2].recover()
    installed = []

    def recovery():
        endpoint = gcs.endpoint("s3")
        state = yield from endpoint.recover(rejoin_timeout=20.0)
        installed.append(endpoint._delivered_seq)
        processed["s3"] = state
        nodes[2].spawn(consumer("s3"))

    nodes[2].spawn(recovery())
    sim.run(until=60.0)
    assert installed == [1]
    # A new broadcast is what makes the coordinator see the joiner's
    # horizon, on either engine: s3's report on the first entry posted to
    # it after the rejoin (its ACK or ACCEPTED) shows that it lacks the
    # held message, and the coordinator fills it from that report.
    gcs.endpoint("s2").broadcast("m3")
    sim.run(until=100.0)
    release.succeed()
    sim.run(until=200.0)
    assert processed["s3"] == processed["s1"] == processed["s2"] \
        == ["m1", "held", "m3"]


@pytest.mark.parametrize("end_to_end", [False, True],
                         ids=["classical", "end-to-end"])
def test_a_rejoined_endpoint_holds_no_join_reply(end_to_end):
    # Every live member answers the JOIN; the rejoin takes the first reply
    # and must not keep the others (each a checkpoint) for the rest of
    # the run.
    sim, lan, nodes, gcs = build_group(member_count=5, end_to_end=end_to_end)
    delivered = {node.name: [] for node in nodes}
    attach_consumers(sim, gcs, nodes, delivered, acknowledge=True)
    for node in nodes:
        gcs.endpoint(node.name).checkpoint_provider = (
            lambda name=node.name: (len(delivered[name]), name))
    gcs.endpoint("s1").broadcast("m1")
    sim.run(until=20.0)
    nodes[4].crash()
    sim.run(until=30.0)
    nodes[4].recover()
    process = nodes[4].spawn(gcs.endpoint("s5").recover(rejoin_timeout=20.0))
    sim.run(until=200.0)
    assert process.ok
    assert gcs.endpoint("s5")._join_replies is None


@pytest.mark.parametrize("engine", engine_names())
def test_an_installed_horizon_drops_the_accepted_entries_it_covers(engine):
    # An entry accepted while a rejoin waits for its JOIN reply, then
    # covered by the horizon the reply installs, is delivered by the state
    # it came with: it is not handed up, and a collection from below the
    # horizon, were this member to lead one, gets no entry it covers.
    sim, lan, nodes, gcs = build_group(engine=engine)
    endpoint = gcs.endpoint("s3")
    for sequence in (2, 3, 5):
        endpoint._log[sequence] = (0, _PendingMessage(
            broadcast_id=f"s1#{sequence}", payload=sequence, sender="s1"))
    endpoint._install_horizon(3)
    assert endpoint._delivered_seq == 3
    assert list(endpoint._log) == [5]


def test_recovery_with_no_survivors_returns_none():
    sim, lan, nodes, gcs = build_group()
    for node in nodes:
        node.crash()
    sim.run(until=10.0)
    nodes[1].recover()

    def recovery():
        checkpoint = yield from gcs.endpoint("s2").recover(rejoin_timeout=5.0)
        return checkpoint

    process = nodes[1].spawn(recovery())
    sim.run(until=100.0)
    assert process.ok and process.value is None


# ---------------------------------------------------------------- message bill
def record_sends(lan):
    """Record, from outside the program, every message handed to the LAN
    (before drops) as ``(time, kind, destination, payload)``."""
    sent = []
    send, send_all = lan.send, lan.send_all

    def record(message):
        sent.append((lan.sim.now, message.kind, message.destination,
                     message.payload))

    def recording_send(message):
        record(message)
        send(message)

    def recording_send_all(messages):
        messages = list(messages)
        for message in messages:
            record(message)
        send_all(messages)

    lan.send, lan.send_all = recording_send, recording_send_all
    return sent


def broadcast_sequentially(sim, gcs, nodes, count):
    """``count`` A-broadcasts, round-robin over the members, each delivered
    everywhere before the next is sent."""
    for index in range(count):
        gcs.endpoint(nodes[index % len(nodes)].name).broadcast(f"m{index}")
        sim.run(until=sim.now + 20.0)


def kinds_sent(sent):
    return Counter(kind for _, kind, _, _ in sent)


#: Per engine: the kinds of a submission to the leader, of the leader's
#: post of an entry, of a member's answer and of the decision.
ORDERING_KINDS = {
    "fixed-sequencer": ("ABCAST.DATA", "ABCAST.SEQ", "ABCAST.ACK",
                        "ABCAST.STABLE"),
    "multi-paxos": ("PAXOS.PROPOSE", "PAXOS.ACCEPT", "PAXOS.ACCEPTED",
                    "PAXOS.LEARN"),
}


@pytest.mark.parametrize("member_count", (3, 5, 9))
@pytest.mark.parametrize("engine", engine_names())
def test_message_bill_is_3n_plus_1(engine, member_count):
    """Both policies pay the same bill in a quiet run: one submission, N
    posts of the entry, N answers and at most N decision posts per
    broadcast (the first leader holds the first ballot: no collection)."""
    submit, order, answer, decide = ORDERING_KINDS[engine]
    sim, lan, nodes, gcs = build_group(member_count, engine=engine)
    delivered = {node.name: [] for node in nodes}
    attach_consumers(sim, gcs, nodes, delivered)
    sent = record_sends(lan)
    broadcasts = 6
    broadcast_sequentially(sim, gcs, nodes, broadcasts)

    assert all(len(log) == broadcasts for log in delivered.values())
    kinds = kinds_sent(sent)
    per_round = member_count * broadcasts
    assert kinds.pop(decide) <= per_round
    assert kinds == {submit: broadcasts, order: per_round, answer: per_round}
    # A decision is announced to a member once, not once per answer that
    # arrives after the quorum-th.
    announcements = [(payload["up_to"], destination)
                     for _, kind, destination, payload in sent
                     if kind == decide]
    assert len(announcements) == len(set(announcements))


@pytest.mark.parametrize("engine", engine_names())
def test_the_sequencers_ack_state_is_one_entry_per_member(engine):
    """Answers are cumulative, so the leader keeps one ``held`` per member,
    the same after 20 broadcasts as after 200, while its log grows with the
    history (ROADMAP item 24)."""
    sizes = []
    for broadcasts in (20, 200):
        sim, lan, nodes, gcs = build_group(engine=engine)
        broadcast_sequentially(sim, gcs, nodes, broadcasts)
        leader = gcs.endpoint("s1")
        assert leader._acked == {"s1": broadcasts, "s2": broadcasts,
                                 "s3": broadcasts}
        sizes.append((len(leader._acked), len(leader._log)))
    assert sizes == [(3, 20), (3, 200)]


@pytest.mark.parametrize("engine", ("fixed-sequencer", "multi-paxos"))
def test_a_unicast_is_three_kernel_events_a_view_post_n_plus_two(engine):
    """The event bill of the message path, beside its message bill: a post
    costs one send charge and one wire event, and each copy it delivers one
    reception charge — the things that take simulated time.  A unicast is
    therefore 3 events and a view post to N members N + 2.  The hand-offs in
    between (outbox → CPU, inbox → CPU) take none and are not events (they
    were: 5 per message before the served store), so the next zero-delay
    hop added to the path fails here.  So does one added above it: an
    A-delivery is its delivery charge and the consumer's ``get``."""
    sim, lan, nodes, gcs = build_group(3, engine=engine)
    delivered = {node.name: [] for node in nodes}
    attach_consumers(sim, gcs, nodes, delivered)
    broadcast_sequentially(sim, gcs, nodes, 1)      # past any phase 1
    copies = Counter()              # message id -> copies delivered
    deliver = lan._deliver

    def recording_deliver(message, destination):
        copies[message.message_id] += 1
        deliver(message, destination)

    lan._deliver = recording_deliver
    events = sim.scheduled_events
    broadcasts = 6
    broadcast_sequentially(sim, gcs, nodes, broadcasts)
    events = sim.scheduled_events - events

    assert sim.queued_events == 0 and lan.dropped_count == 0
    assert all(len(log) == 1 + broadcasts for log in delivered.values())
    # The copies of a view post share its message id; a unicast has its own.
    assert set(copies.values()) == {1, len(nodes)}
    unicasts = sum(1 for count in copies.values() if count == 1)
    view_posts = len(copies) - unicasts
    # Above the message path each A-delivery costs two more: its charge on
    # the CPU (the ordered message goes to it with no process in between)
    # and the wake-up of the consumer parked on ``deliveries``.
    a_deliveries = broadcasts * len(nodes)
    assert events - 2 * a_deliveries == \
        3 * unicasts + (len(nodes) + 2) * view_posts


@pytest.mark.parametrize("engine", ("fixed-sequencer", "multi-paxos"))
def test_a_view_post_is_one_send_charge(engine):
    """Table 4 prices a broadcast as one network operation: posting to the
    whole view adds one ``cpu_time_per_network_op`` to the sender's CPU,
    not one per member."""
    sim, lan, nodes, gcs = build_group(5, engine=engine)
    sim.run(until=10.0)
    sender = nodes[0]
    busy = sender.cpu.busy_time
    gcs.endpoint(sender.name)._post_view("TEST.POST", None)
    sim.run()
    assert lan.delivered_count == len(nodes)
    # The send charge, plus the reception charge of the sender's own copy.
    assert sender.cpu.busy_time - busy == \
        pytest.approx(2 * sender.cpu_time_per_network_op, abs=1e-12)


# ---------------------------------------------------------------- view changes
@pytest.fixture(scope="module")
def follower_crash_run():
    """Nine servers, group-safe at 30 tps; the last one (a follower — s1
    sequences) crashes after 8 s and the load runs on for another second."""
    params = SimulationParameters.small(server_count=9, item_count=2_000)
    cluster = ReplicatedDatabaseCluster("group-safe", params=params, seed=3)
    sent = record_sends(cluster.lan)
    cluster.start()
    clients = OpenLoopClientPool(cluster, load_tps=30.0)
    clients.start()
    cluster.run(until=8_000.0)
    crashed_at = cluster.sim.now
    cluster.crash_server("s9")
    cluster.run(until=9_000.0)
    clients.load_tps = 1e-12        # re-read for every gap: arrivals stop
    cluster.run(until=11_000.0)
    return cluster, clients, sent, crashed_at


def test_follower_crash_does_not_replay_history_once_per_reply(
        follower_crash_run):
    cluster, clients, sent, crashed_at = follower_crash_run
    survivors = cluster.up_servers()
    assert len(survivors) == 8 and cluster.gcs.endpoint("s1").is_sequencer
    assigned = cluster.gcs.endpoint("s1")._next_seq - 1
    assert assigned >= 200
    # The sequencer stays, and the view change posts nothing: no member
    # lost a SEQ, so none reports a gap and none of the history, not even
    # what was in flight at the crash, goes out again.  Every SEQ after the
    # crash is acknowledged once per member at most.
    before = max(payload["sequence"] for at, kind, _, payload in sent
                 if kind == "ABCAST.SEQ" and at < crashed_at)
    after = [(kind, destination, payload)
             for at, kind, destination, payload in sent if at >= crashed_at]
    reposted = [(destination, payload["sequence"])
                for kind, destination, payload in after
                if kind == "ABCAST.SEQ" and payload["sequence"] <= before]
    assert reposted == []
    acks = Counter(kind for kind, _, _ in after)["ABCAST.ACK"]
    assert acks <= (assigned - before) * 9
    assert all(cluster.gcs.endpoint(name)._delivered_seq == assigned
               for name in survivors)
    report = SafetyAudit(cluster).report(clients.results)
    assert report.confirmed_transactions >= 200
    assert not report.transaction_lost
    assert not report.divergent_items and report.serializable


def test_no_accepted_entry_stays_undelivered(follower_crash_run):
    # Every member keeps what it accepted, delivered or not; once the load
    # stops, each survivor has delivered every entry its log holds.
    cluster = follower_crash_run[0]
    for name in cluster.up_servers():
        endpoint = cluster.gcs.endpoint(name)
        undelivered = [sequence for sequence in endpoint._log
                       if sequence > endpoint._delivered_seq]
        assert undelivered == [], f"{name} holds undelivered entries"


def test_an_entry_only_a_late_replier_holds_is_delivered_after_a_takeover():
    """s1's SEQ(1) of s5's broadcast reaches only s1 and s5, and s1
    crashes.  s5's VC_STATE reaches the new sequencer s2 long after s2..s4
    gave it its quorum, and comes too late to count: the entry was never
    decided.  s5 has not delivered its broadcast, so it submits it again to
    s2, which posts it once to the view at its own ballot."""
    sim, lan, nodes, gcs = build_group(5)
    delivered = {node.name: [] for node in nodes}
    attach_consumers(sim, gcs, nodes, delivered)
    # Two ACKs are no quorum of five, so the assignment is neither decided
    # nor known to s2..s4.
    lan.install_fault(LinkFault.partition("split", ["s1"], ["s2", "s3", "s4"]))
    gcs.endpoint("s5").broadcast("only-s5-knows")
    sim.run(until=20.0)
    assert 1 in gcs.endpoint("s5")._log
    assert not any(delivered.values())
    lan.install_fault(LinkFault.slow("late-s5", ["s5"], ["s2"], 100.0))
    sent = record_sends(lan)
    nodes[0].crash()
    sim.run(until=200.0)

    survivors = ["s2", "s3", "s4", "s5"]
    assert gcs.endpoint("s2").is_sequencer
    assert all(delivered[name] == ["only-s5-knows"] for name in survivors)
    reposted = [destination for _, kind, destination, payload in sent
                if kind == "ABCAST.SEQ" and payload["sequence"] == 1]
    assert sorted(reposted) == survivors


# ---------------------------------------------------------------- per-member catch-up
def record_deliveries(lan):
    """Record, from outside the program, every LAN delivery as
    ``(time, message, destination)``."""
    deliveries = []
    deliver = lan._deliver

    def recording_deliver(message, destination):
        deliveries.append((lan.sim.now, message, destination))
        deliver(message, destination)

    lan._deliver = recording_deliver
    return deliveries


#: Per engine: the kinds on which a member reports its delivery horizon to
#: the leader, and the kind that posts one entry.
CATCH_UP_KINDS = {
    "multi-paxos": (("PAXOS.PROMISE", "PAXOS.ACCEPTED"), "PAXOS.ACCEPT"),
    "fixed-sequencer": (("ABCAST.ACK", "ABCAST.VC_STATE"), "ABCAST.SEQ"),
}


def posts_at_or_below_a_reported_horizon(deliveries, engine="multi-paxos",
                                         restarts=None):
    """``(member, sequence)`` of every entry posted (an ACCEPT or a SEQ)
    that reached a member for a sequence at or below a horizon the member
    had reported to the post's sender before it was sent.  ``restarts``
    maps a member to the instant it recovered: what it reported before is
    void."""
    report_kinds, post_kind = CATCH_UP_KINDS[engine]
    restarts = restarts or {}
    reports = {}                     # (coordinator, member) -> [(at, horizon)]
    found = []
    for at, message, destination in deliveries:
        payload = message.payload
        if message.kind in report_kinds:
            if payload["horizon"] is not None:
                reports.setdefault((destination, payload["member"]),
                                   []).append((at, payload["horizon"]))
        elif message.kind == post_kind:
            since = restarts.get(destination, float("-inf"))
            known = [horizon for reported_at, horizon
                     in reports.get((message.sender, destination), ())
                     if since <= reported_at <= message.sent_at]
            if known and max(known) >= payload["sequence"]:
                found.append((destination, payload["sequence"]))
    return found


def leader_change_after(slots):
    """Choose ``slots`` slots one by one, crash the leader s1, and let each
    survivor A-broadcast once 100 ms later."""
    sim, lan, nodes, gcs = build_group(engine="multi-paxos")
    obs = Observability(sim)
    delivered = {node.name: [] for node in nodes}
    attach_consumers(sim, gcs, nodes, delivered)
    broadcast_sequentially(sim, gcs, nodes, slots)
    deliveries = record_deliveries(lan)
    crashed_at = sim.now
    nodes[0].crash()
    sim.run(until=crashed_at + 100.0)
    gcs.endpoint("s2").broadcast("after-s2")
    gcs.endpoint("s3").broadcast("after-s3")
    sim.run(until=crashed_at + 200.0)
    kinds = Counter(message.kind for _, message, _ in deliveries)
    return kinds, deliveries, delivered, broadcast_trace(obs)


def test_a_leader_change_costs_the_same_after_k_and_4k_slots():
    """Phase 1 starts at the new leader's delivery horizon and a view change
    re-posts nothing, so the 200 ms after a leader crash deliver as many
    ACCEPTs and LEARNs after 25 chosen slots as after 100 (re-accepting and
    re-posting the history made both grow with it)."""
    runs = {slots: leader_change_after(slots) for slots in (25, 100)}
    for slots, (kinds, deliveries, delivered, trace) in runs.items():
        assert delivered["s2"] == delivered["s3"]
        assert len(delivered["s2"]) == slots + 2
        assert trace.check_total_order() and trace.check_integrity()
        assert trace.check_uniform_agreement(["s2", "s3"])
        assert posts_at_or_below_a_reported_horizon(deliveries) == []
    short, long = runs[25][0], runs[100][0]
    for kind in ("PAXOS.ACCEPT", "PAXOS.LEARN"):
        assert short[kind] == long[kind] == 4, kind


def follower_rejoin_after(broadcasts):
    """Deliver ``broadcasts`` messages on the fixed sequencer, crash the
    follower s3, order one message without it, recover it, and let s1 and
    s2 A-broadcast once each after its rejoin."""
    sim, lan, nodes, gcs = build_group()
    obs = Observability(sim)
    delivered = {node.name: [] for node in nodes}
    attach_consumers(sim, gcs, nodes, delivered)
    broadcast_sequentially(sim, gcs, nodes, broadcasts)
    deliveries = record_deliveries(lan)
    nodes[2].crash()
    sim.run(until=sim.now + 20.0)
    broadcast_sequentially(sim, gcs, nodes[:2], 1)
    nodes[2].recover()
    restarts = {"s3": sim.now}
    delivered["s3"] = []

    def rejoin():
        yield from gcs.endpoint("s3").recover(rejoin_timeout=20.0)
        attach_consumers(sim, gcs, [nodes[2]], delivered)

    nodes[2].spawn(rejoin())
    sim.run(until=sim.now + 20.0)
    broadcast_sequentially(sim, gcs, nodes[:2], 2)
    kinds = Counter(message.kind for _, message, _ in deliveries)
    return kinds, deliveries, delivered, restarts, broadcast_trace(obs)


def test_a_follower_rejoin_costs_the_same_after_k_and_4k_broadcasts():
    """The fixed sequencer stays through a follower's crash and rejoin, so
    it collects no pending state after the first view change, and no view
    change posts a SEQ: s3 shows what its state transfer left out on its
    ACK of the first SEQ posted after its rejoin, and gets that.  So as
    many SEQs and ACKs are delivered after 25 broadcasts as after 100
    (re-posting the whole history to the view made both grow with it)."""
    runs = {count: follower_rejoin_after(count) for count in (25, 100)}
    for count, (kinds, deliveries, delivered, restarts, trace) in \
            runs.items():
        assert delivered["s1"] == delivered["s2"]
        assert len(delivered["s1"]) == count + 3
        # The state transfer covers the message ordered while s3 was down.
        assert delivered["s3"] == delivered["s1"][-2:]
        trace.deliveries = [record for record in trace.deliveries
                            if record.member != "s3"]
        assert trace.check_total_order() and trace.check_integrity()
        assert trace.check_uniform_agreement(["s1", "s2"])
        assert posts_at_or_below_a_reported_horizon(
            deliveries, "fixed-sequencer", restarts) == []
    short, long = runs[25][0], runs[100][0]
    for kind in ("ABCAST.SEQ", "ABCAST.ACK"):
        assert short[kind] == long[kind] == 8, kind


def cut_off_from_the_leader(engine, view_change):
    """The schedule of the test below; returns what each member delivered,
    what s3 had delivered after the first entry posted after the heal, and
    what it takes to check the run."""
    sim, lan, nodes, gcs = build_group(engine=engine)
    obs = Observability(sim)
    delivered = {node.name: [] for node in nodes}
    attach_consumers(sim, gcs, nodes, delivered)
    deliveries = record_deliveries(lan)
    broadcast_sequentially(sim, gcs, nodes, 6)
    lan.install_fault(LinkFault.asymmetric("deaf-s3", [("s1", "s3")]))
    broadcast_sequentially(sim, gcs, nodes[:2], 12)
    lan.remove_fault("deaf-s3")
    # The view change (if any) meets s3's gap: no entry posted after the
    # heal has reached s3 yet.
    assert len(delivered["s3"]) == 6 and len(delivered["s1"]) == 18

    restarts = {}
    survivors = ["s1", "s2", "s3"]
    if view_change == "leader-crash":
        nodes[0].crash()
        survivors = ["s2", "s3"]
    elif view_change != "no-view-change":
        nodes[1].crash()
        survivors = ["s1", "s3"]
    if view_change == "member-rejoin":
        sim.run(until=sim.now + 20.0)
        nodes[1].recover()
        restarts["s2"] = sim.now
        nodes[1].spawn(gcs.endpoint("s2").recover(rejoin_timeout=20.0))
    sim.run(until=sim.now + 50.0)
    others = [node for node in nodes
              if node.name in survivors and node.name != "s3"]
    broadcast_sequentially(sim, gcs, others, 1)
    first = len(delivered["s3"])
    broadcast_sequentially(sim, gcs, others[::-1], 1)
    broadcast_sequentially(sim, gcs, [nodes[2]], 2)
    sim.run(until=sim.now + 50.0)
    return delivered, first, deliveries, restarts, survivors, \
        broadcast_trace(obs)


@pytest.mark.parametrize("engine,view_change", [
    pytest.param("multi-paxos", "no-view-change", id="no-view-change"),
    pytest.param("fixed-sequencer", "no-view-change",
                 id="fixed-sequencer-no-view-change"),
    pytest.param("multi-paxos", "leader-crash", id="leader-crash"),
    pytest.param("multi-paxos", "member-rejoin", id="member-rejoin"),
    pytest.param("fixed-sequencer", "leader-crash",
                 id="fixed-sequencer-leader-crash"),
    pytest.param("fixed-sequencer", "member-rejoin",
                 id="fixed-sequencer-member-rejoin"),
    pytest.param("multi-paxos", "member-leave", id="member-leave"),
    pytest.param("fixed-sequencer", "member-leave",
                 id="fixed-sequencer-member-leave"),
])
def test_a_member_cut_off_from_the_leader_catches_up_at_a_view_change(
        engine, view_change):
    """s3 hears nothing from the leader s1 while 12 entries are decided,
    and the link heals.  With no view change, the first entry posted after
    the heal shows s3 holding an entry above the ones it lacks: its
    acknowledgement says so, and the leader fills the gap.  A view change
    that comes first posts nothing at the view either: s1, through a view
    that drops the crashed s2 (and one that re-adds it), fills s3 from its
    report on the first entry posted after it.  After a leader crash the
    new leader s2 collects from its own horizon, above s3's gap, and fills
    s3 from its own log, which keeps what s2 delivered, on s3's report of
    the first entry posted at the new ballot.  s3 then delivers every
    entry, in order, on both policies."""
    delivered, first, deliveries, restarts, survivors, trace = \
        cut_off_from_the_leader(engine, view_change)
    assert first == 19
    assert len(delivered["s3"]) == 22
    assert delivered["s3"] == delivered[survivors[0]]
    # A rejoined s2 is a new incarnation: it delivers again from the
    # horizon its state transfer installed, so the oracle checks the two
    # members that stayed up.
    trace.deliveries = [record for record in trace.deliveries
                        if record.member in survivors]
    assert trace.check_total_order() and trace.check_integrity()
    assert trace.check_uniform_agreement(survivors)
    assert posts_at_or_below_a_reported_horizon(deliveries, engine,
                                                restarts) == []


@pytest.mark.parametrize("engine", engine_names())
def test_a_broadcast_lost_on_its_way_to_the_leader_is_submitted_again(
        engine):
    """What s3 sends to the leader s1 is dropped while s3 A-broadcasts
    once.  After the heal s3 A-broadcasts again; that one is ordered while
    the older one is not, so the older submission was lost, and s3 submits
    it again.  Every member delivers both, with no view change."""
    sim, lan, nodes, gcs = build_group(engine=engine)
    obs = Observability(sim)
    delivered = {node.name: [] for node in nodes}
    attach_consumers(sim, gcs, nodes, delivered)
    broadcast_sequentially(sim, gcs, nodes, 3)
    view = gcs.membership.view
    lan.install_fault(LinkFault.asymmetric("mute-s3", [("s3", "s1")]))
    gcs.endpoint("s3").broadcast("lost")
    sim.run(until=sim.now + 20.0)
    lan.remove_fault("mute-s3")
    assert all(len(delivered[node.name]) == 3 for node in nodes)
    gcs.endpoint("s3").broadcast("after-the-heal")
    sim.run(until=sim.now + 20.0)
    assert gcs.membership.view is view
    for node in nodes:
        assert delivered[node.name][3:] == ["after-the-heal", "lost"]
    trace = broadcast_trace(obs)
    assert trace.check_total_order() and trace.check_integrity()
    assert trace.check_uniform_agreement(["s1", "s2", "s3"])


def drop_first_copies(monkeypatch, lost):
    """Drop, at arrival (``Lan._deliver``), the first copy from each sender
    to each member of every message ``lost(message, member)`` names; later
    copies pass.  Returns the ``(sender, member)`` pairs dropped."""
    dropped = []
    deliver = Lan._deliver

    def dropping_deliver(lan, message, destination):
        key = (message.sender, destination.name)
        if lost(message, destination.name) and key not in dropped:
            dropped.append(key)
            return
        deliver(lan, message, destination)

    monkeypatch.setattr(Lan, "_deliver", dropping_deliver)
    return dropped


def test_a_sequence_whose_acks_were_all_lost_is_covered_by_the_next_ack(
        monkeypatch):
    """Every follower's ACK of sequence 4 is lost, so the sequencer s1 holds
    only its own and cannot announce 4, nor anything after it, stable.  ACKs
    are cumulative: a follower's ACK of sequence 5 says it holds every
    sequence up to 5, so s1 announces both, and every broadcast is delivered
    everywhere with no view change."""
    dropped = drop_first_copies(
        monkeypatch, lambda message, member: message.kind == "ABCAST.ACK"
        and message.sender != member and message.payload["sequence"] == 4)
    sim, lan, nodes, gcs = build_group(engine="fixed-sequencer")
    obs = Observability(sim)
    delivered = {node.name: [] for node in nodes}
    attach_consumers(sim, gcs, nodes, delivered)
    view = gcs.membership.view
    broadcast_sequentially(sim, gcs, nodes, 4)
    assert dropped == [("s2", "s1"), ("s3", "s1")]
    assert all(len(delivered[node.name]) == 3 for node in nodes)
    broadcast_sequentially(sim, gcs, nodes, 2)
    assert gcs.membership.view is view
    for node in nodes:
        assert delivered[node.name] == ["m0", "m1", "m2", "m3", "m0", "m1"]
    trace = broadcast_trace(obs)
    assert trace.check_total_order() and trace.check_integrity()
    assert trace.check_uniform_agreement(["s1", "s2", "s3"])


def seq_copies(deliveries, sequence):
    """Per member, the copies of SEQ(sequence) that reached the LAN's
    delivery, lost ones included."""
    return Counter(destination.name for _, message, destination in deliveries
                   if message.kind == "ABCAST.SEQ"
                   and message.payload["sequence"] == sequence)


def test_a_lost_ack_is_covered_by_the_next_one(monkeypatch):
    """Five members: s3's, s4's and s5's ACKs of sequence 4 are lost, so s1
    holds two of the three it needs.  Their ACKs of sequence 5 say they
    hold 4 too: no SEQ is posted again, and each member gets SEQ(4) once."""
    drop_first_copies(
        monkeypatch, lambda message, member: message.kind == "ABCAST.ACK"
        and message.sender not in (member, "s2")
        and message.payload["sequence"] == 4)
    sim, lan, nodes, gcs = build_group(member_count=5,
                                       engine="fixed-sequencer")
    deliveries = record_deliveries(lan)
    delivered = {node.name: [] for node in nodes}
    attach_consumers(sim, gcs, nodes, delivered)
    broadcast_sequentially(sim, gcs, nodes, 5)
    assert seq_copies(deliveries, 4) == {
        "s1": 1, "s2": 1, "s3": 1, "s4": 1, "s5": 1}
    assert all(len(delivered[node.name]) == 5 for node in nodes)


def test_a_lost_sequence_is_posted_again_once(monkeypatch):
    """SEQ(4) is lost to both followers.  Their ACKs of sequence 5 hold
    only up to 3, which is the gap: s1 fills each of them with SEQ(4), and
    no other rule posts it again, so each follower gets it twice (the lost
    copy and the fill).  Each follower's ACK of the refilled SEQ(4) says it
    holds 5 as well."""
    dropped = drop_first_copies(
        monkeypatch, lambda message, member: message.kind == "ABCAST.SEQ"
        and member != message.sender and message.payload["sequence"] == 4)
    sim, lan, nodes, gcs = build_group(engine="fixed-sequencer")
    deliveries = record_deliveries(lan)
    delivered = {node.name: [] for node in nodes}
    attach_consumers(sim, gcs, nodes, delivered)
    view = gcs.membership.view
    broadcast_sequentially(sim, gcs, nodes, 6)
    assert dropped == [("s1", "s2"), ("s1", "s3")]
    assert gcs.membership.view is view
    assert seq_copies(deliveries, 4) == {"s1": 1, "s2": 2, "s3": 2}
    acks = [message.payload for _, message, _ in deliveries
            if message.kind == "ABCAST.ACK"]
    assert [(ack["member"], ack["held"]) for ack in acks
            if ack["sequence"] == 4 and ack["member"] != "s1"] == [
        ("s2", 5), ("s3", 5)]
    for node in nodes:
        assert delivered[node.name] == ["m0", "m1", "m2", "m3", "m4", "m5"]


def test_a_sequence_lost_while_broadcasts_overlap_is_delivered(monkeypatch):
    """SEQ 4, 5 and 6 are posted back to back, SEQ(4) is lost to both
    followers, and no broadcast follows.  s1 fills each follower on its ACK
    of 5 and ignores its ACK of 6, which shows the same gap; the follower's
    ACK of the refilled SEQ(4) reports that it holds 6, so all three are
    announced stable and delivered everywhere with no view change."""
    dropped = drop_first_copies(
        monkeypatch, lambda message, member: message.kind == "ABCAST.SEQ"
        and member != message.sender and message.payload["sequence"] == 4)
    sim, lan, nodes, gcs = build_group(engine="fixed-sequencer")
    delivered = {node.name: [] for node in nodes}
    attach_consumers(sim, gcs, nodes, delivered)
    view = gcs.membership.view
    broadcast_sequentially(sim, gcs, nodes, 3)
    for payload in ("m3", "m4", "m5"):
        gcs.endpoint("s1").broadcast(payload)
    sim.run(until=sim.now + 50.0)
    assert dropped == [("s1", "s2"), ("s1", "s3")]
    assert gcs.membership.view is view
    for node in nodes:
        assert delivered[node.name] == ["m0", "m1", "m2", "m3", "m4", "m5"]


def test_a_stale_assignment_is_not_delivered_after_a_takeover(monkeypatch):
    """Five members: s1's SEQ(1) of s5's broadcast reaches only s1 and s5,
    and s1 crashes.  The new sequencer s2 ends its collection with the
    quorum s2, s3, s4, none of which holds sequence 1, and gives sequence 1
    to a submission at its own ballot; that SEQ is lost to s5.  s5 still
    holds s1's assignment at 1, at s1's ballot, so the decision of s2's
    ballot does not deliver it: s5's ACK of the next SEQ holds less than
    it, s2 fills sequence 1, and every survivor delivers the same."""
    lost = {("s1", "s2"), ("s1", "s3"), ("s1", "s4"), ("s2", "s5")}
    dropped = drop_first_copies(
        monkeypatch, lambda message, member: message.kind == "ABCAST.SEQ"
        and message.payload["sequence"] == 1
        and (message.sender, member) in lost)
    sim, lan, nodes, gcs = build_group(5)
    obs = Observability(sim)
    delivered = {node.name: [] for node in nodes}
    attach_consumers(sim, gcs, nodes, delivered)
    gcs.endpoint("s5").broadcast("stale")
    sim.run(until=20.0)
    nodes[0].crash()
    sim.call_at(sim.now + 0.01, lambda: gcs.endpoint("s3").broadcast("b"))
    sim.run(until=sim.now + 300.0)
    gcs.endpoint("s4").broadcast("c")
    sim.run(until=sim.now + 300.0)
    assert sorted(dropped) == sorted(lost)
    survivors = ["s2", "s3", "s4", "s5"]
    assert {"b", "c"} <= set(delivered["s2"])
    assert all(delivered[name] == delivered["s2"] for name in survivors)
    trace = broadcast_trace(obs)
    assert trace.check_uniform_agreement(survivors)


@pytest.mark.parametrize("engine", engine_names())
def test_a_lost_decision_is_subsumed_by_the_next_one(engine, monkeypatch):
    """Both followers' decision of entry 4 (a STABLE or a LEARN) is lost
    after they accepted it, so they hold it undelivered.  The decision is
    cumulative: the next broadcast's covers entry 4 too, and every member
    delivers both, with no view change and nothing posted again."""
    decide = ORDERING_KINDS[engine][3]
    dropped = drop_first_copies(
        monkeypatch, lambda message, member: message.kind == decide
        and member != message.sender and message.payload["up_to"] == 4)
    sim, lan, nodes, gcs = build_group(engine=engine)
    obs = Observability(sim)
    deliveries = record_deliveries(lan)
    delivered = {node.name: [] for node in nodes}
    attach_consumers(sim, gcs, nodes, delivered)
    view = gcs.membership.view
    broadcast_sequentially(sim, gcs, nodes, 4)
    assert dropped == [("s1", "s2"), ("s1", "s3")]
    assert len(delivered["s1"]) == 4
    assert len(delivered["s2"]) == len(delivered["s3"]) == 3
    gcs.endpoint("s2").broadcast("next")
    sim.run(until=sim.now + 20.0)
    assert gcs.membership.view is view
    for node in nodes:
        assert delivered[node.name][3:] == ["m3", "next"]
    order = ORDERING_KINDS[engine][1]
    assert Counter(message.kind for _, message, _ in deliveries)[order] == \
        5 * len(nodes)
    trace = broadcast_trace(obs)
    assert trace.check_total_order() and trace.check_integrity()
    assert trace.check_uniform_agreement(["s1", "s2", "s3"])


def wedge_run(engine, crash_at=1.0):
    """ROADMAP ★27's small scope: three members each A-broadcast twice,
    0.25 ms apart, and the leader s1 crashes at ``crash_at``; 100 ms later
    every live member A-broadcasts twice more, as evidence.  Returns
    whether the live members delivered the same sequence, holding every
    live member's broadcast and passing the oracle, and what each live
    member delivered."""
    sim, lan, nodes, gcs = build_group(engine=engine)
    obs = Observability(sim)
    delivered = {node.name: [] for node in nodes}
    attach_consumers(sim, gcs, nodes, delivered)
    for node in nodes:
        for index, at in enumerate((0.0, 0.25)):
            sim.call_at(at, lambda name=node.name, index=index:
                        gcs.endpoint(name).broadcast(f"{name}-{index}"))
    sim.call_at(crash_at, nodes[0].crash)
    sim.run(until=100.0)
    live = [node.name for node in nodes if node.is_up]
    for name in live:
        for index in (2, 3):
            gcs.endpoint(name).broadcast(f"{name}-{index}")
    sim.run(until=300.0)
    trace = broadcast_trace(obs)
    own = {f"{name}-{index}" for name in live for index in range(4)}
    passed = all(delivered[name] == delivered[live[0]] for name in live) \
        and own <= set(delivered[live[0]]) \
        and trace.check_total_order() and trace.check_integrity() \
        and trace.check_uniform_agreement(live)
    return passed, {name: delivered[name] for name in live}


@pytest.mark.parametrize("entry", (1, 2))
@pytest.mark.parametrize("engine", engine_names())
def test_an_entry_only_the_crashed_leader_held_gets_a_no_op(
        engine, entry, monkeypatch):
    """★27's class (B): both followers lose the leader's post of entry 1
    or 2, and s1 crashes at 1.0 ms.  No promise carries the entry, so the
    new leader posts a no-op there instead of leaving a hole that stops
    delivery for good; the entry's origin, if it survives, never delivered
    it and submits it again, and the group goes on delivering."""
    order = ORDERING_KINDS[engine][1]
    dropped = drop_first_copies(
        monkeypatch, lambda message, member: message.kind == order
        and message.sender == "s1" != member
        and message.payload["sequence"] == entry)
    passed, delivered = wedge_run(engine)
    assert dropped == [("s1", "s2"), ("s1", "s3")]
    assert passed, delivered


@pytest.mark.parametrize("engine", engine_names())
def test_an_entry_the_new_leader_lost_comes_back_in_a_promise(
        engine, monkeypatch):
    """★27's class (C): s1's post of entry 1 is lost to s2, s3 delivers it,
    and s1 crashes at 1.0 ms.  s2 collects from its horizon 0, and s3's
    promise carries entry 1, which s3 keeps after delivering it: s2 posts
    it again at its ballot, and both survivors deliver the same."""
    order = ORDERING_KINDS[engine][1]
    dropped = drop_first_copies(
        monkeypatch, lambda message, member: message.kind == order
        and message.sender == "s1" and member == "s2"
        and message.payload["sequence"] == 1)
    passed, delivered = wedge_run(engine)
    assert dropped == [("s1", "s2")]
    assert passed, delivered


@pytest.mark.xfail(strict=True, reason="ROADMAP ★28(A): a lost collection "
                   "answer is never asked for again, so the new leader "
                   "stays one promise short of its quorum")
@pytest.mark.parametrize("engine", engine_names())
def test_a_lost_promise_does_not_wedge_the_takeover(engine, monkeypatch):
    """★27's class (A): s3's answer to the new leader s2's collection (a
    VC_STATE or a PROMISE) is lost after s1 crashes at 1.0 ms."""
    promise = COLLECTION_KINDS[engine][1]
    dropped = drop_first_copies(
        monkeypatch, lambda message, member: message.kind == promise
        and message.sender == "s3" and member == "s2")
    passed, delivered = wedge_run(engine)
    assert dropped == [("s3", "s2")]
    assert passed, delivered


def excluded_alive_and_readmitted(engine):
    """A netsplit cuts s3 off, the heartbeat detector excludes it, s1 and
    s2 decide 12 entries without it, and the view re-adds it."""
    sim, lan, nodes, gcs = build_group(
        engine=engine, detector_mode="heartbeat",
        heartbeat_period=10.0, heartbeat_timeout=50.0)
    obs = Observability(sim)
    delivered = {node.name: [] for node in nodes}
    attach_consumers(sim, gcs, nodes, delivered)
    deliveries = record_deliveries(lan)
    broadcast_sequentially(sim, gcs, nodes, 6)
    lan.install_fault(LinkFault.isolate("cut-s3", "s3", ["s1", "s2"]))
    sim.run(until=sim.now + 100.0)
    assert gcs.membership.view.members == ("s1", "s2")
    broadcast_sequentially(sim, gcs, nodes[:2], 12)
    lan.remove_fault("cut-s3")
    sim.run(until=sim.now + 100.0)
    assert gcs.membership.view.members == ("s1", "s2", "s3")
    return sim, nodes, gcs, obs, delivered, deliveries


@pytest.mark.parametrize("engine", engine_names())
def test_a_follower_excluded_alive_catches_up_from_its_first_report(engine):
    """s3 was excluded alive and kept its state, and the view that re-adds
    it posts it nothing.  Its report on the first entry posted to it after
    that (an ACK or an ACCEPTED) shows its horizon, and the leader sends
    the entries in between."""
    sim, nodes, gcs, obs, delivered, deliveries = \
        excluded_alive_and_readmitted(engine)
    # Nothing was posted to s3 since the re-add.
    assert len(delivered["s3"]) == 6

    broadcast_sequentially(sim, gcs, nodes[:2], 2)
    assert delivered["s3"] == delivered["s1"]
    assert len(delivered["s3"]) == 20
    trace = broadcast_trace(obs)
    assert trace.check_total_order() and trace.check_integrity()
    assert trace.check_uniform_agreement(["s1", "s2", "s3"])
    assert posts_at_or_below_a_reported_horizon(deliveries, engine) == []


@pytest.mark.parametrize("engine", engine_names())
def test_a_readmitted_follower_catches_up_though_the_leader_crashes(engine):
    """s3 was excluded alive while s1 and s2 decided 12 entries, and is
    re-added; s1 then crashes before anything else is broadcast.  The new
    leader s2 keeps the 12 entries it accepted, and fills s3 from its log
    on s3's report of the first entry posted at s2's ballot.  Both
    survivors deliver every entry, and the group goes on delivering."""
    sim, nodes, gcs, obs, delivered, _deliveries = \
        excluded_alive_and_readmitted(engine)
    nodes[0].crash()
    sim.run(until=sim.now + 100.0)
    assert gcs.membership.view.members == ("s2", "s3")

    broadcast_sequentially(sim, gcs, nodes[1:], 2)
    sim.run(until=sim.now + 50.0)
    assert len(delivered["s2"]) == 20
    assert delivered["s3"] == delivered["s2"]
    trace = broadcast_trace(obs)
    assert trace.check_total_order() and trace.check_integrity()
    assert trace.check_uniform_agreement(["s2", "s3"])


#: Per engine: the kinds of a leader's collection and of its answers.
COLLECTION_KINDS = {
    "fixed-sequencer": ("ABCAST.VC_REQUEST", "ABCAST.VC_STATE"),
    "multi-paxos": ("PAXOS.PREPARE", "PAXOS.PROMISE"),
}


@pytest.mark.parametrize("engine", engine_names())
def test_a_rejoined_leader_leads_phase_1_from_the_horizon_it_installed(
        engine):
    """s1 recovers and leads again at once (the view re-adds it as its
    primary, or the detector trusts it again), while the JOIN replies that
    carry its horizon are still on slow links.  A submission reaching it
    meanwhile waits: its collection runs once the rejoin installed the
    horizon, 7, from the sequence after it, so no answer carries the
    history and only the new entry is posted and decided."""
    prepare, promise = COLLECTION_KINDS[engine]
    _submit, order, _answer, decide = ORDERING_KINDS[engine]
    sim, lan, nodes, gcs = build_group(engine=engine)
    delivered = {node.name: [] for node in nodes}
    attach_consumers(sim, gcs, nodes, delivered)
    broadcast_sequentially(sim, gcs, nodes, 3)
    nodes[0].crash()
    sim.run(until=sim.now + 20.0)
    broadcast_sequentially(sim, gcs, nodes[1:], 4)
    sent = record_sends(lan)
    lan.install_fault(LinkFault.slow("slow-replies", ["s2", "s3"], ["s1"],
                                     100.0))
    nodes[0].recover()
    rejoin = nodes[0].spawn(gcs.endpoint("s1").recover(rejoin_timeout=50.0))
    sim.run(until=sim.now + 2.0)
    assert gcs.endpoint("s3").coordinator() == "s1" and not rejoin.triggered
    gcs.endpoint("s3").broadcast("while-s1-rejoins")
    sim.run(until=sim.now + 2.0)
    assert not rejoin.triggered
    assert [kind for _, kind, _, _ in sent].count(prepare) == 0
    sim.run(until=sim.now + 100.0)
    lan.remove_fault("slow-replies")
    sim.run(until=sim.now + 100.0)

    assert rejoin.ok
    assert delivered["s2"] == delivered["s3"]
    assert delivered["s3"][-1] == "while-s1-rejoins"
    installed = 7
    prepares = [payload for _, kind, _, payload in sent if kind == prepare]
    assert prepares and all(payload["from"] == installed + 1
                            for payload in prepares)
    promised = [sequence for _, kind, _, payload in sent if kind == promise
                for sequence in payload["accepted"]]
    assert [sequence for sequence in promised if sequence <= installed] == []
    assert promised == []
    # The new entry is the only one posted and the only one decided: the
    # view that re-added s1 posted nothing.
    assert kinds_sent(sent)[order] == len(nodes)
    decided = {payload["up_to"] for _, kind, _, payload in sent
               if kind == decide}
    assert decided == {installed + 1}


@pytest.mark.parametrize("outages", (1, 2))
@pytest.mark.parametrize("engine", engine_names())
def test_a_leader_back_before_the_view_dropped_it_leads_again(
        engine, outages):
    """s1 crashes and recovers within the detector's delay, so no view
    change drops it and it leads the same view again, having lost the
    ballot it held there.  Its collection claims a ballot above the view's
    floor, which beats the fresh start's; after a second such outage it
    claims that ballot again, every other member refuses it with a NACK
    naming its promise, and s1 claims a higher one.  Either way it takes
    over: every member delivers what is broadcast next."""
    sim, lan, nodes, gcs = build_group(engine=engine)
    delivered = {node.name: [] for node in nodes}
    attach_consumers(sim, gcs, nodes, delivered)
    broadcast_sequentially(sim, gcs, nodes, 3)
    sent = record_sends(lan)
    for _ in range(outages):
        nodes[0].crash()
        sim.run(until=sim.now + 0.5)
        nodes[0].recover()
        rejoin = nodes[0].spawn(gcs.endpoint("s1").recover())
        sim.run(until=sim.now + 20.0)
        assert rejoin.ok
    delivered["s1"] = []
    attach_consumers(sim, gcs, nodes[:1], delivered)
    assert gcs.membership.view.view_id == 0
    for node in nodes:
        gcs.endpoint(node.name).broadcast(f"{node.name}-after")
    sim.run(until=sim.now + 50.0)

    after = sorted(f"{node.name}-after" for node in nodes)
    assert sorted(delivered["s1"]) == after
    assert delivered["s2"][3:] == delivered["s3"][3:] == delivered["s1"]
    nacks = kinds_sent(sent)[gcs.endpoint("s1").KIND_NACK]
    assert nacks == (0 if outages == 1 else len(nodes) - 1)


@pytest.mark.parametrize("engine", engine_names())
def test_a_rejoining_member_reports_no_horizon_until_it_installed_one(
        engine):
    """s3 rejoins while its JOIN crawls to its peers; it takes a new entry
    meanwhile, and its report on it (its ACCEPTED or its ACK) carries no
    horizon (its empty state is not one), so the leader sends it no
    history: the new entry only."""
    report_kinds, post_kind = CATCH_UP_KINDS[engine]
    sim, lan, nodes, gcs = build_group(engine=engine)
    delivered = {node.name: [] for node in nodes}
    attach_consumers(sim, gcs, nodes, delivered)
    broadcast_sequentially(sim, gcs, nodes, 6)
    nodes[2].crash()
    sim.run(until=sim.now + 20.0)
    broadcast_sequentially(sim, gcs, nodes[:2], 4)
    sent = record_sends(lan)
    lan.install_fault(LinkFault.slow("slow-joins", ["s3"], ["s1", "s2"],
                                     100.0))
    nodes[2].recover()
    rejoin = nodes[2].spawn(gcs.endpoint("s3").recover(rejoin_timeout=50.0))
    sim.run(until=sim.now + 2.0)
    gcs.endpoint("s2").broadcast("while-s3-rejoins")
    sim.run(until=sim.now + 100.0)
    lan.remove_fault("slow-joins")
    sim.run(until=sim.now + 100.0)

    assert rejoin.ok
    assert delivered["s1"][-1] == delivered["s2"][-1] == "while-s3-rejoins"
    reports = [payload["horizon"] for _, kind, _, payload in sent
               if kind in report_kinds and payload["member"] == "s3"]
    assert reports == [None]
    to_s3 = sorted(payload["sequence"]
                   for _, kind, destination, payload in sent
                   if kind == post_kind and destination == "s3")
    assert to_s3 == [11]


@pytest.mark.parametrize("engine", engine_names())
def test_a_view_installation_posts_nothing(engine):
    """s2 crashes and later rejoins.  Neither view the two changes install
    makes the coordinator post an ordering message in that instant: a
    member shows what it lacks on its report of the next entry posted to
    it, so a view has nothing to repair.  A fill at the view would re-post
    to s3 the entry it delivered after its last report, since a member
    reports its horizon before it delivers the entry it acknowledges.
    Every member ends with the same deliveries."""
    sim, lan, nodes, gcs = build_group(engine=engine)
    delivered = {node.name: [] for node in nodes}
    attach_consumers(sim, gcs, nodes, delivered)
    posted = []
    for node in nodes:
        rb = gcs.endpoint(node.name).rb
        send, broadcast = rb.send, rb.broadcast

        def recording_send(message, send=send):
            posted.append((sim.now, message.kind, message.destination))
            send(message)

        def recording_broadcast(message, destinations, broadcast=broadcast):
            posted.append((sim.now, message.kind, message.destination))
            broadcast(message, destinations)

        rb.send, rb.broadcast = recording_send, recording_broadcast
    broadcast_sequentially(sim, gcs, nodes, 6)
    nodes[1].crash()
    sim.run(until=sim.now + 20.0)
    broadcast_sequentially(sim, gcs, [nodes[0], nodes[2]], 2)
    nodes[1].recover()
    delivered["s2"] = []

    def rejoin():
        yield from gcs.endpoint("s2").recover(rejoin_timeout=20.0)
        attach_consumers(sim, gcs, [nodes[1]], delivered)

    nodes[1].spawn(rejoin())
    sim.run(until=sim.now + 20.0)
    broadcast_sequentially(sim, gcs, nodes, 3)

    views = gcs.membership.history[1:]
    assert [view.members for view in views] == [("s1", "s3"),
                                                 ("s1", "s2", "s3")]
    ordering = {"ABCAST.SEQ", "ABCAST.STABLE", "PAXOS.ACCEPT", "PAXOS.LEARN"}
    installed_at = {view.installed_at for view in views}
    assert [post for post in posted
            if post[0] in installed_at and post[1] in ordering] == []
    assert delivered["s1"] == delivered["s3"]
    assert len(delivered["s1"]) == 11
    assert delivered["s2"] == delivered["s1"][-3:]
    assert {gcs.endpoint(node.name)._delivered_seq for node in nodes} == {11}
