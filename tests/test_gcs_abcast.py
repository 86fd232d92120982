"""Tests of classical (uniform) atomic broadcast."""

from __future__ import annotations

from collections import Counter

import pytest

from repro.core.audit import SafetyAudit
from repro.gcs import GroupCommunicationSystem
from repro.network import Lan, LinkFault, Node
from repro.replication.cluster import ReplicatedDatabaseCluster
from repro.sim import Simulator
from repro.workload import OpenLoopClientPool, SimulationParameters


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


def test_all_members_deliver_in_the_same_order():
    sim, lan, nodes, gcs = build_group()
    delivered = {node.name: [] for node in nodes}
    attach_consumers(sim, gcs, nodes, delivered)

    def producer(name, count):
        endpoint = gcs.endpoint(name)
        for index in range(count):
            endpoint.broadcast(f"{name}-m{index}")
            yield sim.timeout(0.3)

    for node in nodes:
        node.spawn(producer(node.name, 4))
    sim.run(until=200.0)

    sequences = list(delivered.values())
    assert len(sequences[0]) == 12
    assert sequences[0] == sequences[1] == sequences[2]
    assert gcs.trace.check_validity()
    assert gcs.trace.check_integrity()
    assert gcs.trace.check_total_order()
    assert gcs.trace.check_uniform_agreement([node.name for node in nodes])


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
    assert gcs.trace.check_total_order()


def test_crash_wipes_undelivered_messages_classical():
    """Delivered-to-endpoint but unprocessed messages die with the node."""
    sim, lan, nodes, gcs = build_group()
    # No consumer on s3: its deliveries stay queued at the endpoint.
    delivered = {node.name: [] for node in nodes}
    attach_consumers(sim, gcs, nodes[:2], delivered)
    gcs.endpoint("s1").broadcast("will-be-lost-on-s3")
    sim.run(until=20.0)
    assert gcs.endpoint("s3").deliveries.pending_items == 1
    nodes[2].crash()
    assert gcs.endpoint("s3").deliveries.pending_items == 0


def test_classical_recovery_uses_state_transfer_not_replay():
    sim, lan, nodes, gcs = build_group()
    delivered = {node.name: [] for node in nodes}
    attach_consumers(sim, gcs, nodes[:2], delivered)
    gcs.endpoint("s1").checkpoint_provider = lambda: {"state": "from-s1"}
    gcs.endpoint("s2").checkpoint_provider = lambda: {"state": "from-s2"}
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
    assert gcs.endpoint("s3").deliveries.pending_items == 0


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
    admit = lan._admit

    def recording_admit(message):
        sent.append((lan.sim.now, message.kind, message.destination,
                     message.payload))
        return admit(message)

    lan._admit = recording_admit
    return sent


def broadcast_sequentially(sim, gcs, nodes, count):
    """``count`` A-broadcasts, round-robin over the members, each delivered
    everywhere before the next is sent."""
    for index in range(count):
        gcs.endpoint(nodes[index % len(nodes)].name).broadcast(f"m{index}")
        sim.run(until=sim.now + 20.0)


def kinds_sent(sent):
    return Counter(kind for _, kind, _, _ in sent)


@pytest.mark.parametrize("member_count", (3, 5, 9))
def test_fixed_sequencer_message_bill_is_3n_plus_1(member_count):
    sim, lan, nodes, gcs = build_group(member_count)
    delivered = {node.name: [] for node in nodes}
    attach_consumers(sim, gcs, nodes, delivered)
    sent = record_sends(lan)
    broadcasts = 6
    broadcast_sequentially(sim, gcs, nodes, broadcasts)

    assert all(len(log) == broadcasts for log in delivered.values())
    kinds = kinds_sent(sent)
    per_round = member_count * broadcasts
    assert kinds.pop("ABCAST.STABLE") <= per_round
    assert kinds == {"ABCAST.DATA": broadcasts, "ABCAST.SEQ": per_round,
                     "ABCAST.ACK": per_round}
    # A stability horizon is announced to a member once, not once per ACK
    # that arrives after the quorum-th.
    announcements = [(payload["up_to"], destination)
                     for _, kind, destination, payload in sent
                     if kind == "ABCAST.STABLE"]
    assert len(announcements) == len(set(announcements))


@pytest.mark.parametrize("member_count", (3, 5, 9))
def test_multi_paxos_message_bill_is_4n_plus_1(member_count):
    sim, lan, nodes, gcs = build_group(member_count, engine="multi-paxos")
    delivered = {node.name: [] for node in nodes}
    attach_consumers(sim, gcs, nodes, delivered)
    broadcast_sequentially(sim, gcs, nodes, 1)      # phase 1: leader elected
    sent = record_sends(lan)
    broadcasts = 6
    broadcast_sequentially(sim, gcs, nodes, broadcasts)

    assert all(len(log) == 1 + broadcasts for log in delivered.values())
    per_round = member_count * broadcasts
    assert kinds_sent(sent) == {
        "PAXOS.PROPOSE": broadcasts, "PAXOS.ACCEPT": per_round,
        "PAXOS.ACCEPTED": per_round, "PAXOS.LEARN": per_round}


@pytest.mark.parametrize("engine", ("fixed-sequencer", "multi-paxos"))
def test_a_unicast_is_three_kernel_events_a_view_post_n_plus_two(engine):
    """The event bill of the message path, beside its message bill: a post
    costs one send charge and one wire event, and each copy it delivers one
    reception charge — the things that take simulated time.  A unicast is
    therefore 3 events and a view post to N members N + 2.  The hand-offs in
    between (outbox → CPU, inbox → CPU) take none and are not events (they
    were: 5 per message before the served store), so the next zero-delay
    hop added to the path fails here."""
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
    # Above the message path each A-delivery costs three more: the delivery
    # process and the consumer are parked on stores (a ``get`` each) and the
    # delivery is charged to the CPU.
    a_deliveries = broadcasts * len(nodes)
    assert events - 3 * a_deliveries == \
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
    # The view change re-sends every assignment so all members can
    # re-acknowledge: history and what was in flight, once per member — not
    # once per member per ``VC_STATE`` reply.
    after = kinds_sent(entry for entry in sent if entry[0] >= crashed_at)
    assert after["ABCAST.SEQ"] <= assigned * 9
    assert after["ABCAST.ACK"] <= assigned * 9
    assert all(cluster.gcs.endpoint(name)._delivered_seq == assigned
               for name in survivors)
    report = SafetyAudit(cluster).report(clients.results)
    assert report.confirmed_transactions >= 200
    assert not report.transaction_lost
    assert not report.divergent_items and report.serializable


def test_delivered_sequences_do_not_reenter_pending(follower_crash_run):
    cluster = follower_crash_run[0]
    for name in cluster.up_servers():
        endpoint = cluster.gcs.endpoint(name)
        stale = [sequence for sequence in endpoint._pending
                 if sequence <= endpoint._delivered_seq]
        assert stale == [], f"{name} keeps delivered sequences pending"


def test_takeover_reposts_an_assignment_only_a_late_replier_knows():
    sim, lan, nodes, gcs = build_group(5)
    delivered = {node.name: [] for node in nodes}
    attach_consumers(sim, gcs, nodes, delivered)
    # s1's SEQ reaches only s1 and s5: two ACKs are no quorum of five, so
    # the assignment is neither stable nor known to s2..s4.
    lan.partition(["s1"], ["s2", "s3", "s4"])
    gcs.endpoint("s5").broadcast("only-s5-knows")
    sim.run(until=20.0)
    assert 1 in gcs.endpoint("s5")._pending
    assert not any(delivered.values())
    # s5's VC_STATE reaches the new sequencer long after s2..s4 have given
    # it the quorum that ends its takeover barrier.
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
