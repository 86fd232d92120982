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
    # A new broadcast is what makes a Multi-Paxos leader see the joiner's
    # horizon (its first ACCEPTED report).  The fixed sequencer filled s3
    # from the lowest horizon on record when the rejoin view was installed;
    # the held message waits in s3's pending until the next SEQ arrives.
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
def test_an_installed_horizon_drops_the_pending_entries_it_covers(engine):
    # A slot learned while a rejoin waits for its JOIN reply, then covered
    # by the horizon the reply installs, is delivered by the state it came
    # with; left in ``_pending`` it never leaves (seen on a 5-server
    # Multi-Paxos rejoin) and feeds the fixed sequencer's VC_STATE.
    sim, lan, nodes, gcs = build_group(engine=engine)
    endpoint = gcs.endpoint("s3")
    for sequence in (2, 3, 5):
        endpoint._pending[sequence] = _PendingMessage(
            broadcast_id=f"s1#{sequence}", payload=sequence, sender="s1")
    endpoint._install_horizon(3)
    assert endpoint._delivered_seq == 3
    assert list(endpoint._pending) == [5]


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
    # The sequencer stays, and the view change fills each member from the
    # horizon it last reported: it re-posts what was in flight at the
    # crash, none of the history, and every SEQ after the crash is
    # acknowledged once per member at most.
    before = max(payload["sequence"] for at, kind, _, payload in sent
                 if kind == "ABCAST.SEQ" and at < crashed_at)
    reported = {payload["member"]: payload["horizon"]
                for at, kind, _, payload in sent
                if kind == "ABCAST.ACK" and at < crashed_at}
    after = [(kind, destination, payload)
             for at, kind, destination, payload in sent if at >= crashed_at]
    reposted = [(destination, payload["sequence"])
                for kind, destination, payload in after
                if kind == "ABCAST.SEQ" and payload["sequence"] <= before]
    assert reposted and all(reported[member] < sequence
                            for member, sequence in reposted)
    in_flight = before - min(reported[name] for name in survivors
                             if name != "s1")
    assert len(reposted) <= in_flight * 7
    acks = Counter(kind for kind, _, _ in after)["ABCAST.ACK"]
    assert acks <= (assigned - before) * 9 + len(reposted)
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
    lan.install_fault(LinkFault.partition("split", ["s1"], ["s2", "s3", "s4"]))
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
#: the coordinator, and the kind (with its sequence key) that posts one
#: decided entry.
CATCH_UP_KINDS = {
    "multi-paxos": (("PAXOS.PROMISE", "PAXOS.ACCEPTED"), "PAXOS.LEARN",
                    "slot"),
    "fixed-sequencer": (("ABCAST.ACK", "ABCAST.VC_STATE"), "ABCAST.SEQ",
                        "sequence"),
}


def posts_at_or_below_a_reported_horizon(deliveries, engine="multi-paxos",
                                         restarts=None):
    """``(member, sequence)`` of every LEARN (Multi-Paxos) or SEQ (fixed
    sequencer) that reached a member for a sequence at or below a horizon
    the member had reported to the post's sender before it was sent.
    ``restarts`` maps a member to the instant it recovered: what it
    reported before is void."""
    report_kinds, post_kind, key = CATCH_UP_KINDS[engine]
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
            if known and max(known) >= payload[key]:
                found.append((destination, payload[key]))
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
    it collects no pending state after the first view change, and each
    view change fills every member from the horizon on record: s2 gets,
    at each, the entry it delivered after its last report, and s3 what its
    state transfer left out.  So as many SEQs and ACKs are delivered after
    25 broadcasts as after 100 (re-posting the whole history to the view
    made both grow with it)."""
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
        assert short[kind] == long[kind] == 11, kind


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


#: A new fixed sequencer holds only the assignments its takeover collected.
_UNFILLED_GAP = pytest.mark.xfail(
    strict=True, reason="a new fixed sequencer cannot fill a gap older than "
    "what its takeover collected")


@pytest.mark.parametrize("engine,view_change", [
    pytest.param("multi-paxos", "no-view-change", id="no-view-change"),
    pytest.param("fixed-sequencer", "no-view-change",
                 id="fixed-sequencer-no-view-change"),
    pytest.param("multi-paxos", "leader-crash", id="leader-crash"),
    pytest.param("multi-paxos", "member-rejoin", id="member-rejoin"),
    pytest.param("fixed-sequencer", "leader-crash",
                 id="fixed-sequencer-leader-crash", marks=_UNFILLED_GAP),
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
    that comes first fills exactly what s3 lacks: a new Multi-Paxos leader
    from s3's PROMISE, or s1 — when a view drops the crashed s2, and again
    when one re-adds it — from the horizon s3 last reported.  s3 then
    delivers every entry, in order.  A new fixed sequencer holds only the
    assignments its takeover collected, and no follower keeps what it
    delivered, so s3's gap stays open after a leader crash there (strict
    xfail)."""
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


def test_a_sequence_whose_acks_were_all_lost_is_posted_again(monkeypatch):
    """Every follower's ACK of sequence 4 is lost, so the sequencer s1 holds
    only its own and cannot announce 4, nor anything after it, stable.  A
    follower's ACK of sequence 5 shows that it never answered 4: s1 posts it
    SEQ(4) again, the follower acknowledges it again, and every broadcast
    is delivered everywhere with no view change."""
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


def test_a_sequence_is_posted_again_only_to_who_did_not_answer(
        monkeypatch):
    """Five members: s3's, s4's and s5's ACKs of sequence 4 are lost, so s1
    holds two of the three it needs.  Their ACKs of sequence 5 get SEQ(4)
    again; s2, whose ACK of 4 arrived, gets it once."""
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
    copies = Counter(destination.name
                     for _, message, destination in deliveries
                     if message.kind == "ABCAST.SEQ"
                     and message.payload["sequence"] == 4)
    assert copies == {"s1": 1, "s2": 1, "s3": 2, "s4": 2, "s5": 2}
    assert all(len(delivered[node.name]) == 5 for node in nodes)


def test_a_learn_lost_after_the_last_accepted_is_reported(monkeypatch):
    """Both followers' LEARN of slot 4 is lost after they accepted it, and
    their ACCEPTED of 4 went out before the gap showed.  The next broadcast
    is learned above the gap; the follower reports it to the leader on an
    ACCEPTED of that slot, and the leader sends LEARN(4) again: every member
    delivers both, with no view change."""
    dropped = drop_first_copies(
        monkeypatch, lambda message, member: message.kind == "PAXOS.LEARN"
        and member != message.sender and message.payload["slot"] == 4)
    sim, lan, nodes, gcs = build_group(engine="multi-paxos")
    obs = Observability(sim)
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
    trace = broadcast_trace(obs)
    assert trace.check_total_order() and trace.check_integrity()
    assert trace.check_uniform_agreement(["s1", "s2", "s3"])


@pytest.mark.parametrize("engine", engine_names())
def test_a_follower_excluded_alive_catches_up_from_its_first_report(engine):
    """A netsplit cuts s3 off, the heartbeat detector excludes it, and s1
    and s2 decide 12 entries without it.  s3 kept its state, so when the
    view re-adds it the leader holds no report of it and counts it at the
    others' horizon; s3's first report (an ACCEPTED, or its ACK of what
    that fill sent) shows its own, lower one, and the leader sends the
    entries in between."""
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
    # A Multi-Paxos member first reports on the ACCEPTED of the next slot;
    # a fixed-sequencer one on its ACK of the fill the view re-add sent it.
    assert len(delivered["s3"]) == {"multi-paxos": 6,
                                    "fixed-sequencer": 18}[engine]

    broadcast_sequentially(sim, gcs, nodes[:2], 2)
    assert delivered["s3"] == delivered["s1"]
    assert len(delivered["s3"]) == 20
    trace = broadcast_trace(obs)
    assert trace.check_total_order() and trace.check_integrity()
    assert trace.check_uniform_agreement(["s1", "s2", "s3"])
    assert posts_at_or_below_a_reported_horizon(deliveries, engine) == []


def test_a_rejoined_leader_leads_phase_1_from_the_horizon_it_installed():
    """s1 recovers and the detector trusts it again (so it leads) 1 ms
    later, while the JOIN replies that carry its horizon are still on slow
    links.  A proposal reaching it meanwhile waits: phase 1 runs once the
    rejoin installed the horizon, from the slot after it, so no promise
    carries the history and only the new proposal is accepted."""
    sim, lan, nodes, gcs = build_group(engine="multi-paxos")
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
    assert [kind for _, kind, _, _ in sent].count("PAXOS.PREPARE") == 0
    sim.run(until=sim.now + 100.0)
    lan.remove_fault("slow-replies")
    sim.run(until=sim.now + 100.0)

    assert rejoin.ok
    assert delivered["s2"] == delivered["s3"]
    assert delivered["s3"][-1] == "while-s1-rejoins"
    prepares = [payload for _, kind, _, payload in sent
                if kind == "PAXOS.PREPARE"]
    assert prepares and all(payload["from"] == 8 for payload in prepares)
    promised = [slot for _, kind, _, payload in sent
                if kind == "PAXOS.PROMISE" for slot in payload["accepted"]]
    assert promised == []
    # The new proposal is the only slot accepted; the view that re-added
    # s1 refilled only slot 7, whose LEARN no report had covered yet.
    assert kinds_sent(sent)["PAXOS.ACCEPT"] == len(nodes)
    learned = {payload["slot"] for _, kind, _, payload in sent
               if kind == "PAXOS.LEARN"}
    assert learned == {7, 8}


@pytest.mark.parametrize("engine", engine_names())
def test_a_rejoining_member_reports_no_horizon_until_it_installed_one(
        engine):
    """s3 rejoins while its JOIN crawls to its peers; it takes a new entry
    meanwhile, and its reports (its ACCEPTED of it, or its ACKs of the fill
    and of it) carry no horizon (its empty state is not one), so the leader
    sends it no history: the rejoin view's fill from the lowest horizon on
    record, and the new entry."""
    report_kinds, post_kind, key = CATCH_UP_KINDS[engine]
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
    assert reports == {"multi-paxos": [None],
                       "fixed-sequencer": [None, None]}[engine]
    to_s3 = sorted(payload[key] for _, kind, destination, payload in sent
                   if kind == post_kind and destination == "s3")
    assert to_s3 == [10, 11]
