"""Property-based tests (hypothesis) on the core data structures and invariants."""

from __future__ import annotations

from functools import partial

from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.core import (DeliveredOn, LoggedOn, SafetyLevel, classify,
                        classify_notification, group_failure_probability,
                        loss_condition, pairwise_conflict_probability)
from repro.db import (CommittedTransaction, Item, ItemStore, LockManager,
                      LockMode, check_one_copy_serializability, redo_from_log)
from repro.db.items import INITIAL
from repro.db.wal import LogRecord, LogRecordType
from repro.network import Dispatcher, Message, Node
from repro.sim import RandomStreams, Simulator
from tests.reference_dispatcher import ReferenceDispatcher
from tests.reference_item_store import ReferenceItemStore


# --------------------------------------------------------------------------- sim
@given(st.integers(min_value=0, max_value=2**32),
       st.text(min_size=1, max_size=20))
def test_random_streams_reproducible_for_any_seed_and_name(seed, name):
    first = RandomStreams(seed).uniform(name, 0.0, 1.0)
    second = RandomStreams(seed).uniform(name, 0.0, 1.0)
    assert first == second
    assert 0.0 <= first <= 1.0


@given(st.lists(st.floats(min_value=0.01, max_value=50.0), min_size=1,
                max_size=30))
@settings(max_examples=30, deadline=None)
def test_simulated_clock_is_monotone_for_any_timeout_set(delays):
    sim = Simulator()
    observed = []
    for delay in delays:
        sim.timeout(delay).add_callback(lambda event: observed.append(sim.now))
    sim.run()
    assert observed == sorted(observed)
    assert len(observed) == len(delays)


# --------------------------------------------------------------------------- network
#: Every external action of a schedule happens on its own tick, the k-th a
#: further k ns late.  Charges and loads are whole microseconds, so no chain
#: of them leads from one action's instant to another's and the two
#: dispatchers never face a same-instant tie — the one place where they are
#: *meant* to differ (ROADMAP 3(2)).
TICK_MS = 0.013
SKEW_MS = 1e-6
LOAD_MS = (0.031, 0.11, 0.29)
ACTIONS = st.sampled_from([("message",)] * 6 + [("fault",)]
                          + [("load", ms) for ms in LOAD_MS])


def drive_lone_node(dispatcher_class, schedule, cpus):
    """One node, one dispatcher, ``schedule`` = [(tick, action)]: messages
    arrive (dropped while the node is down, as the LAN would), faults
    alternate crash and recover+restart, loads compete for the CPU."""
    sim = Simulator(seed=1)
    node = Node(sim, "s1", cpus=cpus)
    dispatcher = dispatcher_class(sim, node)
    handled = []
    dispatcher.register_default(
        lambda message: handled.append((message.payload, sim.now)))
    dispatcher.start()
    book = {"starts": 1, "crashes": 0, "accepted": 0, "dropped": 0,
            "dropped_in_flight": 0}

    def message():
        if node.is_up:
            book["accepted"] += 1
            node.inbox.put(Message(sender="s2", destination="s1", kind="K",
                                   payload=book["accepted"]))

    def fault():
        if node.is_up:
            # With no ties, a backlog means its head is being charged.
            backlog = book["accepted"] - len(handled) - book["dropped"]
            book["dropped"] += backlog
            book["dropped_in_flight"] += backlog > 0
            book["crashes"] += 1
            node.crash()
            assert not dispatcher.is_running
        else:
            node.recover()
            dispatcher.start()
            book["starts"] += 1

    def burn(duration):
        yield node.cpu.use(duration)

    def load(duration):
        if node.is_up:
            node.spawn(burn(duration))

    actions = {"message": message, "fault": fault, "load": load}
    for position, (tick, (name, *args)) in enumerate(schedule):
        sim.call_at(tick * TICK_MS + position * SKEW_MS,
                    partial(actions[name], *args))
    sim.run()
    assert dispatcher.dispatched_count == len(handled)
    return (handled, node.cpu.busy_time, node.cpu.granted_count,
            sim.scheduled_events, book)


@given(st.lists(st.tuples(st.integers(min_value=1, max_value=150), ACTIONS),
                unique_by=lambda entry: entry[0], min_size=10, max_size=60),
       st.sampled_from((1, 2)))
@settings(max_examples=150, deadline=None, derandomize=True)
def test_served_inbox_matches_the_dispatcher_process(schedule, cpus):
    served = drive_lone_node(Dispatcher, schedule, cpus)
    reference = drive_lone_node(ReferenceDispatcher, schedule, cpus)
    assert served[:3] == reference[:3]      # (message, time)s, busy, grants
    handled, _, _, served_events, book = served
    assert book == reference[4]
    # The process pays one zero-delay hand-off per message it charges
    # (dispatched, or in flight at a crash), a bootstrap per start and its
    # own completion per kill; the served inbox pays none of them.
    assert reference[3] - served_events == \
        len(handled) + book["dropped_in_flight"] + book["starts"] \
        + book["crashes"]


# --------------------------------------------------------------------------- db
@given(st.lists(st.tuples(st.integers(min_value=1, max_value=50),
                          st.integers(min_value=0, max_value=1000)),
                min_size=1, max_size=100))
def test_item_install_converges_to_highest_commit_order(writes):
    item = Item(key="x", value=0)
    accepted = 0
    highest_so_far = 0
    for order, value in writes:
        item.install(value, writer=f"t{order}", commit_order=order)
        if order >= highest_so_far:        # Thomas write rule accepts this one
            accepted += 1
            highest_so_far = order
    max_order = max(order for order, _value in writes)
    assert item.commit_order == max_order
    # The surviving value was written at the highest commit order seen.
    assert item.value in [value for order, value in writes if order == max_order]
    assert item.version == accepted        # only accepted installs bump versions
    # Re-installing anything older never changes the value.
    item.install(999_999, writer="late", commit_order=0)
    assert item.commit_order == max_order


@given(st.lists(st.tuples(st.sampled_from(["t1", "t2", "t3", "t4"]),
                          st.sampled_from(["a", "b", "c"]),
                          st.sampled_from([LockMode.SHARED, LockMode.EXCLUSIVE])),
                max_size=40))
@settings(max_examples=50, deadline=None)
def test_lock_manager_never_grants_conflicting_locks(requests):
    sim = Simulator()
    locks = LockManager(sim)
    events = []
    aborted = set()
    for owner, key, mode in requests:
        if owner in aborted:
            continue
        event = locks.acquire(owner, key, mode)
        events.append((owner, event))
        # A deadlock may abort *any* earlier pending request of any owner;
        # emulate the owning transactions handling their abort.
        for victim_owner, victim_event in events:
            if victim_event.triggered and not victim_event.ok and \
                    victim_owner not in aborted:
                victim_event.defuse()
                aborted.add(victim_owner)
                locks.release_all(victim_owner)
    for _owner, event in events:
        if event.triggered and not event.ok:
            event.defuse()
    sim.run()
    for key in ("a", "b", "c"):
        holders = locks.holders(key)
        exclusive = [owner for owner, mode in holders.items()
                     if mode is LockMode.EXCLUSIVE]
        if exclusive:
            assert len(holders) == 1, (
                f"exclusive holder {exclusive} coexists with {holders}")


@given(st.lists(st.tuples(st.integers(min_value=1, max_value=20),
                          st.lists(st.sampled_from(["x", "y", "z"]),
                                   max_size=3, unique=True)),
                min_size=1, max_size=20))
def test_serial_histories_in_commit_order_are_serializable(spec):
    """A history whose reads always observe the latest committed versions
    must pass the one-copy serialisability check."""
    current_version = {}
    transactions = []
    for index, (gap, write_keys) in enumerate(spec):
        order = index + 1
        reads = {key: current_version.get(key, 0) for key in write_keys}
        transactions.append(CommittedTransaction(
            txn_id=f"t{order}", commit_order=order, read_versions=reads,
            write_keys=tuple(write_keys)))
        for key in write_keys:
            current_version[key] = current_version.get(key, 0) + 1
    assert check_one_copy_serializability(transactions).serializable


#: Keys the store model draws from: the implicit population of six, two
#: conventional keys beyond it and two foreign ones.
MODEL_KEYS = [f"item-{index}" for index in range(8)] + ["extra-a", "extra-b"]


def _item_state(item):
    return None if item is None else (
        item.key, item.value, item.version, item.writer, item.commit_order,
        list(item.history))


class ItemStoreModel(RuleBasedStateMachine):
    """The sparse store against the eager reference, call for call.

    Two (sparse, reference) pairs over a population of six, so snapshots
    travel between stores.  After every step both stores of a pair must be
    indistinguishable through the public queries — and those queries must
    not have materialised anything.
    """

    POPULATION = 6
    KEYS = st.sampled_from(MODEL_KEYS)
    PAIRS = st.integers(min_value=0, max_value=1)

    def __init__(self):
        super().__init__()
        self.pairs = [(ItemStore(self.POPULATION),
                       ReferenceItemStore(self.POPULATION)) for _ in range(2)]

    def _both(self, pair, call):
        """Run ``call(store)`` on both stores; results or errors must agree."""
        outcomes = []
        for store in self.pairs[pair]:
            try:
                outcomes.append(("ok", call(store)))
            except (KeyError, ValueError) as error:
                outcomes.append((type(error).__name__, None))
        assert outcomes[0] == outcomes[1]

    @rule(pair=PAIRS, key=KEYS, value=st.integers())
    def create(self, pair, key, value):
        self._both(pair, lambda store: _item_state(store.create(key, value)))

    @rule(pair=PAIRS, key=KEYS)
    def lookup(self, pair, key):
        self._both(pair, lambda store: _item_state(store.lookup(key)))
        sparse = self.pairs[pair][0]
        assert sparse.lookup(key) is sparse.lookup(key)

    @rule(pair=PAIRS, key=KEYS)
    def get(self, pair, key):
        self._both(pair, lambda store: _item_state(store.get(key)))

    @rule(pair=PAIRS, key=KEYS, value=st.integers(),
          commit_order=st.integers(min_value=0, max_value=12))
    def install(self, pair, key, value, commit_order):
        def call(store):
            item = store.get(key)
            item.install(value, f"t{commit_order}", commit_order)
            return _item_state(item)
        self._both(pair, call)

    @rule(sender=PAIRS, receiver=PAIRS)
    def transfer(self, sender, receiver):
        for index in (0, 1):
            snapshot = self.pairs[sender][index].snapshot()
            self.pairs[receiver][index].restore(snapshot)

    @rule(pair=PAIRS)
    def reset(self, pair):
        self._both(pair, lambda store: store.reset())

    @rule(pair=PAIRS, commits=st.lists(st.tuples(
        st.dictionaries(KEYS, st.integers(), min_size=1, max_size=3),
        st.one_of(st.none(), st.integers(min_value=1, max_value=12)),
        st.sampled_from([LogRecordType.COMMIT, LogRecordType.ABORT])),
        max_size=4))
    def redo(self, pair, commits):
        records = [LogRecord(record_type, f"t{index}", payload, commit_order)
                   for index, (payload, commit_order, record_type)
                   in enumerate(commits)]
        self._both(pair, lambda store: redo_from_log(store, records))

    @rule(pair=PAIRS)
    def iterate(self, pair):
        self._both(pair, lambda store: [_item_state(item) for item in store])

    @invariant()
    def indistinguishable(self):
        for sparse, reference in self.pairs:
            held = sparse.materialised
            keys = reference.keys()
            assert sparse.keys() == keys
            assert len(sparse) == len(reference) == len(keys)
            assert list(sparse.versions().items()) == \
                list(reference.versions().items())
            for key in MODEL_KEYS:
                assert (key in sparse) == (key in reference)
            assert [sparse.committed(key) for key in keys] == \
                [reference.committed(key) for key in keys]
            snapshot = sparse.snapshot()
            assert set(snapshot) <= set(keys)
            assert {key: snapshot.get(key, INITIAL) for key in keys} == \
                reference.snapshot()
            assert sparse.materialised == held <= len(keys)


TestItemStoreModel = ItemStoreModel.TestCase
TestItemStoreModel.settings = settings(max_examples=60,
                                       stateful_step_count=30, deadline=None)


# --------------------------------------------------------------------------- core
@given(st.sampled_from(list(DeliveredOn)), st.sampled_from(list(LoggedOn)))
def test_classification_is_total_and_consistent(delivered, logged):
    level = classify(delivered, logged)
    if level is None:
        assert delivered is DeliveredOn.ONE and logged is LoggedOn.ALL
    else:
        assert level.delivered_on is delivered
        assert level.logged_on is logged


@given(st.booleans(), st.booleans(), st.booleans())
def test_runtime_classification_never_fails(delivered, logged_delegate, logged_all):
    level = classify_notification(delivered, logged_delegate, logged_all)
    assert isinstance(level, SafetyLevel)


@given(st.booleans(), st.booleans())
def test_loss_conditions_compose_as_in_the_paper(group_fails, delegate_crashes):
    """Group-1-safety is the conjunction of its two constituents: it can lose
    a transaction only under failure patterns where *both* group-safety and
    1-safety could lose one, and 2-safety never loses one at all (Table 3)."""
    group_one = loss_condition(SafetyLevel.GROUP_ONE_SAFE, group_fails,
                               delegate_crashes)
    group_only = loss_condition(SafetyLevel.GROUP_SAFE, group_fails,
                                delegate_crashes)
    one_only = loss_condition(SafetyLevel.ONE_SAFE, group_fails,
                              delegate_crashes)
    assert group_one == (group_only and one_only)
    assert not loss_condition(SafetyLevel.TWO_SAFE, group_fails,
                              delegate_crashes)
    # 0-safety is never safer than 1-safety.
    assert loss_condition(SafetyLevel.ZERO_SAFE, group_fails,
                          delegate_crashes) >= one_only


@given(st.integers(min_value=1, max_value=25),
       st.floats(min_value=0.0, max_value=1.0))
def test_group_failure_probability_is_a_probability(n, p):
    value = group_failure_probability(n, p)
    assert 0.0 <= value <= 1.0 + 1e-9


@given(st.integers(min_value=2, max_value=30),
       st.floats(min_value=0.0, max_value=0.5))
@settings(max_examples=50)
def test_group_failure_decreases_with_group_size(n, p):
    smaller = group_failure_probability(n, p)
    larger = group_failure_probability(n + 2, p)
    assert larger <= smaller + 1e-9


@given(st.floats(min_value=0.0, max_value=50.0),
       st.integers(min_value=100, max_value=100_000))
def test_pairwise_conflict_probability_is_a_probability(writes, items):
    value = pairwise_conflict_probability(writes, items)
    assert 0.0 <= value <= 1.0
