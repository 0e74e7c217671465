"""Property test: ``World.fork`` is observationally identical to deepcopy.

For seeded random topologies (algorithm, size, adversary, fault
schedule) driven to a random mid-execution point, the structural fork
and the ``copy.deepcopy`` reference fork are *twins*: the same digest
at the fork point, the same enabled channels, and — fed the identical
delivery sequence, including adversary fault decisions drawn from the
cloned RNG stream — the same digest and trace after every step.  The
parent is never disturbed by either twin.

The copy-on-write property test drives a family of nested forks, each
paired with a ``deepcopy`` shadow, through random invocations, direct
sends, deliveries, crash/recover, partitions, handle mutations and
further forks.  After every action the memoised ``world_digest`` (and
``composite_digest``) must equal a from-scratch reference, every World
must match its shadow, and no other World's state may have moved.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.faults.adversary import AdversaryConfig, ChannelAdversary, Partition
from repro.registers.abd import build_abd_system
from repro.registers.abd_swmr import build_swmr_abd_system
from repro.registers.cas import build_cas_system
from repro.sim.events import Message
from repro.sim.snapshot import composite_digest, world_digest


def _random_world(seed: int):
    """A seeded random system at a random mid-execution point."""
    rng = random.Random(seed)
    kind = rng.choice(["abd", "swmr", "cas"])
    if kind == "abd":
        handle = build_abd_system(
            n=rng.choice([3, 5]), f=1, value_bits=4,
            num_writers=2, num_readers=2,
        )
    elif kind == "swmr":
        handle = build_swmr_abd_system(
            n=rng.choice([3, 4]), f=1, value_bits=4, num_readers=2
        )
    else:
        handle = build_cas_system(n=5, f=1, value_bits=12)
    world = handle.world

    if rng.random() < 0.5:
        world.adversary = ChannelAdversary(
            AdversaryConfig(
                duplicate_probability=0.2,
                reorder_probability=0.3,
                max_duplicates=8,
            ),
            seed=seed,
        )

    # Random fault schedule + operation mix, then a few random steps.
    world.invoke_write(handle.writer_ids[0], rng.randrange(8))
    world.invoke_read(handle.reader_ids[0])
    servers = [p.pid for p in world.servers()]
    if rng.random() < 0.4:
        world.crash(rng.choice(servers))
    if world.adversary is not None and rng.random() < 0.4:
        world.adversary.start_partition(
            Partition.isolate([rng.choice(servers)])
        )
    for _ in range(rng.randrange(12)):
        if not world.enabled_channels():
            break
        world.step()
    return world


@pytest.mark.parametrize("seed", range(16))
def test_fast_fork_twins_deepcopy_fork(seed):
    world = _random_world(seed)
    parent_digest = world_digest(world)
    fast = world.fork()
    slow = world.deepcopy_fork()
    assert world_digest(fast) == world_digest(slow) == parent_digest

    rng = random.Random(seed * 977 + 1)
    for _ in range(40):
        enabled = fast.enabled_channels()
        assert enabled == slow.enabled_channels()
        if not enabled:
            break
        key = rng.choice(enabled)
        action_fast = fast.deliver(*key)
        action_slow = slow.deliver(*key)
        assert (action_fast.kind, action_fast.src, action_fast.dst) == (
            action_slow.kind,
            action_slow.src,
            action_slow.dst,
        )
        assert world_digest(fast) == world_digest(slow)

    assert [
        (a.step, a.kind, a.src, a.dst, a.info) for a in fast.trace
    ] == [(a.step, a.kind, a.src, a.dst, a.info) for a in slow.trace]
    assert [
        (op.op_id, op.kind, op.value, op.invoke_step, op.response_step)
        for op in fast.operations
    ] == [
        (op.op_id, op.kind, op.value, op.invoke_step, op.response_step)
        for op in slow.operations
    ]
    # Neither twin disturbed the parent.
    assert world_digest(world) == parent_digest


@pytest.mark.parametrize("seed", [3, 7])
def test_forked_twins_diverge_independently(seed):
    """Steps taken in one twin are invisible to the other."""
    world = _random_world(seed)
    fast = world.fork()
    slow = world.deepcopy_fork()
    enabled = fast.enabled_channels()
    if not enabled:
        pytest.skip("random point quiesced")
    fast.deliver(*enabled[0])
    assert world_digest(fast) != world_digest(slow) or fast.step_count != slow.step_count
    assert slow.enabled_channels() == world.enabled_channels()


def test_fork_preserves_pending_operation_identity():
    """Forked pending-op records are the fork's own (satellite: index)."""
    handle = build_abd_system(n=3, f=1, value_bits=4)
    world = handle.world
    world.invoke_write(handle.writer_ids[0], 5)
    clone = world.fork()
    pending = clone.pending_operations()
    assert [op.op_id for op in pending] == [0]
    assert pending[0] is clone.operations[0]
    assert pending[0] is not world.operations[0]
    # Completing in the clone does not complete in the parent.
    clone.deliver_all()
    assert clone.pending_operations() == []
    assert [op.op_id for op in world.pending_operations()] == [0]


# -- copy-on-write forks and memoised digests ---------------------------------


def _reference_digest(world):
    """``world_digest`` from scratch: every process, every non-empty
    channel, both sorted, no memo, no index."""
    processes = tuple(
        (pid, p.failed, p.state_digest())
        for pid, p in sorted(world.processes.items())
    )
    channels = tuple(
        (key, ch.state_digest())
        for key, ch in sorted(world.channels.items())
        if len(ch) > 0
    )
    return (world.step_count, processes, channels)


def _reference_composite(world, excluded):
    _, processes, channels = _reference_digest(world)
    return (
        tuple(p for p in processes if p[0] not in excluded),
        tuple(
            c for c in channels
            if c[0][0] not in excluded and c[0][1] not in excluded
        ),
    )


ACTIONS = ("step", "invoke", "send", "mutate", "crash", "recover",
           "partition", "heal", "fork")

MAX_WORLDS = 6


def _apply(world, handle, action, a, b):
    """Apply one action to ``world``; the shadow gets the same call."""
    servers = handle.server_ids
    clients = handle.writer_ids + handle.reader_ids
    if action == "step":
        enabled = world.enabled_channels()
        if enabled:
            world.deliver(*enabled[a % len(enabled)])
    elif action == "invoke":
        pid = clients[a % len(clients)]
        client = world.processes[pid]
        if client.pending_op_id is None and not client.failed:
            if pid in handle.writer_ids:
                world.invoke_write(pid, b % 16)
            else:
                world.invoke_read(pid)
    elif action == "send":
        # A stray query: the server answers it, the client drops the
        # answer (unknown ref), so the protocol stays well-formed.
        src = clients[a % len(clients)]
        dst = servers[b % len(servers)]
        world.channel(src, dst).enqueue(Message.make("get", ref=("probe", b)))
    elif action == "mutate":
        world.process(servers[a % len(servers)]).value = b % 16
    elif action == "crash":
        live = [pid for pid in servers if not world.processes[pid].failed]
        if len(live) > 1:
            world.crash(live[a % len(live)])
    elif action == "recover":
        down = [pid for pid in servers if world.processes[pid].failed]
        if down:
            world.recover(down[a % len(down)])
    elif action == "partition":
        world.adversary.start_partition(
            Partition.isolate([servers[a % len(servers)]])
        )
    elif action == "heal":
        world.adversary.heal_partition()


@settings(max_examples=60, deadline=None)
@given(
    n=st.sampled_from([3, 5]),
    actions=st.lists(
        st.tuples(
            st.integers(0, MAX_WORLDS - 1),
            st.sampled_from(ACTIONS),
            st.integers(0, 10**6),
            st.integers(0, 10**6),
        ),
        max_size=80,
    ),
)
def test_copy_on_write_twins_match_reference_and_stay_independent(n, actions):
    handle = build_abd_system(
        n=n, f=1, value_bits=4, num_writers=2, num_readers=2
    )
    root = handle.world
    root.adversary = ChannelAdversary(AdversaryConfig(), seed=n)
    worlds = [root]
    shadows = [root.deepcopy_fork()]
    excluded = (handle.writer_ids[0],)
    for target, action, a, b in actions:
        index = target % len(worlds)
        world, shadow = worlds[index], shadows[index]
        before = [_reference_digest(w) for w in worlds]
        if action == "fork":
            if len(worlds) < MAX_WORLDS:
                worlds.append(world.fork())
                shadows.append(shadow.deepcopy_fork())
        else:
            _apply(world, handle, action, a, b)
            _apply(shadow, handle, action, a, b)
        for i, (w, s) in enumerate(zip(worlds, shadows)):
            reference = _reference_digest(w)
            assert world_digest(w) == reference
            assert composite_digest(w, excluded) == _reference_composite(
                w, excluded
            )
            assert reference == _reference_digest(s)
            assert w.enabled_channels() == s.enabled_channels()
            if i != index and i < len(before):
                assert reference == before[i]
            assert all(p is w.processes[p.pid] for p in w.servers())
            assert all(p is w.processes[p.pid] for p in w.clients())


def test_handle_mutation_stays_in_its_twin():
    """``twin.process(pid)`` and ``twin.channel(a, b)`` are private."""
    handle = build_abd_system(n=3, f=1, value_bits=4)
    world = handle.world
    world.invoke_write(handle.writer_ids[0], 5)
    server = handle.server_ids[0]
    world_digest(world)  # populate the memo before forking
    twin = world.fork()
    world_digest(twin)
    before = world_digest(world)

    mine = twin.process(server)
    assert mine is not world.processes[server]
    mine.value = 9
    twin.channel(handle.reader_ids[0], server).enqueue(
        Message.make("get", ref=("probe", 0))
    )
    assert world_digest(world) == before == _reference_digest(world)
    assert world_digest(twin) == _reference_digest(twin) != before
    # servers() resolves to the current (cloned) object, not the shared one.
    assert [p for p in twin.servers() if p.pid == server] == [mine]
    # The parent clones on its own first access, too.
    theirs = world.process(server)
    assert theirs is not mine
    theirs.value = 3
    assert world_digest(twin) == _reference_digest(twin)
    assert world.processes[server].value == 3 and mine.value == 9


def test_views_are_read_only():
    handle = build_abd_system(n=3, f=1, value_bits=4)
    world = handle.world
    with pytest.raises(TypeError):
        world.processes["intruder"] = world.processes[handle.server_ids[0]]
    with pytest.raises(TypeError):
        world.channels[("a", "b")] = None
