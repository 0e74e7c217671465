"""Hot-path bookkeeping: channel index, topology caches, pending index.

These guard the incremental structures the fork/step overhaul
introduced: the sorted non-empty-channel index (kept in sync by channel
transition callbacks, even for direct enqueues), the partition gate and
the round-robin scheduler's sort-only-on-new-keys fast path, the cached
``servers()``/``clients()`` topology views, the incomplete-operation
index behind ``pending_operations()``, and the ``run_until`` step
budget (which used to permit ``max_steps + 1`` deliveries).
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import OperationIncompleteError
from repro.faults.adversary import AdversaryConfig, ChannelAdversary, Partition
from repro.registers.abd import build_abd_system
from repro.sim.events import Message
from repro.sim.network import World
from repro.sim.process import ClientProcess, ServerProcess
from repro.sim.scheduler import RoundRobinScheduler


def _rescan(world: World):
    """Ground truth: scan every channel object."""
    return sorted(k for k, ch in world.channels.items() if len(ch) > 0)


class TestChannelIndex:
    def test_index_tracks_enqueue_and_dequeue(self):
        handle = build_abd_system(n=3, f=1, value_bits=4)
        world = handle.world
        world.invoke_write(handle.writer_ids[0], 3)
        assert world.undelivered_channels() == _rescan(world)
        while world.enabled_channels():
            world.step()
            assert world.undelivered_channels() == _rescan(world)
        assert world.undelivered_channels() == []

    def test_index_sees_direct_channel_enqueues(self):
        """Tests enqueue on channel objects directly; the index follows."""
        world = World()
        world.add_process(ServerProcess("s0"))
        world.add_process(ServerProcess("s1"))
        channel = world.channel("s0", "s1")
        assert world.enabled_channels() == []
        channel.enqueue(Message.make("ping"))
        assert world.enabled_channels() == [("s0", "s1")]
        channel.dequeue()
        assert world.enabled_channels() == []

    def test_forked_world_has_independent_index(self):
        handle = build_abd_system(n=3, f=1, value_bits=4)
        world = handle.world
        world.invoke_write(handle.writer_ids[0], 3)
        clone = world.fork()
        clone.deliver_all()
        assert clone.undelivered_channels() == []
        assert world.undelivered_channels() == _rescan(world) != []


class _Echo(ServerProcess):
    """Answers a ``ping`` with a ``ping`` one hop further, up to two
    hops, so deliveries trigger fresh sends (and new channel keys)."""

    def __init__(self, pid: str) -> None:
        super().__init__(pid)
        self.seen = 0

    def on_message(self, ctx, src, message):
        self.seen += 1
        hop = message.get("hop", 0)
        if message.kind == "ping" and hop < 2:
            ctx.send(src, Message.make("ping", hop=hop + 1))

    def state_digest(self):
        return (self.seen,)


class _SortingRoundRobin(RoundRobinScheduler):
    """Reference: the round-robin scheduler that sorts and registers
    the enabled keys on every selection."""

    def clone(self):
        duplicate = _SortingRoundRobin()
        duplicate._order = list(self._order)
        duplicate._known = set(self._known)
        duplicate._cursor = self._cursor
        return duplicate

    def select(self, world, enabled):
        for key in sorted(enabled):
            if key not in self._known:
                self._known.add(key)
                self._order.append(key)
        enabled_set = set(enabled)
        total = len(self._order)
        for offset in range(total):
            index = (self._cursor + offset) % total
            if self._order[index] in enabled_set:
                self._cursor = index + 1
                return self._order[index]
        raise AssertionError("no enabled key in the reference order")


_PIDS = ("a", "b", "c", "d", "e")


def _reference_enabled(world: World):
    """Ground truth for the partition gate: rescan, then ``crosses``."""
    partition = world.adversary.partition
    return [
        k for k in _rescan(world)
        if partition is None or not partition.crosses(*k)
    ]


class TestIndexProperty:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=0, max_value=10**6))
    def test_index_gate_and_scheduler_match_references(self, seed):
        """Random sends, deliveries, direct enqueues, partitions, heals
        and mid-partition forks: the index, the gate and the
        scheduler's selections agree with their rescanning references."""
        rng = random.Random(seed)
        world = World()
        for pid in _PIDS:
            world.add_process(_Echo(pid))
        world.adversary = ChannelAdversary(
            AdversaryConfig(
                duplicate_probability=0.2,
                reorder_probability=0.3,
                max_duplicates=16,
            ),
            seed=seed,
        )
        reference = _SortingRoundRobin()
        for _ in range(120):
            roll = rng.random()
            src, dst = rng.sample(_PIDS, 2)
            if roll < 0.25:
                world.enqueue_message(src, dst, Message.make("ping"))
            elif roll < 0.35:
                world.channel(src, dst).enqueue(Message.make("pong"))
            elif roll < 0.45:
                pending = world.undelivered_channels()
                if pending:
                    world.deliver(*rng.choice(pending))
            elif roll < 0.52:
                cut = rng.sample(_PIDS, rng.randint(1, 2))
                world.adversary.start_partition(Partition.isolate(cut))
            elif roll < 0.57:
                world.adversary.heal_partition()
            elif roll < 0.62:
                # Continue on the fork half the time, the original
                # otherwise, after driving the other twin a little:
                # both must keep an exact index of their own.
                clone = world.fork()
                if rng.random() < 0.5:
                    world, clone = clone, world
                    reference = reference.clone()
                clone.enqueue_message(src, dst, Message.make("pong"))
                for key in clone.undelivered_channels()[:3]:
                    clone.deliver(*key)
                assert clone.undelivered_channels() == _rescan(clone)
            else:
                enabled = world.enabled_channels()
                if enabled:
                    expected = reference.select(world, list(enabled))
                    record = world.step()
                    assert (record.src, record.dst) == expected
            assert world.undelivered_channels() == _rescan(world)
            assert world.enabled_channels() == _reference_enabled(world)


class TestTopologyCaches:
    def test_cached_views_match_and_invalidate(self):
        world = World()
        world.add_process(ServerProcess("s0"))
        world.add_process(ClientProcess("c0"))
        assert [p.pid for p in world.servers()] == ["s0"]
        assert [p.pid for p in world.clients()] == ["c0"]
        world.add_process(ServerProcess("s1"))
        assert [p.pid for p in world.servers()] == ["s0", "s1"]

    def test_cached_list_is_a_copy(self):
        world = World()
        world.add_process(ServerProcess("s0"))
        view = world.servers()
        view.clear()
        assert [p.pid for p in world.servers()] == ["s0"]


class TestPendingIndex:
    def test_pending_tracks_completion(self):
        handle = build_abd_system(n=3, f=1, value_bits=4, num_readers=2)
        world = handle.world
        write = world.invoke_write(handle.writer_ids[0], 3)
        read = world.invoke_read(handle.reader_ids[0])
        assert {op.op_id for op in world.pending_operations()} == {0, 1}
        world.run_op_to_completion(write)
        # Fair stepping may have completed the read too; the index must
        # agree with a linear scan either way.
        assert world.pending_operations() == [
            op for op in world.operations if not op.is_complete
        ]
        if not read.is_complete:
            world.run_op_to_completion(read)
        assert world.pending_operations() == []

    def test_pending_matches_linear_scan(self):
        handle = build_abd_system(
            n=3, f=1, value_bits=4, num_writers=2, num_readers=2
        )
        world = handle.world
        world.invoke_write(handle.writer_ids[0], 1)
        world.invoke_read(handle.reader_ids[0])
        for _ in range(10):
            if not world.enabled_channels():
                break
            world.step()
        expected = [op for op in world.operations if not op.is_complete]
        assert world.pending_operations() == expected


class TestRunUntilBudget:
    def test_run_until_executes_at_most_max_steps(self):
        handle = build_abd_system(n=3, f=1, value_bits=4)
        world = handle.world
        world.invoke_write(handle.writer_ids[0], 3)
        before = world.step_count
        with pytest.raises(OperationIncompleteError):
            world.run_until(lambda w: False, max_steps=2)
        assert world.step_count - before == 2

    def test_run_until_zero_budget_takes_no_steps(self):
        handle = build_abd_system(n=3, f=1, value_bits=4)
        world = handle.world
        world.invoke_write(handle.writer_ids[0], 3)
        before = world.step_count
        with pytest.raises(OperationIncompleteError):
            world.run_until(lambda w: False, max_steps=0)
        assert world.step_count == before

    def test_run_until_stops_immediately_when_predicate_holds(self):
        handle = build_abd_system(n=3, f=1, value_bits=4)
        world = handle.world
        assert world.run_until(lambda w: True, max_steps=0) == 0
