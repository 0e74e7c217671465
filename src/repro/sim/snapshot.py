"""World forking utilities.

Valency probing (Definitions 4.3 / 5.3 / Section 6.4.2) asks whether an
*extension* of the current execution exists in which a read returns a
particular value.  We answer it constructively: fork the World, apply
the definition's channel freezes, run a read, observe the result.  The
fork must behave as a perfect deep copy (it is copy-on-write, see
:mod:`repro.sim.network`); these helpers add cheap integrity checks
around :meth:`World.fork`, and compute the digests from the World's
cached pid order, its sorted non-empty channel index and its memo of
shared components' digest entries.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.errors import SimulationError
from repro.sim.network import World


def _entries(world: World, keys, components, entry_of) -> Tuple:
    """One digest entry per key, memoised while the component is shared.

    A component the World does not own is shared with a fork twin and
    therefore never mutated (see :mod:`repro.sim.network`), so its
    entry stays in ``world._digests`` until the World takes ownership;
    owned components are digested fresh.
    """
    owned = world._owned
    memo = world._digests
    entries = []
    for key in keys:
        entry = memo.get(key)
        if entry is None:
            entry = entry_of(key, components[key])
            if key not in owned:
                memo[key] = entry
        entries.append(entry)
    return tuple(entries)


def _process_entry(pid: str, process) -> tuple:
    return (pid, process.failed, process.state_digest())


def _channel_entry(key: tuple, channel) -> tuple:
    return (key, channel.state_digest())


def world_digest(world: World) -> Tuple:
    """A hashable digest of the full observable World state.

    Covers every process digest, every non-empty channel's contents
    (both in id order), and the step counter.  Two Worlds with equal
    digests are indistinguishable to any extension (the
    composite-automaton state of Claim 4.9).
    """
    return (
        world.step_count,
        _entries(world, world._pids, world._processes, _process_entry),
        _entries(world, world._nonempty, world._channels, _channel_entry),
    )


def fork_world(world: World, verify: bool = False) -> World:
    """Fork a World; optionally verify the copy digests identically."""
    clone = world.fork()
    if verify and world_digest(clone) != world_digest(world):
        raise SimulationError("fork produced a divergent copy")
    return clone


def forks_agree(a: World, b: World) -> bool:
    """True iff two Worlds are observably identical."""
    return world_digest(a) == world_digest(b)


def composite_digest(
    world: World, exclude_pids: Optional[Tuple[str, ...]] = None
) -> Tuple:
    """Digest of the composite automaton *excluding* some processes and
    their channels.

    Claim 4.9 compares "the servers, the readers and the channels
    between the readers and servers" — i.e. everything except the
    writer and its channels.  ``exclude_pids`` names the excluded
    processes.
    """
    excluded = frozenset(exclude_pids or ())
    pids = [pid for pid in world._pids if pid not in excluded]
    keys = [
        key
        for key in world._nonempty
        if key[0] not in excluded and key[1] not in excluded
    ]
    return (
        _entries(world, pids, world._processes, _process_entry),
        _entries(world, keys, world._channels, _channel_entry),
    )
