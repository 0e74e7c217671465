"""The benchmark's three workloads: ``chaos``, ``proof`` and ``chaos-pool``.

Each workload is a closed loop with one caller: it issues its next
pass only when the previous one has returned, and it runs the
``repro`` package only through the public calls a user makes (the
``repro chaos`` campaign runner, the ``repro explore`` explorer and the
``repro verify`` constructions).  A pass is a fixed list of items --
campaign runs or proof items -- whose inputs the workload seed picks.
Every pass also checks its own outputs and replays its verdicts from
the results it recorded, with zero simulator runs.

Why these workloads:

* ``chaos`` -- the ``make chaos`` grid run serially: the simulator step
  loop (``sim``, the ``faults`` adversary, ``registers`` handlers) does
  nearly all the work while fork, digest, pool, cache and journal sit
  idle.
* ``proof`` -- exhaustive write||read exploration plus the three
  ``make verify-proofs`` constructions: fork, digest, the atomicity
  checker and ``lowerbound`` do the work; no adversary, scheduler
  choice or pool runs, so a ``faults``/``parallel`` change must not
  move it.
* ``chaos-pool`` -- the same grid at 2 ops per run on the supervised
  pool with an empty cache and a fresh journal: dispatch, payload codec, result
  encode/decode and cache writes (cold pass) and reads (warm replay)
  dominate.
"""

from __future__ import annotations

import dataclasses
import hashlib
import importlib
import json
import multiprocessing
import os
import random
import time
from dataclasses import dataclass, field
from typing import Dict, List

from speed import RefClock

ALGORITHMS = ("abd", "cas", "casgc")
N, F, VALUE_BITS = 5, 1, 6
MAX_TICKS = 60_000

#: Exhaustive write||read explorations at N=3 f=1 and their fixed
#: maximal-execution counts.
EXPLORATIONS = {"swmr-abd": 672, "coded-swmr": 1200}
EXPLORE_MAX_STATES = 100_000


def canonical(doc) -> bytes:
    return json.dumps(doc, sort_keys=True, separators=(",", ":")).encode("utf-8")


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not Linux
        return os.cpu_count() or 1


@dataclass
class PassResult:
    """One closed-loop pass: timings, correctness and deterministic work.

    Times are reference seconds read from a :class:`~speed.RefClock`;
    ``wall_seconds`` is the pass's raw wall time.
    """

    seconds: float  # until every item of the pass has its verdict
    wall_seconds: float
    runs: int  # items runs_per_s counts
    gaps_ms: List[float]  # per-run latency samples
    replay_seconds: float
    replay_runs: int
    attempted: int
    failed: int
    digest: str
    work_runs: int  # campaign runs, or maximal executions (proof)
    work_steps: int  # summed ChaosRunResult.steps, or visited states (proof)
    problems: List[str] = field(default_factory=list)


class Stopwatch:
    """Gaps between successive callbacks, starting at :meth:`start`."""

    def __init__(self, clock: RefClock) -> None:
        self.clock = clock
        self.gaps_ms: List[float] = []
        self._last = 0.0

    def start(self) -> float:
        self._last = self.clock.now()
        return self._last

    def tick(self, *_args) -> None:
        now = self.clock.now()
        self.gaps_ms.append((now - self._last) * 1000.0)
        self._last = now


class Workload:
    name = ""
    #: Python run in a fresh interpreter to time set-up: it imports
    #: ``repro`` and builds the first system (and starts the pool).
    setup_code = ""

    def __init__(self, seed: int, scratch: str) -> None:
        self.seed = seed
        self.scratch = scratch
        self.clock = RefClock()

    def prepare(self) -> None:
        """In-process set-up, finished before any timing starts."""

    def run_pass(self, index: int) -> PassResult:
        raise NotImplementedError

    def trace_unit(self) -> PassResult:
        """The fixed work one traced (or paired untraced) unit runs."""
        return self.run_pass(0)

    def peak_rss_mb(self) -> float:
        return _vm_hwm_mb(os.getpid())

    def close(self) -> None:
        """Stop everything :meth:`prepare` started."""


def _vm_hwm_mb(pid: int) -> float:
    """Peak resident set of ``pid`` in MiB (``VmHWM``), else ``ru_maxrss``."""
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    if pid == os.getpid():
        import resource

        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return 0.0


# -- chaos ---------------------------------------------------------------------

_CAMPAIGN_SETUP = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import repro
from repro.faults.campaign import run_campaign
from repro.registers.catalog import build_client_system
build_client_system("abd", 5, 1, 6)
"""


class ChaosWorkload(Workload):
    """Serial ``run_campaign`` over ABD/CAS/CASGC x all fault shapes."""

    name = "chaos"
    setup_code = _CAMPAIGN_SETUP + "print(time.perf_counter() - t0)\n"
    num_ops = 10
    #: Seeds per traced unit (x 30 runs each).
    trace_seeds = 4

    def prepare(self) -> None:
        self.campaign = importlib.import_module("repro.faults.campaign")
        self.campaign.build_client_system("abd", N, F, VALUE_BITS)
        # Warm the code fingerprint and every lazy import of a run.
        self.campaign.run_campaign(
            algorithms=ALGORITHMS, n=N, f=F, value_bits=VALUE_BITS,
            seeds=[self.seed * 100_000 + 99_999], num_ops=2, jobs=1,
        )

    def seeds_for(self, index: int) -> List[int]:
        return [self.seed * 100_000 + index]

    def run_campaign_pass(self, seeds: List[int], num_ops: int) -> PassResult:
        campaign = self.campaign
        clock = self.clock
        watch = Stopwatch(clock)
        wall_start = time.perf_counter()
        start = watch.start()
        report = campaign.run_campaign(
            algorithms=ALGORITHMS, n=N, f=F, value_bits=VALUE_BITS,
            seeds=seeds, num_ops=num_ops, max_ticks=MAX_TICKS,
            progress=watch.tick, jobs=1, chunk=None, cache=None,
            task_timeout=None, journal=None,
        )
        seconds = clock.now() - start
        wall = time.perf_counter() - wall_start
        original = canonical(report.to_json_dict())
        # Replay: the pass's verdicts and report bytes again, from the
        # recorded result dicts (the warm-cache path minus the disk).
        stored = [r.to_cache_dict() for r in report.results]
        replay_start = clock.now()
        restored = [campaign.ChaosRunResult.from_cache_dict(d) for d in stored]
        replayed = canonical(
            dataclasses.replace(report, results=restored).to_json_dict()
        )
        replay_seconds = clock.now() - replay_start

        problems = [
            f"{r.algorithm}/{r.config.label()}: unacceptable verdict {r.verdict()}"
            for r in report.results
            if not r.acceptable
        ]
        expected = len(ALGORITHMS) * len(campaign.FAULT_SHAPES) * len(seeds)
        if report.interrupted or len(report.results) != expected:
            problems.append(f"campaign incomplete: {len(report.results)} runs")
        if replayed != original:
            problems.append("replayed report bytes differ from the original")
        steps = sum(r.steps for r in report.results)
        return PassResult(
            seconds=seconds, wall_seconds=wall, runs=len(report.results),
            gaps_ms=watch.gaps_ms,
            replay_seconds=replay_seconds, replay_runs=len(restored),
            attempted=len(report.results) + 1, failed=len(problems),
            digest=sha(original), work_runs=len(report.results),
            work_steps=steps, problems=problems,
        )

    def run_pass(self, index: int) -> PassResult:
        return self.run_campaign_pass(self.seeds_for(index), self.num_ops)

    def trace_unit(self) -> PassResult:
        seeds = [self.seed * 100_000 + i for i in range(self.trace_seeds)]
        return self.run_campaign_pass(seeds, self.num_ops)

    def roadmap_grid(self) -> PassResult:
        """The 210-run grid (7 seeds, 4 ops) the partition-filter
        measurement in ROADMAP.md was taken on."""
        return self.run_campaign_pass(list(range(7)), 4)


# -- proof ---------------------------------------------------------------------

_PROOF_SETUP = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import repro
import repro.cli
import repro.verification.explore
import repro.lowerbound
repro.cli.ALGORITHMS["swmr-abd"](3, 1, 2)
print(time.perf_counter() - t0)
"""

PROOF_ITEMS = ("explore:swmr-abd", "explore:coded-swmr", "verify:b1", "verify:41", "verify:65")


class ProofWorkload(Workload):
    """Exhaustive explorations plus the Theorem B.1/4.1/6.5 constructions."""

    name = "proof"
    setup_code = _PROOF_SETUP

    def prepare(self) -> None:
        self.cli = importlib.import_module("repro.cli")
        self.explore = importlib.import_module("repro.verification.explore")
        self.lb = {
            "b1": importlib.import_module("repro.lowerbound.theorem_b1"),
            "41": importlib.import_module("repro.lowerbound.theorem41"),
            "65": importlib.import_module("repro.lowerbound.theorem65"),
        }
        self.cli.ALGORITHMS["swmr-abd"](3, 1, 2)
        # The written value (1..3 of the 2-bit value space) comes from
        # the seed; it changes no execution count.
        self.value = 1 + self.seed % 3

    def _explore(self, algorithm: str, histories: list, watch: Stopwatch):
        builder = self.cli.ALGORITHMS[algorithm]
        value = self.value

        def build():
            handle = builder(3, 1, 2)
            world = handle.world
            world.invoke_write(handle.writer_ids[0], value)
            world.invoke_read(handle.reader_ids[0])
            return world

        explore = self.explore

        def checker(ops) -> bool:
            ok = explore.check_atomicity(ops).ok
            histories.append((ops, ok))
            watch.tick()  # one maximal execution has its verdict
            return ok

        watch.start()
        return explore.explore_all_schedules(
            build, checker=checker, max_states=EXPLORE_MAX_STATES
        )

    def _verify(self, theorem: str):
        # The `make verify-proofs` parameters.
        if theorem == "b1":
            return self.lb["b1"].run_theorem_b1_experiment(
                self.cli.ALGORITHMS["swmr-abd"], n=5, f=2, value_bits=3,
                algorithm="swmr-abd",
            )
        if theorem == "41":
            return self.lb["41"].run_theorem41_experiment(
                self.cli.ALGORITHMS["swmr-abd"], n=5, f=2, value_bits=2,
                algorithm="swmr-abd",
            )
        return self.lb["65"].run_theorem65_experiment(
            self.cli.MULTI_WRITER_ALGORITHMS["cas"], n=5, f=1, nu=2,
            value_bits=3, algorithm="cas",
        )

    def run_pass(self, index: int) -> PassResult:
        order = list(PROOF_ITEMS)
        random.Random(f"{self.seed}:{index}").shuffle(order)
        histories: list = []
        outcomes: Dict[str, list] = {}
        problems: List[str] = []
        watch = Stopwatch(self.clock)
        seconds = 0.0
        executions = states = 0
        clock = self.clock
        wall_start = time.perf_counter()
        for item in order:
            item_start = clock.now()
            kind, what = item.split(":")
            if kind == "explore":
                result = self._explore(what, histories, watch)
                seconds += clock.now() - item_start
                executions += result.executions_checked
                states += result.states_visited
                outcomes[item] = [
                    result.states_visited, result.executions_checked,
                    result.exhausted, result.ok,
                ]
                if not (result.exhausted and result.ok):
                    problems.append(
                        f"{item}: exhausted={result.exhausted} atomic={result.ok}"
                    )
                if result.executions_checked != EXPLORATIONS[what]:
                    problems.append(
                        f"{item}: {result.executions_checked} executions, "
                        f"expected {EXPLORATIONS[what]}"
                    )
            else:
                cert = self._verify(what)
                seconds += clock.now() - item_start
                outcomes[item] = [repr(cell) for cell in cert.as_row()]
                if not cert.holds:
                    problems.append(f"{item}: certificate does not hold")
        wall = time.perf_counter() - wall_start

        # Replay: every maximal execution's verdict again, re-checked
        # from its recorded terminal history.
        check = self.explore.check_atomicity
        replay_start = clock.now(recalibrate=True)  # a ~25 ms window
        mismatches = sum(1 for ops, ok in histories if check(ops).ok != ok)
        digest = sha(canonical(outcomes))
        replay_seconds = clock.now() - replay_start
        if mismatches:
            problems.append(f"{mismatches} replayed verdict(s) differ")
        if len(histories) != executions:
            problems.append(
                f"{len(histories)} recorded histories for {executions} executions"
            )
        return PassResult(
            seconds=seconds, wall_seconds=wall, runs=executions, gaps_ms=watch.gaps_ms,
            replay_seconds=replay_seconds, replay_runs=len(histories),
            attempted=len(order) + 1, failed=len(problems), digest=digest,
            work_runs=executions, work_steps=states, problems=problems,
        )


# -- chaos-pool ----------------------------------------------------------------

_POOL_SETUP = _CAMPAIGN_SETUP + """
from repro.parallel.pool import get_pool, shutdown_pool
jobs = int(sys.argv[2])
get_pool(jobs).map(abs, range(jobs))
print(time.perf_counter() - t0)
shutdown_pool()
"""


class ChaosPoolWorkload(Workload):
    """The chaos grid at 2 ops/run on the supervised pool, cold then warm."""

    name = "chaos-pool"
    setup_code = _POOL_SETUP
    num_ops = 2
    seeds_per_pass = 4
    #: Passes cycle through this many seed lists, so a run's figures
    #: average over 32 seeds rather than resting on one list's runs.
    seed_lists = 8
    #: Armed per-run timeout: far above any run, so it never fires, but
    #: it routes every campaign through the supervised path.
    task_timeout = 30.0

    def prepare(self) -> None:
        self.campaign = importlib.import_module("repro.faults.campaign")
        self.cache_mod = importlib.import_module("repro.parallel.cache")
        self.journal_mod = importlib.import_module("repro.parallel.journal")
        self.pool_mod = importlib.import_module("repro.parallel.pool")
        self.jobs = nproc()
        per_pass = self.seeds_per_pass
        self.seed_cycle = [
            [self.seed * 100_000 + k * per_pass + i for i in range(per_pass)]
            for k in range(self.seed_lists)
        ]
        self.pool_mod.get_pool(self.jobs).map(abs, range(self.jobs))
        # The serial reference report of every seed list.
        self.references = [
            canonical(self.campaign.run_campaign(
                algorithms=ALGORITHMS, n=N, f=F, value_bits=VALUE_BITS,
                seeds=seeds, num_ops=self.num_ops, max_ticks=MAX_TICKS,
                jobs=1, chunk=None, cache=None, task_timeout=None, journal=None,
            ).to_json_dict())
            for seeds in self.seed_cycle
        ]
        self.runtime: Dict[str, int] = {}
        self.cache_bytes = self.journal_bytes = 0
        self.slots = os.path.join(self.scratch, "chaos-pool")

    def _campaign(self, seeds: List[int], **kwargs):
        return self.campaign.run_campaign(
            algorithms=ALGORITHMS, n=N, f=F, value_bits=VALUE_BITS,
            seeds=seeds, num_ops=self.num_ops, max_ticks=MAX_TICKS,
            jobs=self.jobs, chunk=None, task_timeout=self.task_timeout,
            **kwargs,
        )

    def run_pass(self, index: int) -> PassResult:
        # Each seed list has its own slot directory, kept across passes
        # and runs.  Emptying a slot unlinks only its files: freeing the
        # shard directories on every pass slowed this disk's later cache
        # writes, run after run.
        tmp = os.path.join(self.slots, f"slot{index % self.seed_lists}")
        for directory, _dirs, files in os.walk(tmp):
            for name in files:
                os.unlink(os.path.join(directory, name))
        os.makedirs(tmp, exist_ok=True)
        seeds = self.seed_cycle[index % self.seed_lists]
        reference = self.references[index % self.seed_lists]
        cache = self.cache_mod.RunCache(os.path.join(tmp, "cache"))
        journal_path = os.path.join(tmp, "journal.jsonl")
        meta = self.campaign.campaign_journal_meta(
            algorithms=ALGORITHMS, n=N, f=F, value_bits=VALUE_BITS,
            seeds=seeds, num_ops=self.num_ops, max_ticks=MAX_TICKS,
            task_timeout=self.task_timeout,
        )
        clock = self.clock
        watch = Stopwatch(clock)
        wall_start = time.perf_counter()
        start = watch.start()
        journal = self.journal_mod.CampaignJournal.create(journal_path, meta)
        try:
            cold = self._campaign(seeds, progress=watch.tick, cache=cache, journal=journal)
        finally:
            journal.close()
        seconds = clock.now() - start
        wall = time.perf_counter() - wall_start
        cold_bytes = canonical(cold.to_json_dict())
        stores = cache.stores

        replay_start = clock.now()
        warm = self._campaign(seeds, cache=cache, journal=None)
        warm_bytes = canonical(warm.to_json_dict())
        replay_seconds = clock.now() - replay_start

        self.cache_bytes = _tree_bytes(cache.root)
        self.journal_bytes = os.path.getsize(journal_path)

        problems = [
            f"{r.algorithm}/{r.config.label()}: unacceptable verdict {r.verdict()}"
            for r in cold.results
            if not r.acceptable
        ]
        if cold_bytes != reference:
            problems.append("cold report bytes differ from the serial reference")
        if warm_bytes != reference:
            problems.append("warm replay bytes differ from the serial reference")
        if cache.stores != stores or cache.hits != len(warm.results):
            problems.append("warm replay executed simulator runs")
        self.runtime = {
            key: cold.runtime.get(key, 0) + warm.runtime.get(key, 0)
            for key in (
                "parallel.retries", "parallel.timeouts",
                "parallel.fallbacks", "parallel.quarantined",
            )
        }
        steps = sum(r.steps for r in cold.results)
        return PassResult(
            seconds=seconds, wall_seconds=wall, runs=len(cold.results),
            gaps_ms=watch.gaps_ms,
            replay_seconds=replay_seconds, replay_runs=len(warm.results),
            attempted=len(cold.results) + 2, failed=len(problems),
            digest=sha(cold_bytes), work_runs=len(cold.results),
            work_steps=steps, problems=problems,
        )

    def peak_rss_mb(self) -> float:
        """The benchmark process plus every pool worker."""
        return _vm_hwm_mb(os.getpid()) + sum(
            _vm_hwm_mb(child.pid) for child in multiprocessing.active_children()
        )

    def close(self) -> None:
        if hasattr(self, "pool_mod"):
            self.pool_mod.shutdown_pool()


def _tree_bytes(root: str) -> int:
    total = 0
    for directory, _dirs, files in os.walk(root):
        total += sum(os.path.getsize(os.path.join(directory, f)) for f in files)
    return total


WORKLOADS = {w.name: w for w in (ChaosWorkload, ProofWorkload, ChaosPoolWorkload)}
