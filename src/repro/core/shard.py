"""The layer-synchronous breadth-first core: the one BFS engine.

Every breadth-first query runs here.  The passed and waiting stores are
split into *partitions* by a stable hash of the interned discrete key
(``crc32(key) % workers``); the owner partition holds the key's
:class:`~repro.core.federation.Federation` and makes every store/coverage
decision for it.  A :class:`_Partition` knows nothing about
transport, and two transports drive the same class:

* **in-process** (``shard_workers`` 0 or 1, :class:`_LocalFleet`): one
  partition owns every key and the coordinator calls it directly -- no
  fork, no pipes;
* **forked** (``shard_workers >= 2``, :class:`_ForkedFleet` behind
  :class:`ShardedExplorer`): one worker process per partition
  (:class:`_ShardWorker`); the rows of the candidates a worker hands to
  one other partition travel as one contiguous array in its pickled expand
  reply, which the coordinator forwards in that partition's decide
  message (each candidate group carries its offset into the array).

In both, every frontier state is expanded by the partition that stored it:
states never move between partitions, only successor candidates do.

Round protocol
--------------
The exploration proceeds in *rounds*, each a contiguous range of the scalar
BFS pop order -- a whole BFS level, or part of one when a budget caps it:

1. **expand**: every partition pops its frontier rows below the round
   horizon, groups them by key (a stable argsort of the key ids), fires
   each same-key block with one ``kernels.fire`` call
   (:meth:`SuccessorGenerator.block_successors` runs the key's firing
   program), folds each target key onto its symmetry representative
   *before* hashing, and routes each candidate -- tagged ``(parent_seq,
   plan_index)`` -- to the owner of its target key.
2. **decide**: every partition sorts the candidates it owns by tag (one
   lexsort), scatters their rows once into one key-grouped array and
   replays the scalar store discipline for the whole round in one
   ``kernels.decide`` call: per key the coverage check against the
   pre-round federation, the within-round screen on the raw rows,
   extrapolation of the survivors, the same screen on the extrapolated
   rows, and the eviction masks of the federation flush.  Python then
   flushes each key's stored rows with those masks
   (:meth:`Federation.add_many_uncovered`), evaluates the query spec once
   per key over the rows it stored
   (:meth:`repro.core.reachability._EvalSpec.evaluate`) and resolves the
   results in tag order.  Frontier states never become objects: a
   partition keeps them as row arrays.
3. **merge**: the coordinator lexsorts the reported tags, assigns global
   scalar sequence numbers (``seq`` = scalar BFS pop order), accumulates the
   per-candidate decision records into the statistics, and resolves goals,
   deferred plan errors and the supremum in tag order.

Determinism
-----------
The scalar candidate order *is* the lexicographic tag order: scalar BFS pops
states in seq order and generates each state's successors in plan-index
order.  Candidate generation never reads the passed list, and a candidate's
store/coverage decision depends only on the zones previously stored under
its own key -- all of which live on the owner partition (earlier rounds) or
in this round's tag-ordered screen.  Verdicts, traces, witnesses and every
comparable :class:`ExplorationStatistics` counter are therefore identical
to the scalar loop (:meth:`Explorer._explore_scalar`), in either transport
and for any round horizon; ``tests/core/test_statistics_contract.py`` pins
this.

Budgets: ``max_states`` caps the last round at the budget.  Under a time
budget every round is capped at :data:`_DEADLINE_ROUND` expansions, because
the deadline is only checked between rounds -- a stop therefore overshoots
by at most one capped round, and the statistics equal the scalar loop's at
``max_states`` = the explored count.

Witness traces are reconstructed by *replay*: the coordinator keeps only the
``(parent_seq, plan_index)`` tag of every stored state, walks the tag chain
from the goal back to the root, and re-fires the plan chain from the initial
state through :meth:`SuccessorGenerator.successors` -- the firing routine
the partitions use, so the zones are bit-identical, at a memory cost
independent of the state count.

Supervision (forked only): a worker that dies (fault injection, OOM, a kill)
closes its pipe; the coordinator detects the EOF, tears the fleet down and
restarts the whole exploration once -- the restart is deterministic, so the
result is unchanged.  A second crash raises :class:`AnalysisError`.
Worker-side *semantic* errors (deferred range violations behind live guards)
are not crashes: they travel back as data and re-raise in the parent exactly
where the scalar loop would have raised them.
"""

from __future__ import annotations

import os
import pickle
import signal
import struct
import time
import zlib
from array import array
from collections import deque

import numpy as np

from repro.core import kernels
from repro.core.federation import Federation
from repro.core.kernels import _MAX_STACK_ROWS
from repro.core.network import CompiledNetwork
from repro.core.reachability import (
    _NO_BOUND,
    _UNRECORDED,
    Explorer,
    SearchOptions,
    _SearchNode,
)
from repro.core.statistics import ExplorationStatistics
from repro.core.successors import SemanticsOptions, pack_discrete
from repro.core.symmetry import permute_zones
from repro.util.errors import AnalysisError

__all__ = ["ShardedExplorer", "explore_layered", "select_explorer"]

#: expansions per round while a time budget is set (the deadline is checked
#: between rounds, so this bounds the overshoot; docs/performance.md gives
#: the measurement it was chosen by)
_DEADLINE_ROUND = 64


def _owner_of(key_bytes: bytes, workers: int) -> int:
    """Owner partition of a discrete key (stable across processes and runs)."""
    return zlib.crc32(key_bytes) % workers


def _unpack_key(key_bytes: bytes, n_instances: int) -> tuple[tuple, tuple]:
    """Invert :func:`pack_discrete` (int64 round-trips exactly)."""
    values = array("q")
    values.frombytes(key_bytes)
    return tuple(values[:n_instances]), tuple(values[n_instances:])


class _ShardCrash(Exception):
    """A worker pipe closed unexpectedly: the fleet must restart."""


class _ShardFatal(Exception):
    """A worker hit an unexpected exception (deterministic; do not restart)."""

    def __init__(self, error: BaseException):
        super().__init__(repr(error))
        self.error = error


# ------------------------------------------------------------------ pipe framing
def _write_exact(fd: int, payload: bytes) -> None:
    view = memoryview(payload)
    while view:
        try:
            written = os.write(fd, view)
        except OSError as exc:
            raise _ShardCrash(f"shard pipe write failed: {exc}") from None
        view = view[written:]


def _read_exact(fd: int, count: int) -> bytes:
    chunks = []
    while count:
        try:
            chunk = os.read(fd, count)
        except OSError as exc:
            raise _ShardCrash(f"shard pipe read failed: {exc}") from None
        if not chunk:
            raise _ShardCrash("shard pipe closed unexpectedly")
        chunks.append(chunk)
        count -= len(chunk)
    return b"".join(chunks)


def _send(fd: int, message: object) -> None:
    data = pickle.dumps(message, protocol=pickle.HIGHEST_PROTOCOL)
    _write_exact(fd, struct.pack("<Q", len(data)) + data)


def _recv(fd: int) -> tuple:
    (length,) = struct.unpack("<Q", _read_exact(fd, 8))
    return pickle.loads(_read_exact(fd, length))


def _runs(sorted_ids: np.ndarray) -> list[tuple[int, int]]:
    """The ``[start, stop)`` ranges of equal values in the sorted *sorted_ids*."""
    cuts = np.flatnonzero(sorted_ids[1:] != sorted_ids[:-1]) + 1
    bounds = [0, *cuts.tolist(), len(sorted_ids)]
    return list(zip(bounds[:-1], bounds[1:]))


class _Partition:
    """One key partition of the layered core, with no transport attached.

    Holds the passed federations of the keys it owns and the frontier
    awaiting expansion, and runs the steps of a round (:meth:`expand`,
    :meth:`decide`).  The frontier is a FIFO of per-round batches ``(seqs,
    key_ids, rows)``: increasing sequence numbers, ids into the partition's
    key table, and the stored (extrapolated) zones as one ``(count, dim *
    dim)`` int64 array -- no state objects.  In-process the coordinator
    calls it directly; forked it runs behind a :class:`_ShardWorker`.
    """

    def __init__(self, rank, workers, explorer, spec, initial, root_key):
        self.rank = rank
        self.workers = workers
        self.generator = explorer.generator
        self.symmetry = explorer.symmetry
        self.spec = spec
        self.dim = explorer.network.dim
        self.n_instances = len(explorer.network.instances)
        #: the key table: key bytes -> id, and per id the decoded
        #: ``(locations, variables)`` and the passed federation
        self.key_ids: dict[bytes, int] = {}
        self.discrete: list[tuple[tuple, tuple]] = []
        self.passed: list[Federation] = []
        #: ``(seqs, key_ids, rows)`` batches, stored, not yet expanded; FIFO,
        #: because the coordinator hands every partition its seqs in
        #: increasing order
        self.frontier: deque[tuple[np.ndarray, np.ndarray, np.ndarray]] = deque()
        #: ``(key_ids, rows)`` stored last round, awaiting sequence numbers
        #: (tag order)
        self.unassigned: tuple[np.ndarray, np.ndarray] | None = None
        #: candidate groups this partition generated for its own keys
        self.local_groups: list[tuple] = []
        self.sup_best: tuple[int, tuple[int, int]] | None = None
        if _owner_of(root_key, workers) == rank:
            root = self._key_id(root_key)
            self.passed[root].add_uncovered(initial.zone)
            self.frontier.append((
                np.zeros(1, dtype=np.int64), np.array([root], dtype=np.intp),
                initial.zone.m[None].copy(),
            ))

    def _key_id(self, key_bytes: bytes) -> int:
        """The id of *key_bytes* in the key table, added on first sight."""
        key = self.key_ids.get(key_bytes)
        if key is None:
            key = self.key_ids[key_bytes] = len(self.discrete)
            self.discrete.append(_unpack_key(key_bytes, self.n_instances))
            self.passed.append(Federation(self.dim))
        return key

    def _install(self, assigned) -> None:
        """Bind the coordinator's sequence numbers to last round's stores."""
        stored, self.unassigned = self.unassigned, None
        if len(assigned) != (0 if stored is None else len(stored[0])):  # pragma: no cover
            raise AnalysisError("shard sequence assignment out of step")
        if len(assigned):
            self.frontier.append((assigned, *stored))

    def _pop(self, upto) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
        """Remove and return the frontier entries below *upto* as one batch
        (None when there are none); a batch the horizon cuts is split."""
        parts = []
        frontier = self.frontier
        while frontier and frontier[0][0][0] < upto:
            seqs, key_ids, rows = frontier.popleft()
            cut = int(np.searchsorted(seqs, upto))
            if cut < len(seqs):
                frontier.appendleft((seqs[cut:], key_ids[cut:], rows[cut:]))
                seqs, key_ids, rows = seqs[:cut], key_ids[:cut], rows[:cut]
            parts.append((seqs, key_ids, rows))
        if len(parts) < 2:
            return parts[0] if parts else None
        return tuple(np.concatenate(column) for column in zip(*parts))

    # -------------------------------------------------------------- expand
    def expand(self, upto, assigned) -> tuple:
        """Expand the owned frontier below *upto*.

        Returns ``(outgoing, error, handoffs)``: the candidate groups
        ``(key, plan_index, folded, parent_seqs, rows)`` per destination
        rank (groups for this partition's own keys stay here), the earliest
        deferred plan error as ``(parent_seq, exception)``, and the number
        of candidates handed to other partitions.
        """
        self._install(assigned)
        outgoing: dict[int, list] = {}
        error = None  # (parent_seq, exception)
        handoffs = 0
        batch = self._pop(upto)
        if batch is None:
            return outgoing, error, handoffs
        seqs, key_ids, rows = batch
        dim = self.dim
        # same-key blocks in seq order, of at most _MAX_STACK_ROWS rows each,
        # so the batched kernels never allocate round-sized buffers
        by_key = np.argsort(key_ids, kind="stable")
        sorted_ids = key_ids[by_key]
        for first, stop in _runs(sorted_ids):
            discrete = self.discrete[sorted_ids[first]]
            for start in range(first, stop, _MAX_STACK_ROWS):
                block = by_key[start:min(stop, start + _MAX_STACK_ROWS)]
                block_seqs = seqs[block]
                _info, fires = self.generator.block_successors(
                    rows[block].reshape(len(block), dim, dim), discrete
                )
                for fire in fires:
                    if fire.error is not None:
                        error_seq = int(block_seqs[fire.node_indices].min())
                        if error is None or error_seq < error[0]:
                            error = (error_seq, fire.error)
                        continue
                    plan = fire.plan
                    key_bytes = plan.key_bytes
                    folded = False
                    if self.symmetry is not None:
                        locations, variables, perm = self.symmetry.canonicalize(
                            plan.locations, plan.variables, plan.key_bytes
                        )
                        if perm is not None:
                            # fold before hashing: the whole array shares the
                            # plan's target key, one permutation folds every
                            # layer
                            permute_zones(fire.zones, perm)
                            key_bytes = pack_discrete(locations, variables)
                            folded = True
                    parent_seqs = block_seqs[fire.node_indices]
                    candidates = (key_bytes, fire.plan_index, folded, parent_seqs,
                                  fire.zones.reshape(len(parent_seqs), -1))
                    dest = _owner_of(key_bytes, self.workers)
                    if dest == self.rank:
                        self.local_groups.append(candidates)
                    else:
                        handoffs += len(parent_seqs)
                        outgoing.setdefault(dest, []).append(candidates)
        return outgoing, error, handoffs

    # -------------------------------------------------------------- decide
    def decide(self, incoming) -> tuple:
        """Store or discard every candidate of this round for the owned keys.

        *incoming* holds the groups other partitions handed over.  Returns
        the tag-sorted decision record ``(parents, plans, stored, folded,
        goal_tag, sup_best)``.
        """
        groups = list(incoming)
        groups.extend(self.local_groups)
        self.local_groups = []
        if not groups:
            empty = np.empty(0, dtype=np.int64)
            nothing = np.zeros(0, dtype=bool)
            return empty, empty, nothing, nothing, None, self.sup_best

        # tag order: position -> index into the groups' concatenation
        sizes = [len(group[3]) for group in groups]
        total = sum(sizes)
        parents = np.concatenate([group[3] for group in groups])
        plans = np.repeat(np.array([group[1] for group in groups], dtype=np.int64), sizes)
        order = np.lexsort((plans, parents))
        parents, plans = parents[order], plans[order]
        folded = np.repeat(np.array([group[2] for group in groups], dtype=bool), sizes)[order]
        group_keys = np.array([self._key_id(group[0]) for group in groups], dtype=np.intp)
        keys = np.repeat(group_keys, sizes)[order]

        # the candidates grouped by key, each key's run in tag order: every
        # group's rows are scattered once into their slots of one array
        by_key = np.argsort(keys, kind="stable")
        slot = np.empty(total, dtype=np.intp)
        slot[order[by_key]] = np.arange(total)
        raw = np.empty((total, self.dim * self.dim), dtype=np.int64)
        offset = 0
        for group, size in zip(groups, sizes):
            raw[slot[offset:offset + size]] = group[4]
            offset += size
        # each intermediate array is dropped as soon as the next one holds
        # its rows: that keeps the round's peak memory down
        del groups, slot

        # the whole round's store discipline in one kernel call; per key, in
        # tag order (the scalar store-then-recheck discipline, batched):
        #
        # 1. coverage of the raw rows by the pre-round federation;
        # 2. the raw screen -- a candidate included in an EARLIER raw
        #    candidate is doomed before paying for extrapolation
        #    (extrapolation and re-closure are entrywise monotone, so raw
        #    inclusion survives into the stored comparison);
        # 3. extrapolation of the survivors, then the same screen on the
        #    extrapolated rows (Z <= W  <=>  Extra(Z) <= W for stored W);
        # 4. the flush's masks: members a stored row includes, and stored
        #    rows a later stored row includes.
        #
        # The screens kill exactly the candidates the scalar loop's
        # store-then-recheck would: by transitivity of inclusion, a
        # candidate covered by a killed earlier zone is also covered by
        # whatever stored zone killed that one.
        sorted_keys = keys[by_key]
        starts = np.flatnonzero(np.concatenate(([True], sorted_keys[1:] != sorted_keys[:-1])))
        bounds = np.empty((len(starts), 2), dtype=np.int64)
        bounds[:, 0] = starts
        bounds[:-1, 1] = starts[1:]
        bounds[-1, 1] = total
        run_keys = sorted_keys[starts].tolist()
        federations = [self.passed[key] for key in run_keys]
        kept, doomed_rows, doomed_members = kernels.decide(
            raw, bounds, [federation.members for federation in federations],
            self.generator.extrapolation_grids(),
        )
        kept = np.flatnonzero(kept)
        stored = np.zeros(total, dtype=bool)
        runs = []  # (first tag position, key, tag positions, rows)
        if len(kept):
            positions = by_key[kept]  # increasing within each key's run
            stored[positions] = True
            rows = raw[kept]
            doomed_rows = doomed_rows[kept]
            del raw
            cuts = np.searchsorted(kept, starts).tolist() + [len(kept)]
            member_cut = 0
            for run, (key, federation) in enumerate(zip(run_keys, federations)):
                first, stop = cuts[run], cuts[run + 1]
                members = slice(member_cut, member_cut + len(federation))
                member_cut = members.stop
                if first == stop:
                    continue
                federation.add_many_uncovered(rows[first:stop], doomed_members[members],
                                              doomed_rows[first:stop])
                runs.append((int(positions[first]), key, positions[first:stop],
                             rows[first:stop]))
            order = np.argsort(positions, kind="stable")  # tag order
            self.unassigned = (keys[positions[order]], rows[order])
        goal_tag = self._evaluate(runs, parents, plans) if self.spec.kind != "count" else None
        return parents, plans, stored, folded, goal_tag, self.sup_best

    def _evaluate(self, runs, parents, plans):
        """Evaluate the query spec once per key on the rows it stored this
        round and resolve the results in tag order; returns the goal tag.

        Keys are visited in order of their first stored candidate, and none
        after a goal: a key whose first stored candidate follows the goal is
        never evaluated, as the scalar loop never reaches it.  A sup query
        keeps the first strict maximum, so on ties the earlier state --
        also one of an earlier round -- keeps the supremum.
        """
        spec = self.spec
        goal = None  # tag position
        best = None if self.sup_best is None else self.sup_best[0]
        best_at = None
        runs.sort(key=lambda run: run[0])
        for first, key, positions, rows in runs:
            if goal is not None and first > goal:
                break
            result = spec.evaluate(*self.discrete[key],
                                   rows.reshape(len(rows), self.dim, self.dim))
            if spec.kind == "goal":
                hits = positions[result]
                if len(hits) and (goal is None or hits[0] < goal):
                    goal = int(hits[0])
                continue
            top = int(np.argmax(result))
            raw = int(result[top])
            if raw == _NO_BOUND:
                continue
            if best is None or raw > best or (
                raw == best and best_at is not None and positions[top] < best_at
            ):
                best, best_at = raw, int(positions[top])
        if best_at is not None:
            self.sup_best = (best, (int(parents[best_at]), int(plans[best_at])))
        if goal is None:
            return None
        return (int(parents[goal]), int(plans[goal]))


# ------------------------------------------------------------------ transports
class _LocalFleet:
    """The in-process transport: one partition owning every key."""

    workers = 1

    def __init__(self, partition: _Partition):
        self.partition = partition

    def expand(self, upto, assignments) -> list:
        return [self.partition.expand(upto, assignments[0])]

    def decide(self, incoming) -> list:
        # the one partition owns every key: nothing is ever handed over
        return [self.partition.decide(())]


class _ShardWorker:
    """The forked side of one partition: the round protocol over a pipe pair.

    Packs the rows of the groups handed to each other partition into one
    array (:meth:`_expand`) and unpacks the arrays handed to this one
    (:meth:`_unpack`); everything else is the partition's own work.
    """

    def __init__(self, partition, read_fd, write_fd, attempt):
        self.partition = partition
        self.read_fd = read_fd
        self.write_fd = write_fd
        self.attempt = attempt
        self._injected = False

    def run(self) -> None:
        partition = self.partition
        try:
            while True:
                message = _recv(self.read_fd)
                tag = message[0]
                if tag == "expand":
                    reply = ("expanded", *self._expand(*message[1:]))
                elif tag == "decide":
                    reply = ("decided", *partition.decide(self._unpack(message[1])))
                else:  # pragma: no cover - protocol bug
                    raise AnalysisError(f"unknown shard message {tag!r}")
                _send(self.write_fd, reply)
        except _ShardCrash:
            # the coordinator closed the pipes: normal shutdown
            os._exit(0)
        except BaseException as exc:  # noqa: BLE001 - must cross the pipe
            try:
                try:
                    pickle.dumps(exc)
                except Exception:
                    exc = AnalysisError(
                        f"shard worker {partition.rank} failed: {exc!r}"
                    )
                _send(self.write_fd, ("fatal", exc))
            except _ShardCrash:
                pass
            os._exit(1)

    def _expand(self, upto, assigned) -> tuple:
        rank = self.partition.rank
        if not self._injected:
            self._injected = True
            from repro.sweep.faults import maybe_inject

            maybe_inject(f"shard/{rank}", rank, self.attempt, stage="shard")
        outgoing, error, handoffs = self.partition.expand(upto, assigned)
        parcels = {}
        for dest, groups in outgoing.items():
            refs, offset = [], 0
            for key, plan_index, folded, parent_seqs, rows in groups:
                refs.append((key, plan_index, folded, parent_seqs, offset))
                offset += len(rows)
            parcels[dest] = (np.concatenate([group[4] for group in groups]), refs)
        return parcels, error, handoffs

    @staticmethod
    def _unpack(parcels) -> list:
        """The candidate groups of the ``(rows, refs)`` parcels handed over."""
        return [
            (key, plan_index, folded, parent_seqs,
             rows[offset:offset + len(parent_seqs)])
            for rows, refs in parcels
            for key, plan_index, folded, parent_seqs, offset in refs
        ]


class _Handle:
    """Coordinator-side record of one forked worker."""

    __slots__ = ("rank", "pid", "read_fd", "write_fd")

    def __init__(self, rank, pid, read_fd, write_fd):
        self.rank = rank
        self.pid = pid
        self.read_fd = read_fd
        self.write_fd = write_fd


class _ForkedFleet:
    """The forked transport: one supervised worker process per partition."""

    def __init__(self, workers: int):
        self.workers = workers
        self.handles: list[_Handle] = []

    def start(self, explorer, spec, initial, root_key, attempt) -> None:
        # warm the fault-injection module before forking so every worker
        # inherits it instead of re-importing on its first expand (imported
        # lazily here: repro.sweep pulls in the analysis layer, which would
        # be a circular import at module scope)
        from repro.sweep.faults import maybe_inject  # noqa: F401

        for rank in range(self.workers):
            child_read, parent_write = os.pipe()
            parent_read, child_write = os.pipe()
            pid = os.fork()
            if pid == 0:
                os.close(parent_write)
                os.close(parent_read)
                # drop the parent ends of earlier siblings so a crashed
                # worker's pipe EOFs in the coordinator immediately
                for handle in self.handles:
                    os.close(handle.read_fd)
                    os.close(handle.write_fd)
                partition = _Partition(rank, self.workers, explorer, spec,
                                       initial, root_key)
                _ShardWorker(partition, child_read, child_write, attempt).run()
                os._exit(0)  # pragma: no cover - run() never returns
            os.close(child_read)
            os.close(child_write)
            self.handles.append(_Handle(rank, pid, parent_read, parent_write))

    def expand(self, upto, assignments) -> list:
        for handle in self.handles:
            _send(handle.write_fd, ("expand", upto, assignments[handle.rank]))
        return [self._reply(handle, "expanded")[1:] for handle in self.handles]

    def decide(self, incoming) -> list:
        for handle in self.handles:
            _send(handle.write_fd, ("decide", incoming[handle.rank]))
        return [self._reply(handle, "decided")[1:] for handle in self.handles]

    def _reply(self, handle: _Handle, expected: str) -> tuple:
        message = _recv(handle.read_fd)
        if message[0] == "fatal":
            raise _ShardFatal(message[1])
        if message[0] != expected:  # pragma: no cover - protocol bug
            raise AnalysisError(
                f"shard protocol error: expected {expected!r}, "
                f"got {message[0]!r}"
            )
        return message

    def close(self) -> None:
        for handle in self.handles:
            for fd in (handle.write_fd, handle.read_fd):
                try:
                    os.close(fd)
                except OSError:
                    pass
            try:
                os.kill(handle.pid, signal.SIGKILL)
            except OSError:
                pass
            try:
                os.waitpid(handle.pid, 0)
            except OSError:
                pass
        self.handles = []


# ------------------------------------------------------------------ coordinator
def explore_layered(explorer: Explorer, spec, visit, workers: int = 1,
                    attempt: int = 1) -> ExplorationStatistics:
    """One layered exploration of *explorer*'s network over *workers* partitions.

    One partition runs in-process; more fork one worker process each.
    *visit* (the query entry point's callback) is called once, on the goal
    or supremum state, exactly as the scalar loop would have last called it
    with a decisive state.
    """
    options = explorer.search
    stats = ExplorationStatistics(search_order="bfs")
    if workers > 1:
        stats.shard_workers = workers
    stats.start_timer()

    initial = explorer._canonical(explorer.generator.initial_state(), stats)
    explorer.generator.extrapolate(initial.zone.m2[None])
    root_key = initial.discrete_bytes()
    stats.states_stored = 1
    stats.peak_waiting = 1

    goal, root_sup = spec.observe(initial, None)
    if goal:
        if visit is not None:
            visit(initial, _SearchNode(initial, None, None))
        stats.termination = "goal"
        stats.stop_timer()
        return stats

    deadline = explorer._deadline()
    if workers == 1:
        fleet = _LocalFleet(_Partition(0, 1, explorer, spec, initial, root_key))
        return _coordinate(explorer, spec, visit, stats, fleet, initial,
                           root_sup, deadline)
    fleet = _ForkedFleet(workers)
    try:
        fleet.start(explorer, spec, initial, root_key, attempt)
        return _coordinate(explorer, spec, visit, stats, fleet, initial,
                           root_sup, deadline)
    finally:
        fleet.close()


def _coordinate(explorer, spec, visit, stats, fleet, initial, root_sup,
                deadline) -> ExplorationStatistics:
    max_states = explorer.search.max_states
    record_traces = explorer.search.record_traces
    workers = fleet.workers
    #: seq -> the (parent_seq, plan_index) tag it was stored under; seq 0
    #: is the root
    parent_of, plan_of = array("q", [-1]), array("q", [-1])
    next_seq = 1
    expanded = 0
    transitions = inclusions = folds = 0
    goal_tag = None
    partition_sup: list[tuple | None] = [None] * workers
    #: sequence numbers assigned at the end of the previous round, in
    #: increasing order, to be delivered with the next expand (aligned to
    #: each partition's tag-sorted unassigned rows)
    assignments = [np.empty(0, dtype=np.int64)] * workers

    while True:
        if next_seq == expanded:
            break  # frontier empty: "exhausted" (the default)
        if max_states is not None and expanded >= max_states:
            stats.termination = "state-budget"
            break
        if deadline is not None and time.perf_counter() > deadline:
            stats.termination = "time-budget"
            break
        upto = next_seq if max_states is None else min(next_seq, max_states)
        if deadline is not None:
            upto = min(upto, expanded + _DEADLINE_ROUND)

        error = None
        incoming: list[list] = [[] for _ in range(workers)]
        for outgoing, worker_error, handoffs in fleet.expand(upto, assignments):
            stats.shard_handoffs += handoffs
            if worker_error is not None and (
                error is None or worker_error[0] < error[0]
            ):
                error = worker_error
            for dest, parcel in outgoing.items():
                incoming[dest].append(parcel)
        decided = fleet.decide(incoming)

        parents = np.concatenate([reply[0] for reply in decided])
        plans = np.concatenate([reply[1] for reply in decided])
        stored = np.concatenate([reply[2] for reply in decided])
        folded = np.concatenate([reply[3] for reply in decided])
        owner = np.concatenate([
            np.full(len(reply[0]), rank, dtype=np.intp)
            for rank, reply in enumerate(decided)
        ])
        for rank, reply in enumerate(decided):
            if reply[4] is not None and (goal_tag is None or reply[4] < goal_tag):
                goal_tag = reply[4]
            if reply[5] is not None:
                partition_sup[rank] = reply[5]

        if error is not None and (
            goal_tag is None or error[0] <= goal_tag[0]
        ):
            # the scalar loop raises while generating the successors of seq
            # error[0]; nothing after that expansion exists there
            raise error[1]

        if workers > 1:
            order = np.lexsort((plans, parents))
            parents, plans = parents[order], plans[order]
            stored, folded, owner = stored[order], folded[order], owner[order]
        if goal_tag is not None:
            goal_parent, goal_plan = goal_tag
            keep = (parents < goal_parent) | (
                (parents == goal_parent) & (plans <= goal_plan)
            )
            parents, plans = parents[keep], plans[keep]
            stored, folded, owner = stored[keep], folded[keep], owner[keep]
        transitions += int(parents.size)
        inclusions += int(parents.size - stored.sum())
        folds += int(folded.sum())

        assign_mask = stored
        if goal_tag is not None:
            # the goal state is stored but never enters the waiting list
            assign_mask = stored & ~(
                (parents == goal_tag[0]) & (plans == goal_tag[1])
            )
        new = np.flatnonzero(assign_mask)
        parent_of.frombytes(parents[new].tobytes())
        plan_of.frombytes(plans[new].tobytes())
        seqs = np.arange(next_seq, next_seq + len(new))
        assignments = [seqs[owner[new] == rank] for rank in range(workers)]
        next_seq += len(new)

        expanded = upto
        if goal_tag is not None:
            stats.termination = "goal"
            break

    # ---------------------------------------------------------- assembly
    stats.states_explored = (
        goal_tag[0] + 1 if goal_tag is not None else expanded
    )
    stats.states_stored = len(parent_of) + (1 if goal_tag is not None else 0)
    stats.transitions = transitions
    stats.inclusions = inclusions
    stats.states_subsumed_lu = inclusions if explorer._lu_active else 0
    stats.keys_folded += folds
    stats.peak_waiting = _replay_peak(parent_of, stats.states_explored)

    if goal_tag is not None and visit is not None:
        chain = _plan_chain(parent_of, plan_of, goal_tag[0]) + [goal_tag[1]]
        visit(*_replay_chain(explorer, initial, chain, record_traces))
    if spec.kind == "sup" and visit is not None:
        best = None  # (raw, tag or None-for-root)
        if root_sup is not None:
            best = (root_sup, None)
        for candidate in partition_sup:
            if candidate is None:
                continue
            raw, tag = candidate
            if (
                best is None
                or raw > best[0]
                or (raw == best[0] and best[1] is not None and tag < best[1])
            ):
                best = (raw, tag)
        if best is not None:
            if best[1] is None:
                visit(initial, _SearchNode(initial, None, None))
            else:
                chain = _plan_chain(parent_of, plan_of, best[1][0]) + [best[1][1]]
                visit(*_replay_chain(explorer, initial, chain, record_traces))
    stats.stop_timer()
    return stats


def _replay_chain(explorer, initial, plan_chain, record_traces):
    """Re-fire *plan_chain* from the root, one state at a time.

    :meth:`SuccessorGenerator.successors` fires through the routine the
    partitions' block firing uses, and every kernel is layer-exact, so the
    materialised states match the stored zones exactly -- this is how goal
    witnesses and supremum traces are reconstructed without keeping any
    zone rows per sequence number.
    Returns the final ``(state, node)``.
    """
    scratch = ExplorationStatistics()  # replay folds were already counted
    state = initial
    node = _SearchNode(initial, None, None)
    for plan_index in plan_chain:
        fired = explorer.generator.successors(
            state, with_labels=record_traces, extrapolate=False,
            plan_indices=(int(plan_index),),
        )
        label, child = fired[0]
        child = explorer._canonical(child, scratch)
        explorer.generator.extrapolate(child.zone.m2[None])
        node = _SearchNode(
            child, node if record_traces else _UNRECORDED, label
        )
        state = child
    return state, node


def _plan_chain(parent_of, plan_of, seq) -> list[int]:
    """Plan indices firing the root-to-*seq* chain, in firing order."""
    plan_chain: list[int] = []
    while seq != 0:
        plan_chain.append(plan_of[seq])
        seq = parent_of[seq]
    plan_chain.reverse()
    return plan_chain


def _replay_peak(parent_of, n_expanded) -> int:
    """Scalar ``peak_waiting`` from the parents of the stored states.

    Replays the FIFO length evolution: expanding seq ``s`` pops one state
    and appends its stored children, so the length after it is ``1 +
    sum(children[t] - 1 for t <= s)`` (the goal child, which never enters
    the waiting list, is deliberately absent from *parent_of*).
    """
    if not n_expanded:
        return 1
    parents = np.frombuffer(parent_of, dtype=np.int64)[1:]
    children = np.bincount(parents, minlength=n_expanded)[:n_expanded]
    return max(1, 1 + int(np.cumsum(children - 1).max()))


# ------------------------------------------------------------------ facade
class ShardedExplorer(Explorer):
    """The :class:`Explorer` whose layered core forks into partitions.

    With ``SearchOptions.shard_workers >= 2`` every layered exploration runs
    on that many forked worker processes, supervised: a crashed worker
    restarts the whole exploration once (:attr:`restarts` counts it).  What
    the layered core does not run (non-bfs orders, raw ``visit``
    callables), fewer than two workers, and platforms without ``os.fork``
    run exactly as on :class:`Explorer`.
    """

    def __init__(
        self,
        network: CompiledNetwork,
        semantics: SemanticsOptions | None = None,
        search: SearchOptions | None = None,
    ):
        super().__init__(network, semantics, search)
        #: whole-exploration restarts after a worker crash, summed over
        #: every exploration this explorer ran -- under a WCRT binary
        #: search, over all of its probes (supervision metadata,
        #: deliberately not part of ExplorationStatistics)
        self.restarts = 0

    def explore(self, visit=None, spec=None) -> ExplorationStatistics:
        layered = self._layered_spec(visit, spec)
        workers = self.search.shard_workers
        if layered is None or workers < 2 or not hasattr(os, "fork"):
            return super().explore(visit, spec)
        last_crash = None
        for attempt in (1, 2):
            try:
                return explore_layered(self, layered, visit, workers, attempt)
            except _ShardFatal as fatal:
                raise fatal.error.with_traceback(None) from None
            except _ShardCrash as crash:
                self.restarts += 1
                last_crash = crash
        raise AnalysisError(
            f"sharded exploration crashed twice ({last_crash}); "
            "the worker fleet could not be supervised back to health"
        )


def select_explorer(
    network: CompiledNetwork,
    semantics: SemanticsOptions | None = None,
    search: SearchOptions | None = None,
) -> Explorer:
    """The right explorer for *search*: forked partitions when it asks for two
    or more workers and can have them (bfs, ``os.fork``), the in-process
    :class:`Explorer` otherwise."""
    search = search or SearchOptions()
    if search.shard_workers >= 2 and search.order == "bfs" and hasattr(os, "fork"):
        return ShardedExplorer(network, semantics, search)
    return Explorer(network, semantics, search)
