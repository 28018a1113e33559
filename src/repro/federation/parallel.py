"""Shard-parallel federated execution with conservative lookahead windows.

:class:`ParallelFederatedSimulator` runs a federation across worker
processes and reproduces the serial :class:`~repro.federation.simulator.
FederatedSimulator` **bit-identically** — same summaries, same energy, same
``events_processed``, same end time. The design is classic conservative
parallel discrete-event simulation (PDES) specialised to this engine's
structure:

* **Partition.** Cluster shards are the units of parallelism: all machine,
  queue, collector and RNG state of a shard is private to exactly one
  worker process. The coordinator (parent process) owns everything
  federation-level — the workload arrival stream, the gateway policy and
  its RNG, the WAN manager (link channels, cross-traffic, transfers) and
  the routing/offload accounting.

* **Lookahead.** Every effect one site has on another is mediated by a WAN
  transfer, so it lands at least ``topology.min_link_lookahead(names)``
  seconds in the future. That latency is the conservative lookahead: the
  granularity at which boundary events are exchanged. A zero-latency link
  collapses the window and is rejected at construction.

* **Windows.** Execution advances in windows ``[W, W + L)`` over the
  coordinator's event stream: the coordinator processes *its* events in
  the window (gateway arrivals, WAN serialisation milestones, cross-traffic
  epochs, deadlines of in-WAN tasks), accumulating the boundary events each
  worker needs (routed/delivered task arrivals, forwarded deadlines, in-WAN
  cancellation records); at the window edge it publishes each worker's
  batch, and the workers merge it into their local heaps and process
  everything below the edge. Boundary events are compact id-tuples — the
  forked workers already hold every task object, so nothing heavyweight
  crosses a pipe.

* **Why this is exact.** Shard-local events in different shards touch
  disjoint state, so their cross-shard interleaving is irrelevant; within a
  shard (and within the coordinator) events run in the serial engine's
  ``(time, priority, seq)`` order; and every cross-boundary effect is
  delivered as an event with its exact serial timestamp and priority before
  the receiving side passes that time — the coordinator finishes its half
  of each window before any worker may enter that window. The one
  structural requirement is that the gateway's routing decisions must not
  read live shard state — the coordinator routes arrivals ahead of the
  shards reaching those timestamps. Policies declare this via
  :attr:`~repro.scheduling.federation.base.GatewayPolicy.reads_shard_state`;
  state-reading gateways (pressure- or EET-based) are refused with a clear
  error, because under windowed execution their inputs would be stale —
  exactly the zero-lookahead feedback loop conservative PDES cannot
  parallelise. With a state-blind gateway the federation layer is closed
  (shards never influence the coordinator), so window publication is
  one-directional and pipelines: the coordinator streams windows at its
  own pace while workers consume them concurrently, and the only barriers
  in a run are the final drain and result collection.

Failure models, observers and mid-queue migration are likewise refused:
failure/repair processes are shard-local but gated on *global* progress,
observers see a single serial event stream by contract, and the rebalancer
reads every shard's batch queue at each tick — all zero-lookahead
couplings. The serial engine remains the fully general path.
"""

from __future__ import annotations

import heapq
import multiprocessing
from typing import Any

from ..core.errors import ConfigurationError, SchedulingError, SimulationStateError
from ..core.event_queue import EventQueue
from ..core.events import Event, EventType
from ..net.wan import TransferPhase, WanManager
from ..tasks.task import Task
from .result import FederatedSimulationResult
from .simulator import FederatedSimulator

__all__ = ["ParallelFederatedSimulator"]

_ARRIVAL = EventType.TASK_ARRIVAL
_COMPLETION = EventType.TASK_COMPLETION
_DEADLINE = EventType.TASK_DEADLINE
_LINK_TRANSFER = EventType.LINK_TRANSFER
_CROSS_TRAFFIC = EventType.CROSS_TRAFFIC


class ParallelFederatedSimulator:
    """Window-parallel drop-in for :class:`FederatedSimulator`.

    Accepts the serial engine's constructor arguments plus ``workers`` and
    produces a bit-identical :class:`FederatedSimulationResult`. Worker
    processes are forked lazily in :meth:`run` — construction builds the
    ordinary serial engine, so specs, seeds and workloads behave exactly
    as they do serially.
    """

    def __init__(
        self,
        spec: Any,
        eet: Any,
        workload: Any,
        *,
        workers: int = 2,
        **kwargs: Any,
    ) -> None:
        if workers < 1:
            raise ConfigurationError(f"workers must be >= 1, got {workers}")
        if kwargs.get("failure_model") is not None:
            raise ConfigurationError(
                "parallel federated execution does not support failure "
                "models: repair scheduling is gated on global progress "
                "(zero lookahead); run serially instead"
            )
        if kwargs.get("observers"):
            raise ConfigurationError(
                "parallel federated execution does not support observers: "
                "they contract a single serial event stream; run serially"
            )
        if spec.migration is not None:
            raise ConfigurationError(
                "parallel federated execution does not support mid-queue "
                "migration: the rebalancer reads every shard's batch queue "
                "at each tick (zero lookahead); run serially instead"
            )
        if getattr(spec, "children", None) is not None:
            raise ConfigurationError(
                "parallel federated execution does not support hierarchical "
                "federations: relay hops share parent uplink channels, so "
                "one shard's transfer reorders another's deliveries inside "
                "any lookahead window (the per-pair link bound no longer "
                "holds); run hierarchical federations serially instead"
            )
        # Positive-lookahead check first: its error explains the windowing.
        self.lookahead = spec.topology.min_link_lookahead(spec.names)
        self.workers = workers
        self._fed = FederatedSimulator(spec, eet, workload, **kwargs)
        gateway = self._fed.gateway
        if gateway.reads_shard_state:
            raise ConfigurationError(
                f"gateway {gateway.name!r} reads live shard state, so its "
                "routing decisions cannot be reproduced a lookahead window "
                "ahead of the shards; parallel federated execution needs a "
                "state-blind gateway (e.g. RANDOM_SPLIT) — run this "
                "federation serially instead"
            )
        self._result: FederatedSimulationResult | None = None

    # -- coordinator ---------------------------------------------------------------

    def run(self) -> FederatedSimulationResult:
        if self._result is not None:
            return self._result
        fed = self._fed
        n_shards = len(fed.shards)
        n_workers = min(self.workers, n_shards)
        owner = [i % n_workers for i in range(n_shards)]

        # Handles of the upfront per-task deadline events: the coordinator
        # keeps a task's deadline only while the task is in the WAN (for
        # exact in-flight cancellation); once the task reaches a shard, the
        # deadline moves with it and this copy is cancelled.
        deadline_events: dict[int, Event] = {
            event.payload.id: event
            for event in fed.events._heap
            if event.type is _DEADLINE
        }

        ctx = multiprocessing.get_context("fork")
        conns: list[Any] = []
        procs: list[Any] = []
        try:
            for w in range(n_workers):
                parent_conn, child_conn = ctx.Pipe()
                shard_ids = [i for i in range(n_shards) if owner[i] == w]
                proc = ctx.Process(
                    target=_worker_main,
                    args=(child_conn, fed, shard_ids),
                    daemon=True,
                )
                proc.start()
                child_conn.close()
                conns.append(parent_conn)
                procs.append(proc)

            result = self._coordinate(conns, owner, deadline_events)
        finally:
            for conn in conns:
                conn.close()
            for proc in procs:
                proc.join(timeout=30)
                if proc.is_alive():  # pragma: no cover - defensive
                    proc.terminate()
        self._result = result
        return result

    def _coordinate(
        self,
        conns: list[Any],
        owner: list[int],
        deadline_events: dict[int, Event],
    ) -> FederatedSimulationResult:
        fed = self._fed
        lookahead = self.lookahead
        n_workers = len(conns)
        outboxes: list[list[tuple[Any, ...]]] = [[] for _ in range(n_workers)]
        coord_last = 0.0
        coord_processed = 0

        events = fed.events
        heap = events._heap
        cancelled = events._cancelled

        # The federation layer is closed (nothing a shard does feeds back
        # into the coordinator's event stream), so windows publish
        # one-directionally: each edge crossed flushes the accumulated
        # boundary events and the workers pipeline behind the coordinator.
        next_time = events.next_time()
        while next_time is not None:
            w_end = next_time + lookahead
            while heap and heap[0][0] < w_end:
                event = heapq.heappop(heap)
                if cancelled and event.seq in cancelled:
                    cancelled.discard(event.seq)
                    continue
                events._live -= 1
                now = event.time
                fed.clock._now = now
                coord_last = now
                etype = event.type
                cluster_id = event.cluster
                if cluster_id is None:
                    if etype is _ARRIVAL:
                        self._route(event.payload, now, outboxes, owner,
                                    deadline_events)
                    elif etype is _DEADLINE:
                        self._deadline_in_wan(
                            event.payload, now, outboxes, owner
                        )
                    elif etype is _LINK_TRANSFER:
                        WanManager.on_link_event(event, now)
                    elif etype is _CROSS_TRAFFIC:
                        WanManager.on_cross_traffic(event, now)
                    else:  # pragma: no cover - defensive
                        raise SimulationStateError(
                            f"unexpected coordinator event {etype}"
                        )
                elif etype is _ARRIVAL:
                    # A WAN delivery: account it, then hand the task (and
                    # its deadline) to the owning worker at this timestamp.
                    task = event.payload
                    transfer = fed._transfers.pop(task.id, None)
                    if transfer is not None:
                        fed._wan.on_delivered(transfer, now)
                        fed._wan.release(transfer)
                    self._forward(task, now, cluster_id, outboxes, owner,
                                  deadline_events)
                else:  # pragma: no cover - defensive
                    raise SimulationStateError(
                        f"shard event {etype} reached the parallel "
                        "coordinator"
                    )
                # Every live coordinator pop is a serial-engine event; the
                # forwarded continuations are bookkeeping, counted nowhere.
                coord_processed += 1
            for w, conn in enumerate(conns):
                conn.send(("window", w_end, outboxes[w]))
                outboxes[w] = []
            next_time = events.next_time()

        # The coordinator's stream is exhausted: no further boundary events
        # can exist, so the workers may drain unboundedly. Their replies are
        # the run's only barriers.
        for conn in conns:
            conn.send(("drain",))
        worker_last = [conn.recv()[1] for conn in conns]
        end_time = max([coord_last, *worker_last])
        fed.clock._now = end_time
        total_processed = coord_processed
        for conn in conns:
            conn.send(("finalize", end_time))
        for conn in conns:
            tag, payloads, processed = conn.recv()
            assert tag == "result"
            total_processed += processed
            for shard_id, (collector, cluster) in payloads.items():
                shard = fed.shards[shard_id]
                shard.collector = collector
                shard.cluster = cluster

        fed._events_processed = total_processed
        result = fed._build_result()
        expected = len(fed.workload)
        if fed.drop_on_deadline and fed.recorded != expected:
            raise SimulationStateError(
                f"conservation violated: {fed.recorded} terminal tasks "
                f"out of {expected} across {len(fed.shards)} clusters"
            )
        fed._finished = True
        fed._result = result
        return result

    # -- coordinator event handlers ------------------------------------------------

    def _route(
        self,
        task: Task,
        now: float,
        outboxes: list[list[tuple[Any, ...]]],
        owner: list[int],
        deadline_events: dict[int, Event],
    ) -> None:
        """The gateway decision for one arriving task (serial semantics)."""
        fed = self._fed
        origin = task.origin_cluster
        if origin is None:  # pragma: no cover - defensive
            raise SimulationStateError(
                f"task {task.id} reached the gateway without an origin"
            )
        ctx = fed._ctx
        ctx.now = now
        ctx.task = task
        ctx.origin = origin
        destination = fed.gateway.choose_cluster(ctx)
        if not 0 <= destination < len(fed.shards):
            raise SchedulingError(
                f"{fed.gateway.name}: cluster index {destination} out of "
                f"range for {len(fed.shards)} clusters"
            )
        task.cluster = destination
        fed._routing[origin][destination] += 1
        fed.shards[destination].routed += 1
        if destination != origin:
            fed._offloaded += 1
            transfer = fed._wan.submit(task, origin, destination, now)
            if transfer is not None:
                # In the WAN: the coordinator keeps the deadline until the
                # delivery (or in-flight cancellation) resolves it.
                fed._transfers[task.id] = transfer
                return
        self._forward(task, now, destination, outboxes, owner,
                      deadline_events)

    def _forward(
        self,
        task: Task,
        now: float,
        destination: int,
        outboxes: list[list[tuple[Any, ...]]],
        owner: list[int],
        deadline_events: dict[int, Event],
    ) -> None:
        """Hand a task to its destination shard's worker at time *now*."""
        fed = self._fed
        with_deadline = False
        handle = deadline_events.pop(task.id, None)
        if handle is not None and fed.events.cancel(handle):
            with_deadline = True
        outboxes[owner[destination]].append(
            ("arr", now, destination, task.id, with_deadline)
        )

    def _deadline_in_wan(
        self,
        task: Task,
        now: float,
        outboxes: list[list[tuple[Any, ...]]],
        owner: list[int],
    ) -> None:
        """A deadline fired at the coordinator: the task must be in the WAN.

        Mirrors the serial engine's CREATED branch — abandon the transfer,
        cancel the task — then ships a record entry so the destination
        shard's collector books the terminal task in event order.
        """
        fed = self._fed
        transfer = fed._transfers.pop(task.id, None)
        if transfer is None:  # pragma: no cover - defensive
            raise SimulationStateError(
                f"coordinator deadline for task {task.id} which is not "
                "in the WAN (its deadline should live with its shard)"
            )
        in_fifo = transfer.phase is TransferPhase.QUEUED
        fed._wan.cancel(transfer, now)
        if not in_fifo:
            fed._wan.release(transfer)
        task.cancel(now)
        destination = task.cluster
        assert destination is not None
        outboxes[owner[destination]].append(("rec", now, destination, task.id))


# -- worker process ---------------------------------------------------------------


def _worker_main(conn: Any, fed: FederatedSimulator, shard_ids: list[int]) -> None:
    """Event loop of one worker process (entered via fork).

    The forked image contains the fully built federation; the worker swaps
    in a fresh event queue (dropping the coordinator-owned arrival and
    deadline population) and advances only its shards, window by window.
    Boundary events arrive as id-tuples and are re-materialised against the
    worker's own (forked) task objects, replaying the coordinator-side
    mutations — destination stamp, WAN cancellation — deterministically.
    """
    events = EventQueue()
    fed.events = events
    for shard in fed.shards:
        shard.events = events
    shards = fed.shards
    by_id = {task.id: task for task in fed.workload}
    clock = fed.clock
    heap = events._heap
    cancelled = events._cancelled
    push = events.push
    processed = 0
    last_time = 0.0
    draining = False

    while True:
        if not draining:
            message = conn.recv()
            tag = message[0]
            if tag == "window":
                w_end = message[1]
                for item in message[2]:
                    kind, when, destination, task_id = item[:4]
                    task = by_id[task_id]
                    task.cluster = destination
                    if kind == "arr":
                        push(Event(when, _ARRIVAL, task, cluster=destination))
                        if item[4]:
                            push(
                                Event(task.deadline, _DEADLINE, task,
                                      cluster=destination)
                            )
                    else:  # "rec": replay the coordinator's in-WAN cancel
                        task.cancel(when)
                        push(
                            Event(when, _DEADLINE, (task,), cluster=destination)
                        )
            elif tag == "drain":
                draining = True
                w_end = float("inf")
            else:  # pragma: no cover - defensive
                raise SimulationStateError(f"unknown worker message {tag!r}")
        while heap and heap[0][0] < w_end:
            event = heapq.heappop(heap)
            if cancelled and event.seq in cancelled:
                cancelled.discard(event.seq)
                continue
            events._live -= 1
            now = event.time
            clock._now = now
            last_time = now
            etype = event.type
            if etype is _COMPLETION:
                shards[event.cluster]._on_completion(event.payload)
            elif etype is _ARRIVAL:
                # The continuation of a coordinator-counted arrival or
                # delivery event — dispatch it, but do not count it.
                shards[event.cluster]._on_arrival(event.payload)
                continue
            elif etype is _DEADLINE:
                payload = event.payload
                if type(payload) is tuple:
                    # Cancelled in the WAN by the coordinator (which
                    # already counted the deadline event): record the
                    # terminal task at its destination, in event order.
                    task = payload[0]
                    shard = shards[event.cluster]
                    shard.collector.record_terminal(task)
                    shard.type_stats.record(task.task_type.name, False)
                    continue
                if payload.status.is_terminal:
                    processed += 1
                    continue
                shards[payload.cluster]._on_deadline(payload)
            else:
                shards[event.cluster]._dispatch(event)
            processed += 1
        if draining:
            conn.send(("drained", last_time))
            message = conn.recv()
            assert message[0] == "finalize"
            end_time = message[1]
            payloads: dict[int, tuple[Any, Any]] = {}
            for shard_id in shard_ids:
                shard = shards[shard_id]
                shard.finalize(end_time)
                payloads[shard_id] = (shard.collector, shard.cluster)
            conn.send(("result", payloads, processed))
            conn.close()
            return
