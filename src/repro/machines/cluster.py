"""Cluster: the machine population of a scenario.

Builds machine instances from (machine type, count) pairs against an EET
matrix and provides the aggregate views the scheduler and the renderer need:
ready-time vectors, completion-time vectors (NumPy, vectorised across
machines), load snapshots and energy totals.
"""

from __future__ import annotations

from typing import Iterator, Mapping, Sequence

import numpy as np

from ..core.errors import ConfigurationError
from ..tasks.task import Task
from .eet import EETMatrix
from .machine import Machine
from .machine_queue import UNBOUNDED
from .machine_type import MachineType
from .power import PowerProfile

__all__ = ["Cluster", "ClusterState"]


class ClusterState:
    """Incrementally-maintained planning arrays shared with the machines.

    Every machine state transition (enqueue, start, finish, drop, fail,
    repair) mirrors three scalars into these arrays, so the per-decision
    ``ready_times`` sweep is a single vectorised expression instead of a
    Python loop over machines scanning queues. ``idle`` / ``n_idle`` form the
    O(1) idle-machine index used by renderers and idle-seeking policies.
    """

    __slots__ = (
        "finish_at",
        "queued_work",
        "finish_list",
        "queued_list",
        "slots",
        "slots_list",
        "up",
        "idle",
        "n_idle",
        "n_down",
    )

    def __init__(self, n: int) -> None:
        self.finish_at = np.zeros(n)   # run_finishes_at, 0.0 while idle
        self.queued_work = np.zeros(n)  # Σ EET of queued tasks
        # Plain-float twins of the two arrays above, maintained by the same
        # machine syncs: the scalar argmin/min fast paths index them directly
        # instead of paying a .tolist() materialisation per decision.
        self.finish_list = [0.0] * n
        self.queued_list = [0.0] * n
        # Free machine-queue slots (0.0 while down, inf when unbounded),
        # mirrored by the same syncs: the batch mapping loop snapshots this
        # array instead of chasing queue attributes machine by machine; the
        # one-task scalar pass masks by its plain-float twin.
        self.slots = np.full(n, np.inf)
        self.slots_list = [float("inf")] * n
        self.up = np.ones(n, dtype=bool)
        self.idle = np.ones(n, dtype=bool)  # up and not running
        self.n_idle = n
        self.n_down = 0


class Cluster:
    """An ordered collection of machines sharing one EET matrix."""

    def __init__(self, machines: Sequence[Machine], eet: EETMatrix) -> None:
        if not machines:
            raise ConfigurationError("a cluster needs at least one machine")
        ids = [m.id for m in machines]
        if ids != list(range(len(machines))):
            raise ConfigurationError(
                f"machine ids must be 0..n-1 in order, got {ids}"
            )
        for m in machines:
            if not eet.has_machine_type(m.machine_type.name):
                raise ConfigurationError(
                    f"machine {m.name}: type {m.machine_type.name!r} has no EET "
                    f"column; columns: {eet.machine_type_names}"
                )
        self.machines = list(machines)
        self.eet = eet
        # Cache the EET column index per machine for vectorised lookups.
        col_of = {n: j for j, n in enumerate(eet.machine_type_names)}
        self._machine_cols = np.array(
            [col_of[m.machine_type.name] for m in machines], dtype=int
        )
        # (n_task_types, n_machines) EET expanded to machine granularity —
        # one fancy-index gather per batch pass instead of per-task vstacks.
        self._eet_by_machine = np.ascontiguousarray(
            eet.values[:, self._machine_cols]
        )
        # eet_vector hands out row views of this cache; keep it immutable so
        # a policy mutating its "own" EET vector cannot corrupt the cluster.
        self._eet_by_machine.setflags(write=False)
        self._row_of = {t.name: t.index for t in eet.task_types}
        # Python-float copies of the EET rows for the small-cluster scalar
        # fast path (argmin_completion): plain list indexing avoids NumPy
        # scalar boxing inside the per-machine loop.
        self._eet_lists = [row.tolist() for row in self._eet_by_machine]
        self._state = ClusterState(len(self.machines))
        for i, m in enumerate(self.machines):
            m.bind_shared_state(self._state, i)

    @property
    def state(self) -> ClusterState:
        """The shared planning arrays (read-only by convention)."""
        return self._state

    # -- construction -------------------------------------------------------------

    @classmethod
    def build(
        cls,
        eet: EETMatrix,
        counts: Mapping[str, int] | Sequence[int],
        *,
        power_profiles: Mapping[str, PowerProfile] | None = None,
        queue_capacity: float = UNBOUNDED,
        memory_capacities: Mapping[str, float] | None = None,
        network: Mapping[str, tuple[float, float]] | None = None,
    ) -> "Cluster":
        """Create machines from per-machine-type counts.

        Parameters
        ----------
        counts:
            Either ``{"CPU": 2, "GPU": 1}`` or a sequence aligned with the EET
            columns.
        power_profiles:
            Optional per-machine-type power profiles.
        queue_capacity:
            Initial machine-queue capacity applied to all machines (the
            simulator overrides this per scheduling mode).
        memory_capacities / network:
            Optional extension parameters per machine type; ``network`` maps
            type name to ``(latency_s, bandwidth_MBps)``.
        """
        names = eet.machine_type_names
        if isinstance(counts, Mapping):
            unknown = set(counts) - set(names)
            if unknown:
                raise ConfigurationError(
                    f"counts reference unknown machine types {sorted(unknown)}"
                )
            count_list = [int(counts.get(n, 0)) for n in names]
        else:
            if len(counts) != len(names):
                raise ConfigurationError(
                    f"counts sequence length {len(counts)} != machine types "
                    f"{len(names)}"
                )
            count_list = [int(c) for c in counts]
        if any(c < 0 for c in count_list):
            raise ConfigurationError("machine counts must be >= 0")
        if sum(count_list) == 0:
            raise ConfigurationError("at least one machine is required")

        power_profiles = power_profiles or {}
        memory_capacities = memory_capacities or {}
        network = network or {}
        machine_types = []
        for j, name in enumerate(names):
            latency, bandwidth = network.get(name, (0.0, 0.0))
            machine_types.append(
                MachineType(
                    name=name,
                    index=j,
                    power=power_profiles.get(name, PowerProfile()),
                    memory_capacity=memory_capacities.get(name, 0.0),
                    network_latency=latency,
                    network_bandwidth=bandwidth,
                )
            )

        machines: list[Machine] = []
        for mtype, count in zip(machine_types, count_list):
            for _ in range(count):
                machines.append(
                    Machine(
                        machine_id=len(machines),
                        machine_type=mtype,
                        eet=eet,
                        queue_capacity=queue_capacity,
                    )
                )
        return cls(machines, eet)

    # -- container protocol ----------------------------------------------------------

    def __len__(self) -> int:
        return len(self.machines)

    def __iter__(self) -> Iterator[Machine]:
        return iter(self.machines)

    def __getitem__(self, i: int) -> Machine:
        return self.machines[i]

    # -- vectorised planning views ------------------------------------------------------

    def eet_vector(self, task: Task) -> np.ndarray:
        """EET of *task* on each machine (aligned with machine order)."""
        row = self._row_of.get(task.task_type.name)
        if row is None:  # unknown type: defer to EETMatrix for its error
            return self.eet.row(task.task_type)[self._machine_cols]
        return self._eet_by_machine[row]

    def eet_rows(self, tasks: Sequence[Task]) -> np.ndarray:
        """(len(tasks), n_machines) EET sub-matrix in one gather."""
        row_of = self._row_of
        try:
            rows = [row_of[t.task_type.name] for t in tasks]
        except KeyError:  # unknown type: defer to EETMatrix for its error
            return np.vstack([self.eet_vector(t) for t in tasks])
        return self._eet_by_machine[rows]

    def ready_times(self, now: float) -> np.ndarray:
        """ready_time(now) per machine.

        Computed from the incrementally-maintained :class:`ClusterState`
        arrays with the exact same arithmetic as ``Machine.ready_time``
        (``now + max(0, finish_at - now) + queued_work``), so results are
        bit-identical to the per-machine scalar path.
        """
        state = self._state
        ready = state.finish_at - now
        np.maximum(ready, 0.0, out=ready)
        ready += now
        ready += state.queued_work
        if state.n_down:
            ready[~state.up] = np.inf
        return ready

    def completion_times(self, task: Task, now: float) -> np.ndarray:
        """Expected completion time of *task* on each machine."""
        out = self.ready_times(now)  # fresh array; safe to reuse in place
        out += self.eet_vector(task)
        return out

    #: Machine count above which the vectorised NumPy path beats the scalar
    #: loop (its ~6 ufunc dispatches cost about as much as ~64 loop bodies).
    _SCALAR_ARGMIN_LIMIT = 64

    def _scalar_mct(
        self, task: Task, now: float, free: Sequence[float] | None = None
    ) -> tuple[int, float] | None:
        """First argmin and minimum of ``ready_time + EET`` by a scalar loop.

        Loops over the incrementally-maintained plain-float mirrors, which
        for up to ``_SCALAR_ARGMIN_LIMIT`` machines beats the fixed overhead
        of the ~6 NumPy ufunc dispatches the vectorised path costs. Each
        cell is ``now + max(0, finish_at - now) + queued_work + eet`` — the
        identical IEEE operations of ``ready_times(now) + eet_vector`` — and
        the strict ``<`` keeps the first minimum, as ``argmin`` does.
        Machines with ``free[j] <= 0`` are skipped (the batch loop's
        saturated/down mask); a minimum of +inf means none is eligible.
        Down machines are *not* excluded without a mask, so unmasked callers
        must check ``state.n_down`` first. Returns None when the loop does
        not apply: more machines than the limit, or a task type without an
        EET row (the vectorised path raises the proper error).
        """
        if len(self.machines) > self._SCALAR_ARGMIN_LIMIT:
            return None
        row = self._row_of.get(task.task_type.name)
        if row is None:
            return None
        state = self._state
        eet_row = self._eet_lists[row]
        queued = state.queued_list
        best = float("inf")
        best_j = 0
        for j, f in enumerate(state.finish_list):
            if free is not None and free[j] <= 0.0:
                continue
            remaining = f - now
            if remaining < 0.0:
                remaining = 0.0
            v = now + remaining + queued[j] + eet_row[j]
            if v < best:
                best = v
                best_j = j
        return best_j, best

    def argmin_completion(self, task: Task, now: float) -> int:
        """Index of the machine minimising completion time (MCT argmin).

        Fully-up clusters take the scalar loop of :meth:`_scalar_mct`;
        both branches pick the same index, so the simulation trajectory is
        the same either way.
        """
        if not self._state.n_down:
            hit = self._scalar_mct(task, now)
            if hit is not None:
                return hit[0]
        return int(self.completion_times(task, now).argmin())

    def min_completion_time(self, task: Task, now: float) -> float:
        """Smallest expected completion time of *task* across machines.

        Scalar twin of ``float(completion_times(task, now).min())`` — the
        same IEEE operations in the same order, without materialising the
        vector (the gateway's EET-aware policy calls this per decision).
        """
        if not self._state.n_down:
            hit = self._scalar_mct(task, now)
            if hit is not None:
                return hit[1]
        return float(self.completion_times(task, now).min())

    def free_argmin_completion(
        self, task: Task, now: float
    ) -> tuple[int, float] | None:
        """MCT argmin over machines with a free queue slot, by the scalar loop.

        ``(j, completion)`` with ``completion`` +inf when every machine is
        saturated or down — the one-task answer of the batch planning
        matrix ``ready + eet`` masked by ``free_slots() <= 0``. None when
        the scalar loop does not apply (see :meth:`_scalar_mct`).
        """
        return self._scalar_mct(task, now, self._state.slots_list)

    def acceptance_mask(self) -> np.ndarray:
        """Boolean mask of machines whose queues can take one more task."""
        return np.array([m.can_accept() for m in self.machines])

    # -- O(1) idle index ---------------------------------------------------------

    @property
    def n_idle(self) -> int:
        """Number of up-and-idle machines (maintained incrementally)."""
        return self._state.n_idle

    def idle_machines(self) -> list[Machine]:
        """Up-and-idle machines, in id order, without scanning queues."""
        machines = self.machines
        return [machines[i] for i in np.flatnonzero(self._state.idle)]

    # -- aggregates ------------------------------------------------------------------------

    def total_energy(self) -> float:
        return sum(m.energy.total_energy for m in self.machines)

    def set_queue_capacity(self, capacity: float) -> None:
        """Re-create empty queues with a new capacity (pre-run configuration)."""
        for m in self.machines:
            if len(m.queue) or m.running is not None:
                raise ConfigurationError(
                    "cannot change queue capacity while tasks are in flight"
                )
            m.queue = type(m.queue)(capacity)
            m._sync_queued()  # refresh the mirrored free-slot count

    def free_slots_snapshot(self) -> np.ndarray:
        """Fresh free-slots-per-machine array (callers may mutate it)."""
        return self._state.slots.copy()

    def counts_by_type(self) -> dict[str, int]:
        out: dict[str, int] = {n: 0 for n in self.eet.machine_type_names}
        for m in self.machines:
            out[m.machine_type.name] += 1
        return out

    def fresh_copy(self) -> "Cluster":
        """New cluster with identical topology and pristine runtime state."""
        machines = [
            Machine(
                machine_id=m.id,
                machine_type=m.machine_type,
                eet=self.eet,
                queue_capacity=m.queue.capacity,
                name=m.name,
            )
            for m in self.machines
        ]
        return Cluster(machines, self.eet)
