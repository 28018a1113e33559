"""Stock gateway (inter-cluster offloading) policies.

The four canonical routing disciplines of edge-cloud offloading studies:

* :class:`LocalityFirstGateway` — keep the task at its origin site unless the
  site is saturated; cheapest possible WAN usage.
* :class:`LeastLoadedGateway` — always route to the cluster with the lowest
  outstanding load per live machine; pure load balancing, WAN-blind.
* :class:`EETAwareRemoteGateway` — estimate each cluster's best achievable
  completion time *including* the WAN transfer delay and route to the
  argmin; the federated analogue of MECT.
* :class:`RandomSplitGateway` — weighted random split across clusters; the
  noise-floor baseline (and the classic probabilistic load sharing).

All decisions are deterministic given the context (random-split draws from
the federation's seeded generator), so federated runs replay bit-identically.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ...core.errors import ConfigurationError, SchedulingError
from ...core.rng import draw_from_cdf, weight_cdf
from .base import GatewayContext, GatewayPolicy, ShardView, shard_pressure
from .registry import register_gateway

__all__ = [
    "LocalityFirstGateway",
    "LeastLoadedGateway",
    "EETAwareRemoteGateway",
    "RandomSplitGateway",
]


@register_gateway(aliases=("LOCALITY",))
class LocalityFirstGateway(GatewayPolicy):
    """Stay home unless the origin cluster is saturated.

    The task remains at its origin while the origin's pressure (outstanding
    tasks per live machine) is at most ``threshold``; beyond that it spills
    to the lowest-pressure cluster — which may still be the origin if every
    remote site is worse. ``threshold`` is the knob between "never offload"
    (large) and "behave like least-loaded under any load" (zero).
    """

    name = "LOCALITY_FIRST"
    description = "keep tasks at their origin cluster unless it is saturated"

    def __init__(self, *, threshold: float = 2.0) -> None:
        if threshold < 0:
            raise ConfigurationError(
                f"threshold must be >= 0, got {threshold}"
            )
        self.threshold = threshold

    def choose_cluster(self, ctx: GatewayContext) -> int:
        origin = ctx.origin
        origin_pressure = shard_pressure(ctx.shards[origin])
        if origin_pressure <= self.threshold:
            return origin
        best, best_pressure = origin, origin_pressure
        for shard in ctx.shards:
            if shard.index == origin:
                continue
            pressure = shard_pressure(shard)
            if pressure < best_pressure:
                best, best_pressure = shard.index, pressure
        return best


@register_gateway(aliases=("LEASTLOAD",))
class LeastLoadedGateway(GatewayPolicy):
    """Route to the cluster with the lowest outstanding load per machine.

    Ties (including the all-idle start of a run) resolve to the origin
    cluster first, then to the lowest shard index, so the policy degrades
    gracefully into locality when the system is balanced.
    """

    name = "LEAST_LOADED"
    description = "route every task to the least-loaded cluster"

    def choose_cluster(self, ctx: GatewayContext) -> int:
        best = ctx.origin
        best_pressure = shard_pressure(ctx.shards[best])
        origin = ctx.origin
        for shard in ctx.shards:
            if shard.index == origin:
                continue
            pressure = shard_pressure(shard)
            if pressure < best_pressure or (
                pressure == best_pressure
                and best != origin
                and shard.index < best
            ):
                best, best_pressure = shard.index, pressure
        return best


@register_gateway(aliases=("EETREMOTE",))
class EETAwareRemoteGateway(GatewayPolicy):
    """Minimise (WAN transfer + best local completion time) across clusters.

    For each cluster the estimate is the minimum over its machines of
    ``ready_time + EET`` (the same vectorised quantity MECT minimises
    locally) plus the *backlog-aware* WAN delay from the task's origin
    (:meth:`~repro.scheduling.federation.base.GatewayContext.estimated_wan_delay_to`):
    on contended links the estimate includes the link's current queue, so a
    congested pipe steers traffic away. On uncontended links the estimate
    equals the static delay and the policy behaves exactly as before
    contention existed. The origin wins ties, so zero-latency federations
    behave exactly like one big MECT front-end.

    ``energy_weight`` (J → seconds exchange rate, default 0) adds
    ``energy_weight × transfer joules`` to each remote cluster's cost,
    turning the policy into an energy-aware offloader: at 0 it minimises
    completion time alone; large values keep energy-expensive payloads home
    unless the remote speed-up is overwhelming.
    """

    name = "EET_AWARE_REMOTE"
    description = (
        "route to the cluster minimising congestion-aware WAN delay + best "
        "completion (optionally energy-weighted)"
    )

    def __init__(self, *, energy_weight: float = 0.0) -> None:
        if energy_weight < 0:
            raise ConfigurationError(
                f"energy_weight must be >= 0, got {energy_weight}"
            )
        self.energy_weight = energy_weight

    def choose_cluster(self, ctx: GatewayContext) -> int:
        task, now = ctx.task, ctx.now
        origin = ctx.origin
        weight = self.energy_weight
        best = origin
        best_cost = _best_local_completion(ctx.shards[origin], task, now)
        for shard in ctx.shards:
            if shard.index == origin:
                continue
            cost = ctx.estimated_wan_delay_to(
                shard.index
            ) + _best_local_completion(shard, task, now)
            if weight:
                cost += weight * ctx.wan_energy_to(shard.index)
            if cost < best_cost:
                best, best_cost = shard.index, cost
        return best


def _best_local_completion(shard: "ShardView", task, now: float) -> float:
    """Minimum ``ready_time + EET`` over the shard's machines.

    Uses the cluster's scalar ``min_completion_time`` fast path when present
    (it performs the identical IEEE operations); protocol stubs without it
    fall back to the vectorised expression.
    """
    cluster = shard.cluster
    try:
        return cluster.min_completion_time(task, now)
    except AttributeError:
        return float(cluster.completion_times(task, now).min())


@register_gateway(aliases=("RANDSPLIT",))
class RandomSplitGateway(GatewayPolicy):
    """Weighted random split across clusters (the noise-floor baseline).

    Weights default to each cluster's configured ``weight`` (the same
    numbers that bias where tasks *arrive*); pass explicit ``weights`` to
    decouple routing shares from arrival shares.
    """

    name = "RANDOM_SPLIT"
    description = "split tasks across clusters at random, by weight"
    # Routing uses only static weights and the federation's seeded
    # generator — never live shard state — so windowed-parallel execution
    # can reproduce its decisions without synchronising with the shards.
    reads_shard_state = False

    def __init__(self, *, weights: list[float] | None = None) -> None:
        if weights is not None:
            if not weights or any(w < 0 for w in weights):
                raise ConfigurationError(
                    f"weights must be non-negative and non-empty: {weights}"
                )
            if sum(weights) <= 0:
                raise ConfigurationError("weights must not sum to zero")
        self.weights = weights
        self._cdf: list[float] = []
        self._cdf_shards: Sequence[ShardView] | None = None

    def choose_cluster(self, ctx: GatewayContext) -> int:
        shards = ctx.shards
        cdf = self._cdf
        if shards is not self._cdf_shards or len(shards) != len(cdf):
            cdf = self._build_cdf(shards)
        return draw_from_cdf(ctx.rng, cdf)

    def _build_cdf(self, shards: Sequence[ShardView]) -> list[float]:
        """Validate the weights against *shards* and cache their CDF.

        The weights are static for a federation, so the CDF is built once
        and reused for every decision — rebuilt only when the gateway is
        handed a different shard list, and dropped by :meth:`reset`.
        """
        n = len(shards)
        weights = self.weights
        if weights is None:
            weights = [shard.weight for shard in shards]
        if len(weights) != n:
            raise SchedulingError(
                f"{self.name}: {len(weights)} weights for {n} clusters"
            )
        probs = np.asarray(weights, dtype=float)
        if probs.sum() <= 0:
            raise SchedulingError(f"{self.name}: weights sum to zero")
        self._cdf = weight_cdf(probs)
        self._cdf_shards = shards
        return self._cdf

    def reset(self) -> None:
        self._cdf = []
        self._cdf_shards = None
