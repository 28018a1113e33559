"""The tree-capable gateway: level-by-level routing on rolled-up pressure.

Flat gateways compare every cluster pair over a direct WAN link; a
hierarchical federation (:mod:`repro.federation.hierarchy`) has no such
links — only child↔parent uplinks — so its routing decision is structural:
*which subtree*, recursively, until a leaf is reached. That is exactly the
multi-level placement question (which region, then which site, then which
cluster) the E2C evaluation studies pose, and it is why this module's
policy is the only stock gateway with ``supports_hierarchy`` set.
"""

from __future__ import annotations

from ...core.errors import ConfigurationError
from .base import GatewayContext, GatewayPolicy, shard_pressure
from .registry import register_gateway

__all__ = ["TreePressureGateway"]


@register_gateway(aliases=("HIERARCHICAL",))
class TreePressureGateway(GatewayPolicy):
    """Descend the federation tree, picking the least-pressured subtree.

    At each interior node, every child subtree is scored by its rolled-up
    pressure::

        (Σ leaf in_system + wan_mb_weight · Σ leaf in-flight WAN MB)
        / Σ leaf live machines

    and the walk continues into the argmin child until it reaches a leaf.
    In-flight WAN payload counts *toward* a subtree's pressure, so traffic
    already converging on a region steers later arrivals elsewhere before
    any of it lands in a queue — the rolled-up analogue of link backlog.
    Ties prefer the child subtree containing the task's origin (locality),
    then the earlier child, so a balanced tree degrades into keep-it-local.

    The ``in_system`` and live-machine sums are per-node counters the
    federation engine keeps current (``HierarchyView``); only the WAN term
    is summed over the child's leaves, in leaf order.

    On a *flat* federation (no hierarchy in the context) the policy is the
    depth-1 special case of the same rule: the argmin-pressure leaf, origin
    first on ties — LEAST_LOADED's arithmetic, reached through the tree
    walk's degenerate single level.
    """

    name = "TREE_PRESSURE"
    description = "descend the federation tree into the least-pressured subtree"
    supports_hierarchy = True

    def __init__(self, *, wan_mb_weight: float = 0.05) -> None:
        if wan_mb_weight < 0:
            raise ConfigurationError(
                f"wan_mb_weight must be >= 0, got {wan_mb_weight}"
            )
        self.wan_mb_weight = wan_mb_weight

    def choose_cluster(self, ctx: GatewayContext) -> int:
        view = ctx.hierarchy
        if view is None:
            return self._choose_flat(ctx)
        tree = view.tree
        in_system = view.in_system
        alive = view.alive
        inflight = view.inflight_mb
        leaves_under = tree.leaves_under
        n_leaves = tree.n_leaves
        weight = self.wan_mb_weight
        # A child is local iff it is an ancestor-or-self of the origin.
        origin_chain = tree.leaf_ancestors[ctx.origin]
        inf = float("inf")
        node = tree.root
        while node >= n_leaves:  # interior node: descend one level
            best = -1
            best_pressure = inf
            best_local = False
            for child in tree.children[node]:
                live = alive[child]
                if live <= 0:
                    pressure = inf
                else:
                    # Summed leaf by leaf in leaf order, never kept as a
                    # per-node float: the rounding must match the leaf scan.
                    inflight_mb = 0.0
                    for leaf in leaves_under[child]:
                        inflight_mb += inflight[leaf]
                    pressure = (in_system[child] + weight * inflight_mb) / live
                local = child in origin_chain
                if (
                    best < 0
                    or pressure < best_pressure
                    or (pressure == best_pressure and local and not best_local)
                ):
                    best, best_pressure, best_local = child, pressure, local
            node = best
        return node

    def _choose_flat(self, ctx: GatewayContext) -> int:
        """Depth-1 degenerate walk: argmin leaf pressure, origin on ties."""
        origin = ctx.origin
        best = origin
        best_pressure = shard_pressure(ctx.shards[origin])
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
