"""Greedy auto-grouping for fusion (paper section 3.1).

PolyMG reuses PolyMage's greedy heuristic: starting from one group per
stage, producer groups are merged into consumer groups whenever

* the merged group stays within the *grouping limit* (max stages),
* the merge keeps the group-level graph acyclic (no other path exists
  between the two groups),
* all member stages get a consistent per-dimension scale relative to the
  merged anchor, and
* the estimated redundant computation of overlapped tiling at the
  configured tile size stays below the overlap threshold.

The sweep repeats until a fixpoint.  The result is a
:class:`GroupingResult` with groups in topological order and the
group-level consumer relation, ready for scheduling, tiling, and the
storage passes.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..config import PolyMgConfig
from ..errors import CompileError, ScheduleLegalityError
from .groups import Group

if TYPE_CHECKING:  # pragma: no cover
    from ..ir.dag import PipelineDAG
    from ..lang.function import Function

__all__ = ["GroupingResult", "auto_group"]


class GroupingResult:
    """Groups in topological order plus group-graph queries."""

    def __init__(self, dag: "PipelineDAG", groups: list[Group]) -> None:
        self.dag = dag
        self.groups = self._topo_sort(dag, groups)
        self.group_of: dict["Function", Group] = {}
        for group in self.groups:
            for stage in group.stages:
                self.group_of[stage] = group

    @staticmethod
    def _topo_sort(dag: "PipelineDAG", groups: list[Group]) -> list[Group]:
        owner: dict["Function", Group] = {}
        for group in groups:
            for stage in group.stages:
                owner[stage] = group
        # group order induced by the stage topological order of anchors
        return sorted(groups, key=lambda g: dag.stage_index(g.anchor))

    def consumers_of_group(self, group: Group) -> list[Group]:
        seen: list[Group] = []
        for stage in group.stages:
            for consumer in self.dag.consumers_of(stage):
                g = self.group_of.get(consumer)
                if g is not None and g is not group and g not in seen:
                    seen.append(g)
        return seen

    def producers_of_group(self, group: Group) -> list[Group]:
        seen: list[Group] = []
        for stage in group.stages:
            for producer in self.dag.producers_of(stage):
                g = self.group_of.get(producer)
                if g is not None and g is not group and g not in seen:
                    seen.append(g)
        return seen

    def summary_line(self) -> str:
        """One-line artifact summary for pass records."""
        sizes = [g.size for g in self.groups]
        return (
            f"GroupingResult: {len(self.groups)} groups over "
            f"{sum(sizes)} stages (largest {max(sizes, default=0)})"
        )

    def validate(self) -> None:
        """Invariant checks: partition, acyclicity, schedulability."""
        covered = [s for g in self.groups for s in g.stages]
        if len(covered) != len(set(covered)) or set(covered) != set(
            self.dag.stages
        ):
            raise CompileError(
                "groups do not partition the stage set",
                pipeline=self.dag.name,
                covered=len(set(covered)),
                stages=len(self.dag.stages),
            )
        seen: set[int] = set()
        for group in self.groups:
            for producer_group in self.producers_of_group(group):
                if id(producer_group) not in seen:
                    raise ScheduleLegalityError(
                        "group order is not topological (cycle in "
                        "condensed graph?)",
                        pipeline=self.dag.name,
                        consumer_anchor=group.anchor.name,
                        producer_anchor=producer_group.anchor.name,
                    )
            seen.add(id(group))


def _reaches(
    consumers_of,
    src: Group,
    dst: Group,
    skip_direct: bool,
) -> bool:
    """True if ``dst`` is reachable from ``src`` in the *current* group
    graph (``consumers_of`` computes consumer groups on demand); with
    ``skip_direct`` the length-1 edge src->dst is ignored (merge-safety
    check)."""
    stack = []
    for g in consumers_of(src):
        if g is dst and skip_direct:
            continue
        stack.append(g)
    visited: set[int] = set()
    while stack:
        g = stack.pop()
        if g is dst:
            return True
        if id(g) in visited:
            continue
        visited.add(id(g))
        stack.extend(consumers_of(g))
    return False


def _is_one_chain(group: Group) -> bool:
    """True when every stage belongs to the same ``TStencil`` chain
    (the only fusion ``fuse_smoother_chains_only`` permits)."""
    first = getattr(group.stages[0], "tstencil", None)
    if first is None:
        return False
    return all(
        getattr(s, "tstencil", None) is first for s in group.stages
    )


def _diamond_compatible(group: Group) -> bool:
    """Under ``diamond_smoothing`` smoother chains must stay isolated:
    a group either contains only steps of one ``TStencil`` (a chain the
    cost model prices as diamond-tiled) or no smoother steps at all."""
    tstencils = {id(getattr(s, "tstencil", None)) for s in group.stages}
    has_smooth = any(
        getattr(s, "tstencil", None) is not None for s in group.stages
    )
    if not has_smooth:
        return True
    return len(tstencils) == 1


def auto_group(dag: "PipelineDAG", config: PolyMgConfig) -> GroupingResult:
    """PolyMage-style greedy grouping under ``config`` thresholds."""
    groups = [Group(dag, [stage]) for stage in dag.stages]

    if not config.fuse:
        return GroupingResult(dag, groups)

    def group_of_map() -> dict["Function", Group]:
        mapping: dict["Function", Group] = {}
        for g in groups:
            for s in g.stages:
                mapping[s] = g
        return mapping

    changed = True
    while changed:
        changed = False
        owner = group_of_map()

        def current_consumers(g: Group) -> list[Group]:
            """Consumer groups of ``g`` in the *current* partition."""
            outs: list[Group] = []
            for stage in g.stages:
                for consumer in dag.consumers_of(stage):
                    cg = owner.get(consumer)
                    if cg is not None and cg is not g and cg not in outs:
                        outs.append(cg)
            return outs

        def do_merge(a: Group, b: Group, merged: Group) -> None:
            groups.remove(a)
            groups.remove(b)
            groups.append(merged)
            for stage in merged.stages:
                owner[stage] = merged

        def merge_allowed(a: Group, b: Group) -> Group | None:
            """Checks for absorbing producer ``a`` into consumer ``b``;
            returns the merged group or None."""
            if a.size + b.size > config.group_size_limit:
                return None
            # acyclicity: no second path a ->* b in the current graph.
            # Fast path: a producer whose only consumer group is b
            # cannot start an alternative path.
            a_consumers = current_consumers(a)
            if a_consumers != [b] and _reaches(
                current_consumers, a, b, True
            ):
                return None
            merged = Group(dag, a.stages + b.stages)
            if config.fuse_smoother_chains_only and not _is_one_chain(
                merged
            ):
                return None
            if config.diamond_smoothing and not _diamond_compatible(
                merged
            ):
                return None
            try:
                merged.scales()
            except CompileError:
                return None
            if config.tile and merged.size > 1:
                tile = config.tile_shape(merged.anchor.ndim)
                if merged.redundancy(tile) > config.overlap_threshold:
                    return None
            return merged

        # sweep producers in topological order, absorbing each into its
        # consumer group; a freshly merged group keeps extending along
        # its single-consumer chain within the sweep (PolyMage's
        # automerge behaviour); groups already touched this sweep are
        # otherwise left for the next sweep
        merged_ids: set[int] = set()
        for producer_group in sorted(
            groups, key=lambda g: dag.stage_index(g.anchor)
        ):
            if id(producer_group) in merged_ids:
                continue
            for consumer_group in list(current_consumers(producer_group)):
                if id(consumer_group) in merged_ids:
                    continue
                merged = merge_allowed(producer_group, consumer_group)
                if merged is None:
                    continue
                do_merge(producer_group, consumer_group, merged)
                merged_ids.add(id(producer_group))
                merged_ids.add(id(consumer_group))
                merged_ids.add(id(merged))
                # chain extension: while the merged group has exactly
                # one (untouched) consumer, keep absorbing it
                while True:
                    chain = [
                        g
                        for g in current_consumers(merged)
                        if id(g) not in merged_ids
                    ]
                    if len(chain) != 1 or current_consumers(merged) != chain:
                        break
                    nxt = chain[0]
                    candidate = merge_allowed(merged, nxt)
                    if candidate is None:
                        break
                    do_merge(merged, nxt, candidate)
                    merged_ids.add(id(nxt))
                    merged_ids.add(id(candidate))
                    merged = candidate
                changed = True
                break

    result = GroupingResult(dag, groups)
    result.validate()
    return result
