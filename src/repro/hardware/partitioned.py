"""Statically partitioned caches and TLBs (Sec. 4.3).

The paper's more efficient secure design gives every security level its own
static partition of each cache and TLB, and steers accesses by a *timing
label* that software provides (our implementation receives the read/write
labels directly; the paper encodes them in a new register).  For the
two-level lattice the behaviour is exactly the paper's:

* timing label H: both partitions are searched; on a miss, the line is
  installed in the H partition.  A hit in the L partition is served
  *silently* (no LRU promotion -- an H-labeled step may not modify L state,
  Property 5).
* timing label L: only the L partition is searched.  On an L miss the
  controller installs the line in the L partition; if the line already lived
  in the H partition it is *moved* (removed from H -- allowed, since
  ``L <= H``), and the hardware makes the move take exactly as long as a
  real miss, so timing reveals nothing about H state (Property 6).

The generalization to an arbitrary lattice, implemented here with timing
label ``l``:

* partitions at levels ``p <= l`` are searched (cheapest hit wins);
* a hit in partition ``p`` is LRU-promoted only when ``p = l`` (for
  ``p < l``, promotion would modify state below the write label);
* a miss installs into partition ``l`` and evicts the line from every
  partition strictly above ``l`` (single-copy consistency; eviction at
  ``q >= l`` is permitted by Property 5 because ``lw = l <= q``), always at
  full miss cost.

Like commodity caches (Sec. 5.1), the design needs ``lr = lw`` to use the
cache: a read must be able to promote/install at its own level.  Steps
arriving with ``lr != lw`` are served *bypassed* -- constant full-miss cost,
no state change -- which is trivially secure.  The type system offers
``require_cache_labels`` to reject such programs instead (Sec. 8.1 treats
``lr = lw`` as an extra side condition).
"""

from __future__ import annotations

from operator import attrgetter
from typing import Dict, Hashable, Tuple

from ..lattice import Label, Lattice
from ..machine.layout import AccessTrace
from .hierarchy import Hierarchy
from .interface import MachineEnvironment, StepKind
from .params import MachineParams, paper_machine

#: Component accessors and recorder names per side, indexed by the
#: ``instruction`` flag (data side first).
_TLB_OF = (attrgetter("data_tlb"), attrgetter("inst_tlb"))
_L1_OF = (attrgetter("l1_data"), attrgetter("l1_inst"))
_L2_OF = (attrgetter("l2_data"), attrgetter("l2_inst"))
_NAMES = (("dtlb", "l1d", "l2d"), ("itlb", "l1i", "l2i"))


class LabelPlan:
    """Where an access with one timing label looks and what it disturbs,
    resolved once per model instead of once per access.

    ``searched`` holds the ``(level, partition)`` pairs at or below the
    label, in lattice order; ``own`` is the label's partition; ``above``
    the partitions strictly above it, where single-copy consistency
    evicts.
    """

    __slots__ = ("label", "own", "searched", "above")

    def __init__(self, label: Label, lattice: Lattice,
                 partitions: Dict[Label, Hierarchy]):
        self.label = label
        self.own = partitions[label]
        self.searched: Tuple[Tuple[Label, Hierarchy], ...] = tuple(
            (level, partitions[level])
            for level in lattice.levels() if level.flows_to(label)
        )
        self.above: Tuple[Hierarchy, ...] = tuple(
            partitions[level] for level in lattice.levels()
            if level != label and label.flows_to(level)
        )


class PartitionedHardware(MachineEnvironment):
    """One cache/TLB partition per lattice level, with single-copy moves."""

    def __init__(self, lattice: Lattice, params: MachineParams = None):
        super().__init__(lattice)
        self.params = params if params is not None else paper_machine()
        self.partitions: Dict[Label, Hierarchy] = {
            level: Hierarchy(self.params) for level in lattice.levels()
        }
        self._resolve_plans()

    def _resolve_plans(self) -> None:
        """One :class:`LabelPlan` per level; redone whenever
        :attr:`partitions` is replaced."""
        self.plans: Dict[Label, LabelPlan] = {
            level: LabelPlan(level, self.lattice, self.partitions)
            for level in self.lattice.levels()
        }

    def attach_recorder(self, recorder) -> None:
        """Propagate the telemetry recorder to every partition (the
        per-level branch predictors classify inside the hierarchy)."""
        super().attach_recorder(recorder)
        for hierarchy in self.partitions.values():
            hierarchy.recorder = recorder

    # -- the partitioned access algorithm ------------------------------------
    #
    # One access is a TLB stage plus a cache stage, each an override seam:
    # variant designs (the zoo's leaky-TLB model) replace one stage without
    # re-implementing the other.  Both take the access's LabelPlan, so the
    # hot path never consults the lattice.

    def _tlb_access(
        self, address: int, plan: LabelPlan, instruction: bool
    ) -> int:
        """Address translation with timing label ``plan.label``.

        A hit in any partition at or below the label is free; a miss walks
        the page table and installs into the own-level partition.
        """
        tlb_of = _TLB_OF[instruction]
        tlb_hit = None
        for level, hierarchy in plan.searched:
            if tlb_of(hierarchy).lookup(address):
                tlb_hit = level
                break
        if self.recorder.active:
            self.recorder.on_cache_access(_NAMES[instruction][0],
                                          tlb_hit is not None)
        if tlb_hit is None:
            own = tlb_of(plan.own)
            own.touch(address)
            for hierarchy in plan.above:
                tlb_of(hierarchy).evict(address)
            return own.params.miss_penalty
        if tlb_hit is plan.label:
            tlb_of(plan.own).touch(address)  # LRU promotion, own partition
        return 0

    def _cache_access(
        self, address: int, plan: LabelPlan, instruction: bool
    ) -> int:
        """The L1/L2 stage of one access with timing label ``plan.label``."""
        l1_of = _L1_OF[instruction]
        l2_of = _L2_OF[instruction]
        own = plan.own
        recording = self.recorder.active

        # L1 search across all partitions at or below the timing label.
        cost = l1_of(own).params.latency
        l1_hit = None
        for level, hierarchy in plan.searched:
            if l1_of(hierarchy).lookup(address):
                l1_hit = level
                break
        if recording:
            self.recorder.on_cache_access(_NAMES[instruction][1],
                                          l1_hit is not None)
        if l1_hit is not None:
            if l1_hit is plan.label:
                l1_of(own).touch(address)
            return cost

        # L1 miss: search L2 the same way.
        cost += l2_of(own).params.latency
        l2_hit = None
        for level, hierarchy in plan.searched:
            if l2_of(hierarchy).lookup(address):
                l2_hit = level
                break
        if recording:
            self.recorder.on_cache_access(_NAMES[instruction][2],
                                          l2_hit is not None)
        if l2_hit is not None:
            if l2_hit is plan.label:
                l2_of(own).touch(address)
            l1_of(own).touch(address)
            for hierarchy in plan.above:
                l1_of(hierarchy).evict(address)
            return cost

        # Full miss: the controller either fetches from memory or moves the
        # line from a strictly-higher partition; both take the full miss
        # latency so that timing is independent of unsearched state.  The
        # line leaves every partition above (single-copy consistency,
        # permitted by Property 5 since lw = label <= q).
        cost += self.params.memory_latency
        l2_of(own).touch(address)
        l1_of(own).touch(address)
        for hierarchy in plan.above:
            l1_of(hierarchy).evict(address)
        for hierarchy in plan.above:
            l2_of(hierarchy).evict(address)
        return cost

    # -- the contract interface ------------------------------------------------

    def step(
        self,
        kind: StepKind,
        trace: AccessTrace,
        read_label: Label,
        write_label: Label,
    ) -> int:
        cost = self.params.execute_cost
        # Labels are interned per lattice: the identity test settles the
        # common lr = lw case without calling Label.__eq__.
        if read_label is not write_label and read_label != write_label:
            # The cache can only be used when lr = lw (Sec. 5.1); other
            # steps bypass it entirely at worst-case cost.
            reference = self.partitions[self.lattice.bottom]
            cost += reference.inst_miss_cost()
            cost += reference.data_miss_cost() * (
                len(trace.reads) + len(trace.writes)
            )
            if self.recorder.active:
                self.recorder.on_bypass(
                    1 + len(trace.reads) + len(trace.writes)
                )
            if trace.taken is not None and self.params.branch is not None:
                cost += self.params.branch.penalty  # flat worst case
            return cost
        plan = self.plans[read_label]
        tlb_access = self._tlb_access
        cache_access = self._cache_access
        address = trace.instruction
        cost += (tlb_access(address, plan, True)
                 + cache_access(address, plan, True))
        if trace.taken is not None:
            # Each level owns a private predictor: reads and training stay
            # at exactly the step's own level.
            cost += plan.own.branch_cost(address, trace.taken)
        for address in trace.reads:
            cost += (tlb_access(address, plan, False)
                     + cache_access(address, plan, False))
        for address in trace.writes:
            cost += (tlb_access(address, plan, False)
                     + cache_access(address, plan, False))
        return cost

    def project(self, level: Label) -> Hashable:
        return self.partitions[level].state()

    def clone(self) -> "PartitionedHardware":
        twin = type(self)(self.lattice, self.params)
        twin.partitions = {
            level: hierarchy.clone()
            for level, hierarchy in self.partitions.items()
        }
        twin._resolve_plans()
        return twin
