"""The hierarchical power-budget allocator.

One global datacenter cap, apportioned into per-node budgets every
epoch from the nodes' measured demand.  The policy follows the
shares-per-watt shape of the serverless power-budgeting models
(SNIPPETS.md snippet 1) and the floor/reclaim mechanics of classic
node power-policy managers (snippet 2):

* **min-floor** — every node is guaranteed a floor (so an idle node
  can still run its manager and ramp back up), feasibility-clamped to
  ``cap / n`` so the floors alone can never oversubscribe the cap;
* **headroom** — a node's request is its measured draw grown by a
  headroom fraction, so rising load finds watts already granted
  instead of throttling for a full epoch;
* **headroom-reclaim** — watts the requests leave unused are reclaimed
  and redistributed to the busy nodes in proportion to their demand
  (idle nodes keep only their floor's worth of slack);
* **shares-per-watt scaling** — when requests oversubscribe the cap,
  everyone keeps the floor and the remaining watts are divided in
  proportion to each node's above-floor request.

Conservation is the invariant the fleet's safety rests on: the sum of
apportioned budgets never exceeds the cap.  It is asserted inside
:meth:`BudgetAllocator.apportion` itself, property-tested over random
load vectors, and re-checked per epoch by the fleet tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Sequence

__all__ = ["BudgetAllocator", "NodeDemand"]

#: Default per-node guaranteed floor, in watts.
DEFAULT_MIN_FLOOR_W = 10.0

#: Default headroom fraction granted above measured demand.
DEFAULT_HEADROOM_FRAC = 0.25


@dataclass(frozen=True)
class NodeDemand:
    """One node's demand signal for an epoch re-negotiation.

    Attributes:
        node_id: The reporting node.
        power_w: Average power drawn over the epoch (0.0 when idle).
        throughput_ips: Aggregate instructions/s over the epoch.
        sessions: Active sessions hosted on the node.
        launches: Launches processed during the epoch.
    """

    node_id: str
    power_w: float = 0.0
    throughput_ips: float = 0.0
    sessions: int = 0
    launches: int = 0


class BudgetAllocator:
    """Apportions a global power cap into per-node budgets.

    Args:
        cap_w: The global cap, in watts (must be positive).
        min_floor_w: Guaranteed per-node floor; clamped to ``cap / n``
            at apportion time so floors stay feasible at any fleet
            size.
        headroom_frac: Fraction of measured demand granted on top of
            it, so load growth finds watts already in place.
    """

    def __init__(
        self,
        cap_w: float,
        *,
        min_floor_w: float = DEFAULT_MIN_FLOOR_W,
        headroom_frac: float = DEFAULT_HEADROOM_FRAC,
    ) -> None:
        if cap_w <= 0:
            raise ValueError("cap_w must be positive")
        if min_floor_w <= 0:
            raise ValueError("min_floor_w must be positive")
        if headroom_frac < 0:
            raise ValueError("headroom_frac must be non-negative")
        self.cap_w = cap_w
        self.min_floor_w = min_floor_w
        self.headroom_frac = headroom_frac

    def apportion(self, demands: Sequence[NodeDemand]) -> Dict[str, float]:
        """One epoch's budgets, keyed by node id.

        Pure and deterministic: the same demand vector always produces
        the same budgets.  Every budget is at least the (feasible)
        floor and the budgets always conserve the cap.

        Raises:
            ValueError: On duplicate node ids.
        """
        if not demands:
            return {}
        ids = [d.node_id for d in demands]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate node ids in demand vector")
        n = len(demands)
        floor = min(self.min_floor_w, self.cap_w / n)
        requests = {
            d.node_id: max(d.power_w * (1.0 + self.headroom_frac), floor)
            for d in demands
        }
        requested = math.fsum(requests.values())

        if requested <= self.cap_w:
            # Under-subscribed: grant every request, then reclaim the
            # leftover headroom for the busy nodes, pro-rata by demand
            # (idle fleets split it evenly).
            leftover = self.cap_w - requested
            weight = math.fsum(d.power_w for d in demands)
            budgets = {}
            for d in demands:
                share = d.power_w / weight if weight > 0 else 1.0 / n
                budgets[d.node_id] = requests[d.node_id] + leftover * share
        else:
            # Over-subscribed: floors are sacred, the remaining watts
            # split in proportion to each node's above-floor request
            # (shares-per-watt).
            spare = self.cap_w - floor * n
            deficit = math.fsum(r - floor for r in requests.values())
            budgets = {
                node_id: floor + spare * ((request - floor) / deficit)
                for node_id, request in requests.items()
            }

        total = math.fsum(budgets.values())
        if total > self.cap_w:
            # Float rounding can land a hair above the cap; shave the
            # whole vector by one part in 1e12 (sub-microwatt at any
            # realistic cap) so conservation holds exactly.
            scale = (self.cap_w / total) * (1.0 - 1e-12)
            budgets = {node_id: b * scale for node_id, b in budgets.items()}
        assert math.fsum(budgets.values()) <= self.cap_w, (
            "budget conservation violated: apportioned more than the cap"
        )
        return budgets
