"""``repro.fleet`` — fleet-scale simulation under hierarchical budgets.

The paper manages one APU with per-kernel MPC; this package opens the
fleet axis the ROADMAP's north star asks for: many simulated nodes
(each a :class:`~repro.runtime.manager.SessionManager` hosting a slice
of the session population), sharded across the parent process
(``node-0``) and one worker process per other node, under a
datacenter-level power cap that a :class:`BudgetAllocator`
apportions into per-node budgets — re-negotiated on a fixed epoch as
load shifts (shares-per-watt with a min-floor and headroom-reclaim,
after the serverless power-budgeting models in SNIPPETS.md).  Each
node's budget reaches every hosted policy through the runtime's
existing throttle path (``throttle_to_cap``), exactly as the TDP does.

Determinism is the contract (see ``docs/FLEET.md``): same seed + same
shard count ⇒ identical per-session decisions, and a fleet of one
node with no cap reproduces the streaming ``SessionManager`` decisions
float-for-float (asserted by ``tests/fleet/``).
"""

from repro.fleet.budget import BudgetAllocator, NodeDemand
from repro.fleet.node import FleetNode
from repro.fleet.shard import InlineShard, ProcessShard, ShardError
from repro.fleet.sim import EpochRecord, FleetReport, FleetSimulator

__all__ = [
    "BudgetAllocator",
    "EpochRecord",
    "FleetNode",
    "FleetReport",
    "FleetSimulator",
    "InlineShard",
    "NodeDemand",
    "ProcessShard",
    "ShardError",
]
