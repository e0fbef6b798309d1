"""Declarative workload engine: demand dynamics as replayable data.

Build a :class:`~repro.workloads.spec.WorkloadSpec` (population + seeded
flash-crowd / Zipf / diurnal events), serialise it to JSON, and compile it
onto any scenario with :class:`~repro.workloads.runner.WorkloadRunner` — see
DESIGN.md §15.
"""

# Only for bench/, which imports these from the package (ROADMAP 3(d)).
from .runner import WorkloadRunner, control_bytes
from .spec import WorkloadSpec

__all__ = ["WorkloadRunner", "WorkloadSpec", "control_bytes"]
