"""Per-table/figure reproduction experiments.

Each module regenerates one table or figure of the paper from the
reproduced system; :mod:`~repro.experiments.runner` runs them all.  See
DESIGN.md for the experiment index and EXPERIMENTS.md for
paper-vs-measured results.
"""

from repro.experiments.common import ExperimentContext, ExperimentTable

__all__ = ["ExperimentContext", "ExperimentTable"]
