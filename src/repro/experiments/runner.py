"""Run every reproduced table and figure and print/collect the results.

``python -m repro.experiments.runner`` regenerates all of the paper's
tables and figures in one pass (sharing one context, so each policy run
happens once) and prints them in order.  With ``--jobs N`` the full
app x policy simulation matrix is prefetched through the
:class:`~repro.engine.core.ExperimentEngine` on ``N`` worker processes;
results are content-hash cached on disk, so a rerun is nearly free::

    python -m repro.experiments.runner --jobs 4
    python -m repro.experiments.runner fig8 fig9 --no-cache
"""

from __future__ import annotations

import argparse
import logging
import time
from typing import Callable, Dict, List, Optional, Sequence

from repro.experiments import (
    ablation_design,
    ablation_horizon,
    fig2_scaling,
    fig3_throughput,
    fig4_limit_study,
    fig7_search_order,
    fig8_mpc_vs_turbo,
    fig9_mpc_vs_ppk,
    fig10_gpu_energy,
    fig11_amortization,
    fig12_theoretical_limit,
    fig13_prediction_error,
    fig14_overheads,
    fig15_horizon,
    headline,
    tables,
)
from repro.experiments.common import ExperimentContext, ExperimentTable

__all__ = ["ALL_EXPERIMENTS", "run_all", "main"]

#: Progress/diagnostics go through logging (tables stay on stdout: they
#: are the program's output, not commentary about it).
logger = logging.getLogger("repro.experiments.runner")

#: Every experiment, in the paper's presentation order.
ALL_EXPERIMENTS: Dict[str, Callable[[ExperimentContext], ExperimentTable]] = {
    "table1": tables.table1,
    "table2": tables.table2,
    "fig2": fig2_scaling.fig2,
    "fig3": fig3_throughput.fig3,
    "fig4": fig4_limit_study.fig4,
    "table3": tables.table3,
    "table4": tables.table4,
    "fig7": fig7_search_order.fig7,
    "fig8": fig8_mpc_vs_turbo.fig8,
    "fig9": fig9_mpc_vs_ppk.fig9,
    "fig10": fig10_gpu_energy.fig10,
    "fig11": fig11_amortization.fig11,
    "fig12": fig12_theoretical_limit.fig12,
    "fig13": fig13_prediction_error.fig13,
    "fig14": fig14_overheads.fig14,
    "fig15": fig15_horizon.fig15,
    "headline": headline.headline_table,
    "ablation": ablation_horizon.ablation,
    "ablation_search_order": ablation_design.ablation_search_order,
    "ablation_window_reserve": ablation_design.ablation_window_reserve,
    "ablation_overhead_hiding": ablation_design.ablation_overhead_hiding,
}


def run_all(
    ctx: Optional[ExperimentContext] = None,
    only: Optional[Sequence[str]] = None,
    echo: bool = True,
) -> List[ExperimentTable]:
    """Run the selected experiments and return their tables.

    Args:
        ctx: Shared context; a fresh one is created when omitted.
        only: Experiment keys to run (defaults to all, in order).
        echo: Whether to print each table as it completes.

    Returns:
        The produced tables, in run order.
    """
    ctx = ctx if ctx is not None else ExperimentContext()
    keys = list(only) if only is not None else list(ALL_EXPERIMENTS)
    unknown = [key for key in keys if key not in ALL_EXPERIMENTS]
    if unknown:
        raise KeyError(
            f"unknown experiment {unknown[0]!r}; known: {', '.join(ALL_EXPERIMENTS)}"
        )
    if ctx.engine is not None:
        from repro.experiments.matrix import requests_for

        requests = requests_for(keys, ctx)
        logger.info(
            "prefetching %d runs for %d experiments (jobs=%d)",
            len(requests), len(keys), ctx.engine.jobs,
        )
        ctx.engine.prefetch(ctx, requests)
    results: List[ExperimentTable] = []
    for key in keys:
        start = time.perf_counter()
        table = ALL_EXPERIMENTS[key](ctx)
        logger.info("%s done in %.2fs", key, time.perf_counter() - start)
        results.append(table)
        if echo:
            print(table.format())
            print()
    return results


def build_parser() -> argparse.ArgumentParser:
    """Argument parser for the runner's command line."""
    parser = argparse.ArgumentParser(
        prog="repro.experiments.runner",
        description="Regenerate the paper's tables and figures.",
    )
    parser.add_argument(
        "keys", nargs="*", metavar="experiment",
        help="experiment keys to run (default: all, in paper order)",
    )
    parser.add_argument(
        "-j", "--jobs", type=int, default=1,
        help="worker processes for the simulation matrix (default: 1)",
    )
    parser.add_argument(
        "--cache-dir", default=None,
        help="engine/model cache directory (default: .cache)",
    )
    parser.add_argument(
        "--no-cache", action="store_true",
        help="neither read nor write the on-disk result cache",
    )
    parser.add_argument(
        "--stats", action="store_true",
        help="log engine cache/compute statistics at the end",
    )
    parser.add_argument(
        "--log-level", default="info",
        choices=("debug", "info", "warning", "error"),
        help="threshold for the repro.* logging hierarchy (default: info)",
    )
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Command-line entry point; returns the process exit code."""
    from repro.engine import DEFAULT_CACHE_DIR, ExperimentEngine

    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=getattr(logging, args.log_level.upper()),
        format="%(levelname)s %(name)s: %(message)s",
    )
    cache_dir = args.cache_dir if args.cache_dir is not None else DEFAULT_CACHE_DIR
    engine = ExperimentEngine(
        jobs=args.jobs, cache_dir=cache_dir, use_cache=not args.no_cache
    )
    ctx = ExperimentContext(cache_dir=cache_dir, engine=engine)
    run_all(ctx, only=args.keys or None)
    if args.stats:
        logger.info("%s", engine.stats.format())
    return 0


if __name__ == "__main__":
    import sys

    sys.exit(main())
