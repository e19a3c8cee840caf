"""Generate EXPERIMENTS.md: paper-vs-measured for every table/figure.

``python -m repro.experiments.report`` runs every experiment against a
shared context and writes a markdown report recording, per table and
figure, what the paper showed, what this reproduction measures, and the
shape checks that the benchmark harness enforces.
"""

from __future__ import annotations

import io
from typing import Dict, Optional

from repro.experiments import (
    ablation_horizon,
    fig8_mpc_vs_turbo,
    fig9_mpc_vs_ppk,
    fig10_gpu_energy,
    fig11_amortization,
    fig12_theoretical_limit,
    fig13_prediction_error,
    fig14_overheads,
    headline,
)
from repro.experiments.common import ExperimentContext
from repro.experiments.runner import ALL_EXPERIMENTS
from repro.ml.predictors import evaluate_predictor
from repro.workloads.suites import all_benchmarks

__all__ = ["PAPER_NOTES", "generate_report", "write_report"]

#: What the paper reports for each experiment, for side-by-side reading.
PAPER_NOTES: Dict[str, str] = {
    "table1": "Software-visible CPU/NB/GPU DVFS states of the A10-7850K; "
    "reproduced verbatim as model constants.",
    "table2": "Execution patterns of Spmv (A10B10C10), kmeans (AB20) and "
    "hybridsort (ABCDEF1..F9G); reproduced verbatim.",
    "fig2": "Four kernel scaling classes: compute scales ~4x with CUs and "
    "ignores NB; memory saturates from NB2 and scales ~2.4x with CUs; "
    "peak kernels are fastest below 8 CUs; unscalable kernels are flat "
    "with their energy optimum at the smallest configuration.",
    "fig3": "Spmv steps high-to-low, kmeans low-to-high, hybridsort "
    "bounces across kernels and inputs.",
    "fig4": "With perfect knowledge, PPK matches TO on regular benchmarks "
    "and loses up to 48% energy / 46% performance on irregular ones.",
    "table3": "The eight GPU performance counters selected by correlation "
    "clustering; reproduced verbatim.",
    "table4": "15 benchmarks across four pattern categories.",
    "fig7": "Search order (3,2,1,6,5,4) and per-kernel optimization "
    "windows for the worked example; reproduced exactly.",
    "fig8": "MPC: 24.8% energy savings at 1.8% performance loss over "
    "Turbo Core (overheads included); srad is the worst case (-15.7%).",
    "fig9": "MPC vs PPK: 6.6% chip-wide energy savings while improving "
    "performance 9.6%; near-zero deltas on regular benchmarks.",
    "fig10": "GPU-rail savings: 51% for lbm (peak kernels), 3-20% for "
    "most others, ~10% overall; chip-wide savings split 75% CPU / 25% GPU.",
    "fig11": "Non-negligible gains after one re-execution; most of the "
    "steady-state gain after ten.",
    "fig12": "Idealized MPC captures 92% of TO's energy savings and 93% "
    "of its performance gain; slight losses for EigenValue, mis, Spmv.",
    "fig13": "Results only mildly sensitive to prediction accuracy: "
    "Err_15%_10%/Err_5%/Err_0% save 27-28% vs RF's 25%, performance "
    "within ~3 points.",
    "fig14": "Average overhead 0.15% energy / 0.3% performance; maximum "
    "0.53% / 1.2% (Spmv).",
    "fig15": "Long-kernel benchmarks (NBody, lbm, EigenValue, XSBench) "
    "explore the full horizon; short-kernel benchmarks shrink it sharply.",
    "headline": "24.8% energy / -1.8% perf vs Turbo Core; 6.6% energy / "
    "+9.6% perf vs PPK.",
    "ablation": "Full-horizon MPC saves only ~2.6% more energy than "
    "adaptive when overheads are ignored, and collapses to 15.4% savings "
    "at -12.8% performance once they are charged.",
    "ablation_search_order": "(reproduction-specific) isolates the "
    "Section IV-A1a above/below-target window ordering.",
    "ablation_window_reserve": "(reproduction-specific) isolates this "
    "reproduction's whole-window fail-safe reserve, our realization of "
    "Equation 3's window-spanning constraint.",
    "ablation_overhead_hiding": "Section VI-E: 'kernels may be separated "
    "by CPU phases with an available CPU, which can hide the MPC "
    "overheads' — with 2 ms CPU phases the wall-clock overhead vanishes.",
}

#: Known deviations worth flagging in the report.
DEVIATIONS = """\
## Known deviations

* **Magnitudes, not shapes.**  The substrate is an analytical APU model,
  so absolute energies/times differ from the authors' silicon; every
  comparison below is relative, policy-vs-policy on identical ground
  truth.
* **MPC-vs-PPK gap attenuated.**  The direction reproduces (MPC is
  faster than PPK on every irregular benchmark while matching its
  energy), but our PPK loses less than the paper's 8-26% — the tracker
  feedback recovers mispredictions faster on the modelled workloads.
* **CPU/GPU savings split** lands near 90/10 rather than 75/25: the
  modelled Turbo Core busy-waits the CPU at P1, which our MPC fully
  reclaims, while the GPU-side margins are thinner than on real silicon.
* **Adaptive-horizon budget refinement.**  The paper's H_i formula
  compares elapsed time against a uniform i*T_total/N baseline; under
  non-uniform launch times that misreads legitimate, tracker-sanctioned
  slack spending as overhead debt and pins H_i to zero.  We weight the
  baseline by max(time share, instruction share), renormalized to
  T_total (see repro/core/horizon.py).
* **Whole-window reserve.**  Equation 3 constrains the cumulative
  throughput through the window's end; we realize this by reserving
  every undecided window member at its fail-safe estimate, which is what
  lets MPC both guard against upcoming low-throughput phases and borrow
  slack from upcoming high-throughput ones.
* **Hill climbing sweeps knobs to a fixpoint** (bounded passes) rather
  than once: knob interactions (NB x DPM) otherwise strand the search in
  local optima the paper's results don't exhibit.
"""


def _fmt(value: float) -> str:
    return f"{value:.2f}"


def _summary_lines(ctx: ExperimentContext, key: str) -> str:
    """Extra aggregate lines for experiments that have them."""
    out = io.StringIO()
    if key == "fig8":
        s = fig8_mpc_vs_turbo.fig8_summary(ctx)
        out.write(
            f"Measured: MPC saves {_fmt(s['mpc_energy_savings_pct'])}% energy at "
            f"{_fmt(100 * (1 - s['mpc_speedup']))}% performance loss "
            f"(PPK: {_fmt(s['ppk_energy_savings_pct'])}% / "
            f"{_fmt(100 * (1 - s['ppk_speedup']))}%).\n"
        )
    elif key == "fig9":
        s = fig9_mpc_vs_ppk.fig9_summary(ctx)
        out.write(
            f"Measured: MPC vs PPK {_fmt(s['energy_savings_pct'])}% energy, "
            f"{_fmt(100 * (s['speedup'] - 1))}% speedup "
            f"(irregular only: {_fmt(s['irregular_energy_savings_pct'])}% / "
            f"{_fmt(100 * (s['irregular_speedup'] - 1))}%).\n"
        )
    elif key == "fig10":
        s = fig10_gpu_energy.fig10_summary(ctx)
        out.write(
            f"Measured: mean MPC GPU savings {_fmt(s['mpc_gpu_energy_savings_pct'])}%; "
            f"savings split {_fmt(s['cpu_share_of_savings_pct'])}% CPU / "
            f"{_fmt(s['gpu_share_of_savings_pct'])}% GPU.\n"
        )
    elif key == "fig11":
        s = fig11_amortization.fig11_summary(ctx)
        for k, v in s.items():
            out.write(
                f"Measured x{k}: {_fmt(v['energy_savings_pct'])}% energy, "
                f"{v['speedup']:.3f}x vs PPK.\n"
            )
    elif key == "fig12":
        s = fig12_theoretical_limit.fig12_summary(ctx)
        out.write(
            f"Measured: idealized MPC captures {100 * s['energy_capture_ratio']:.0f}% "
            f"of TO's energy savings "
            f"({_fmt(s['mpc_energy_savings_pct'])}% vs {_fmt(s['to_energy_savings_pct'])}%).\n"
        )
    elif key == "fig13":
        s = fig13_prediction_error.fig13_summary(ctx)
        for label, v in s.items():
            out.write(
                f"Measured {label}: {_fmt(v['energy_savings_pct'])}% energy, "
                f"{v['speedup']:.3f}x.\n"
            )
    elif key == "fig14":
        s = fig14_overheads.fig14_summary(ctx)
        out.write(
            f"Measured: mean {s['mean_energy_overhead_pct']:.2f}% energy / "
            f"{s['mean_perf_overhead_pct']:.2f}% performance overhead; max "
            f"{s['max_energy_overhead_pct']:.2f}% / {s['max_perf_overhead_pct']:.2f}%.\n"
        )
    elif key == "headline":
        s = headline.headline_numbers(ctx)
        for metric, value in s.items():
            out.write(f"Measured {metric}: {_fmt(value)}\n")
    elif key == "ablation":
        s = ablation_horizon.ablation_summary(ctx)
        out.write(
            f"Measured: adaptive {_fmt(s['adaptive_energy_savings_pct'])}% / "
            f"{s['adaptive_speedup']:.3f}x vs full-horizon "
            f"{_fmt(s['full_energy_savings_pct'])}% / {s['full_speedup']:.3f}x.\n"
        )
    return out.getvalue()


def generate_report(ctx: Optional[ExperimentContext] = None) -> str:
    """Run every experiment and render the markdown report."""
    ctx = ctx if ctx is not None else ExperimentContext()
    if ctx.engine is not None:
        from repro.experiments.matrix import requests_for

        ctx.engine.prefetch(ctx, requests_for(ALL_EXPERIMENTS, ctx))

    out = io.StringIO()
    out.write("# EXPERIMENTS — paper vs reproduction\n\n")
    out.write(
        "Regenerate with `python -m repro.experiments.report` (or run the\n"
        "benchmark harness: `pytest benchmarks/ --benchmark-only`).  All\n"
        "policies run on the modelled APU of DESIGN.md; comparisons are\n"
        "relative and the *shape* of each result is what is reproduced.\n\n"
    )

    kernels = [k for app in all_benchmarks() for k in app.unique_kernels]
    time_mape, power_mape = evaluate_predictor(ctx.predictor, kernels, apu=ctx.apu)
    out.write(
        "## Prediction model (Section VI-D)\n\n"
        "Paper: Random Forest MAPE 25% (performance) / 12% (power).\n"
        f"Measured: {time_mape:.1f}% / {power_mape:.1f}% over the 15 "
        "benchmarks' kernels x 336 configurations (out-of-sample; the\n"
        "power model of the substrate is smoother than real silicon,\n"
        "hence the lower power error).\n\n"
    )

    for key, experiment in ALL_EXPERIMENTS.items():
        table = experiment(ctx)
        out.write(f"## {table.experiment_id}: {table.title}\n\n")
        note = PAPER_NOTES.get(key)
        if note:
            out.write(f"Paper: {note}\n\n")
        summary = _summary_lines(ctx, key)
        if summary:
            out.write(summary + "\n")
        out.write("```\n")
        out.write(table.format())
        out.write("\n```\n\n")

    out.write(DEVIATIONS)
    return out.getvalue()


def write_report(path: str = "EXPERIMENTS.md",
                 ctx: Optional[ExperimentContext] = None) -> str:
    """Generate the report and write it to ``path``."""
    content = generate_report(ctx)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(content)
    return path


if __name__ == "__main__":
    import sys

    target = sys.argv[1] if len(sys.argv) > 1 else "EXPERIMENTS.md"
    print(f"writing {write_report(target)}")
