"""Benchmark harness: experiment runners for every table and figure."""

from .ablations import (
    cache_capacity_sweep,
    displacement_limit_sweep,
    offpath_platform_check,
)
from .experiments import (
    figure2_latency,
    figure3_batching,
    figure4_dma,
    figure8a_tpcc_new_order,
    figure8b_tpcc_full,
    figure8c_retwis,
    figure8d_smallbank,
    figure9a_throughput_ablation,
    figure9b_latency_ablation,
    offpath_comparison,
    table1_cores,
    table2_lookup,
    table3_thread_counts,
)
from .chaos import DEFAULT_CHAOS_FAULTS, ChaosResult, run_chaos
from .parallel import fan_out
from .report import (diff_lines, format_table, print_curves, print_table,
                     run_row)
from .runner import (Bench, RunResult, run_sweep, to_jsonable,
                     workload_by_name, write_results_json)
from .slo import (OpenLoopBench, SloPoint, SloSpec, detect_knee,
                  format_slo_report, run_slo_point, run_slo_points,
                  slo_report)

__all__ = [
    "Bench",
    "RunResult",
    "run_sweep",
    "figure2_latency",
    "figure3_batching",
    "figure4_dma",
    "table1_cores",
    "table2_lookup",
    "figure8a_tpcc_new_order",
    "figure8b_tpcc_full",
    "figure8c_retwis",
    "figure8d_smallbank",
    "table3_thread_counts",
    "figure9a_throughput_ablation",
    "figure9b_latency_ablation",
    "offpath_comparison",
    "cache_capacity_sweep",
    "displacement_limit_sweep",
    "offpath_platform_check",
    "format_table",
    "print_table",
    "print_curves",
    "run_row",
    "diff_lines",
    "ChaosResult",
    "run_chaos",
    "DEFAULT_CHAOS_FAULTS",
    "to_jsonable",
    "write_results_json",
    "workload_by_name",
    "SloSpec",
    "SloPoint",
    "OpenLoopBench",
    "run_slo_point",
    "run_slo_points",
    "fan_out",
    "detect_knee",
    "slo_report",
    "format_slo_report",
]
