"""Experiment harness: figure/table builders and reporting."""

from .benchjson import (
    BENCH_SERVING_SCHEMA,
    SubmitTimer,
    build_bench_serving,
    percentile,
    scenario_record,
    write_bench_serving,
)
from .campaign import (
    CampaignRecord,
    CampaignResult,
    render_campaign,
    run_campaign,
)
from .dashboard import (
    counter_rows,
    histogram_rows,
    render_dashboard,
    span_rows,
)
from .export import result_rows, to_csv, to_json
from .figures import (
    Fig1Point,
    Fig10Series,
    Fig11Point,
    Fig12Result,
    build_fig1,
    build_fig10,
    build_fig11,
    build_fig12,
)
from .fleet_top import render_fleet_top
from .nsight import (
    MetricDelta,
    profile_deltas,
    render_profile_diff,
    speedup_narrative,
)
from .overhead import (
    PAPER_TOTALS,
    OverheadBreakdown,
    measured_overhead,
    paper_overhead_model,
    plan_stats_rows,
    preprocessing_rows,
)
from .report import (
    render_fig1,
    render_fig10,
    render_fig11,
    render_fig12,
    render_overhead,
    render_preprocessing,
    render_table,
    render_table2,
    render_table3,
)
from .serving import render_serving, serving_rows
from .sensitivity import (
    AXES,
    SensitivityPoint,
    perturbed_device,
    render_sensitivity,
    run_sensitivity,
)
from .speedup import (
    SYSTEM_NAMES,
    WorkloadTiming,
    avg_and_max_speedup,
    run_workload,
)
from .tables import Table2Row, Table3Cell, build_table2, build_table3
from .verification import (
    VerificationRecord,
    VerificationReport,
    render_verification,
    run_verification,
)

__all__ = [
    "BENCH_SERVING_SCHEMA",
    "SubmitTimer",
    "build_bench_serving",
    "percentile",
    "scenario_record",
    "write_bench_serving",
    "CampaignRecord",
    "CampaignResult",
    "render_campaign",
    "run_campaign",
    "counter_rows",
    "histogram_rows",
    "render_dashboard",
    "span_rows",
    "result_rows",
    "to_csv",
    "to_json",
    "render_fleet_top",
    "Fig1Point",
    "Fig10Series",
    "Fig11Point",
    "Fig12Result",
    "build_fig1",
    "build_fig10",
    "build_fig11",
    "build_fig12",
    "MetricDelta",
    "profile_deltas",
    "render_profile_diff",
    "speedup_narrative",
    "PAPER_TOTALS",
    "OverheadBreakdown",
    "measured_overhead",
    "paper_overhead_model",
    "plan_stats_rows",
    "preprocessing_rows",
    "render_fig1",
    "render_fig10",
    "render_fig11",
    "render_fig12",
    "render_overhead",
    "render_preprocessing",
    "render_table",
    "render_table2",
    "render_table3",
    "render_serving",
    "serving_rows",
    "AXES",
    "SensitivityPoint",
    "perturbed_device",
    "render_sensitivity",
    "run_sensitivity",
    "SYSTEM_NAMES",
    "WorkloadTiming",
    "avg_and_max_speedup",
    "run_workload",
    "Table2Row",
    "Table3Cell",
    "build_table2",
    "build_table3",
    "VerificationRecord",
    "VerificationReport",
    "render_verification",
    "run_verification",
]
