"""Performance modeling for LLM prefill serving with offloaded KV caches.

The package is organized around five layers:

* :mod:`kvroof.catalog` holds model and hardware specifications and derives
  KV bytes and FLOPs per token.
* :mod:`kvroof.analytics` provides the closed-form latency, concurrency,
  and critical-ratio formulas; :func:`ttft` returns the latency split with
  its utilization and transfer overhead.
* :mod:`kvroof.roofline` sweeps attainable throughput over the
  cached-to-new token ratio.
* :mod:`kvroof.workload` expands traces to request records and synthesizes
  timed streams.
* :mod:`kvroof.simulator` replays streams through an iteration-level
  scheduler with a shared transfer channel and a VRAM pool.
"""

__version__ = "0.1.0"

from .analytics import (
    AnalyticBreakdown,
    ConcurrencyLimit,
    RequestShape,
    SchedTokens,
    arithmetic_intensity,
    kappa_crit,
    kappa_hw,
    kappa_model,
    max_concurrent,
    memory_bound,
    sched_tokens,
    ttft,
)
from .catalog import (
    HardwareSpec,
    ModelSpec,
    by_name,
    default_catalog,
    flops_per_token,
    kv_bytes_per_token,
    load_catalog,
    loads_catalog,
    serialize_catalog,
)
from .errors import CatalogError, KvroofError, RooflineError, SimulationError, WorkloadError
from .roofline import RooflinePoint, RooflineSeries, Regime, attainable_flops, roofline_sweep
from .simulator import (
    IterationStats,
    PolicyComparison,
    SimConfig,
    SimReport,
    compare_policies,
    run_sim,
    schedule_fifo,
    schedule_utilization_aware,
)
from .workload import (
    ConversationTrace,
    ConversationTurn,
    DistributionSummary,
    DocumentTrace,
    FINQA_LIKE,
    NARRATIVEQA_LIKE,
    PROFILES,
    RequestRecord,
    SHAREGPT_LIKE,
    StreamProfile,
    expand_conversation,
    expand_document,
    read_stream,
    summarize,
    synthesize_stream,
    write_stream,
)
