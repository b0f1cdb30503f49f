"""Performance modeling for LLM prefill serving with offloaded KV caches.

The package is organized around five layers:

* :mod:`kvroof.catalog` holds model and hardware specifications and derives
  KV bytes and FLOPs per token.
* :mod:`kvroof.analytics` provides the closed-form critical ratio, the
  latency split (:func:`ttft`) and the VRAM concurrency limit.
* :mod:`kvroof.roofline` sweeps attainable throughput over the
  cached-to-new token ratio.
* :mod:`kvroof.workload` expands traces to request records and synthesizes
  timed streams.
* :mod:`kvroof.simulator` replays streams through an iteration-level
  scheduler with a shared transfer channel and a VRAM pool.
"""

__version__ = "0.1.0"
