"""Zero-dependency observability: telemetry registry + JSONL trace sink.

``repro.obs`` sits below every other layer (it imports nothing from the
rest of the package) and gives the pipeline one shared language for
"what happened and how long did it take": counters, gauges,
fixed-bucket histograms and hierarchical tracing spans, aggregated
process-locally and merged across ProcessPool workers.  See
:mod:`repro.obs.telemetry` for the registry,
:mod:`repro.obs.sink` for the ``--trace-out`` JSONL schema and the
structured access log, :mod:`repro.obs.expo` for Prometheus text
exposition, :mod:`repro.obs.slo` for sliding-window SLO tracking and
:mod:`repro.obs.flightrec` for the slow-query flight recorder.
"""

from .expo import (
    parse_prometheus_text,
    prometheus_name,
    render_prometheus,
    sample_value,
)
from .flightrec import FlightRecord, FlightRecorder
from .sink import (
    EVENT_TYPES,
    AccessLogWriter,
    read_trace,
    trace_events,
    validate_trace_file,
    validate_trace_lines,
    write_trace,
)
from .slo import DEFAULT_WINDOWS, SLOConfig, SLOTracker, nearest_rank
from .telemetry import (
    DEFAULT_LATENCY_BOUNDS,
    SCHEMA_VERSION,
    Histogram,
    RequestContext,
    Span,
    SpanRecord,
    Telemetry,
    current_request,
    get_telemetry,
    set_request,
    set_telemetry,
    use_request,
    use_telemetry,
    walk_span_tree,
)

__all__ = [
    "AccessLogWriter",
    "DEFAULT_LATENCY_BOUNDS",
    "DEFAULT_WINDOWS",
    "EVENT_TYPES",
    "FlightRecord",
    "FlightRecorder",
    "Histogram",
    "RequestContext",
    "SCHEMA_VERSION",
    "SLOConfig",
    "SLOTracker",
    "Span",
    "SpanRecord",
    "Telemetry",
    "current_request",
    "get_telemetry",
    "nearest_rank",
    "parse_prometheus_text",
    "prometheus_name",
    "read_trace",
    "render_prometheus",
    "sample_value",
    "set_request",
    "set_telemetry",
    "trace_events",
    "use_request",
    "use_telemetry",
    "validate_trace_file",
    "validate_trace_lines",
    "walk_span_tree",
    "write_trace",
]
