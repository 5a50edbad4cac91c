"""Observability: request tracing, always-on histograms, structured logging.

See :mod:`repro.obs.trace` for the span model and propagation seams,
:mod:`repro.obs.histogram` for the always-on per-span-name histograms every
timed site records into, :mod:`repro.obs.log` for trace-stamped JSON logging,
and :mod:`repro.obs.slowlog` for the gateway's bounded slow-request log.
"""

from .histogram import BUCKETS, Histograms, span_histograms, timed
from .log import JsonFormatter, configure_json_logging, get_logger
from .slowlog import SlowRequestLog
from .trace import (
    Span,
    SpanContext,
    activate,
    as_context,
    current_span,
    new_span_id,
    new_trace_id,
    span,
    timed_span,
    valid_trace_id,
)

__all__ = [
    "BUCKETS",
    "Histograms",
    "JsonFormatter",
    "SlowRequestLog",
    "Span",
    "SpanContext",
    "activate",
    "as_context",
    "configure_json_logging",
    "current_span",
    "get_logger",
    "new_span_id",
    "new_trace_id",
    "span",
    "span_histograms",
    "timed",
    "timed_span",
    "valid_trace_id",
]
