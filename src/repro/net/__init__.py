"""Network substrate: protocol messages, bandwidth/latency accounting,
the coordinator↔site endpoint contract, and a real TCP transport
(site servers in threads or processes, one asyncio client)."""

from .aio import AsyncLocalEndpoint, AsyncRemoteSiteProxy
from .message import MessageKind, Quaternion, decode_tuple, encode_tuple
from .stats import LatencyModel, NetworkStats, ProgressEvent, ProgressLog
from .trace import ProtocolTracer, TraceRecord, load_trace, summarize_trace
from .transport import CallRecord, EndpointInterceptor, RecordingEndpoint, SiteEndpoint

__all__ = [
    "AsyncLocalEndpoint",
    "AsyncRemoteSiteProxy",
    "MessageKind",
    "Quaternion",
    "encode_tuple",
    "decode_tuple",
    "LatencyModel",
    "NetworkStats",
    "ProgressEvent",
    "ProgressLog",
    "SiteEndpoint",
    "EndpointInterceptor",
    "RecordingEndpoint",
    "CallRecord",
    "ProtocolTracer",
    "TraceRecord",
    "load_trace",
    "summarize_trace",
]
