"""The four workloads, by the names ``BENCHMARK.json`` declares."""

from .remote_wan import RemoteWan
from .serve_mix import ServeMix
from .solo_anticorr import SoloAnticorr
from .stream_sliding import StreamSliding

REGISTRY = {cls.name: cls for cls in (SoloAnticorr, ServeMix, RemoteWan, StreamSliding)}
