"""Walk-as-a-service: the `repro serve` daemon.

Long-lived serving over one prepared temporal graph on one thread: a
stdlib ``selectors`` HTTP loop parks each walk query in a bounded queue
with admission control and, once per ``select`` round, executes what
is parked as one natural batch, merging compatible queries into single
lane-seeded frontier runs (bit-identical to solo execution). See
``docs/serving.md``.
"""

from repro.serve.batcher import Batcher, PendingRequest
from repro.serve.client import ServeClient
from repro.serve.executor import BatchExecutor
from repro.serve.protocol import SERVE_SCHEMA, WalkRequest, build_spec
from repro.serve.server import WalkService
from repro.serve.streaming import StreamService

__all__ = [
    "Batcher",
    "BatchExecutor",
    "PendingRequest",
    "ServeClient",
    "SERVE_SCHEMA",
    "StreamService",
    "WalkRequest",
    "WalkService",
    "build_spec",
]
