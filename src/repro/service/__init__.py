"""Job service over the artifact store (``ompdart serve``).

The pipeline's execution surface is split in five:

* :mod:`repro.service.core` — the worker runtime shared by every
  concurrent driver: per-process pass managers bound to a cache
  directory (and optionally a remote store node), typed job specs
  keyed by content hash, and the ordered dispatch helpers ``ompdart
  batch`` and the evaluation suite fan out through.
* :mod:`repro.service.supervisor` — the fault-tolerant process pool:
  worker crash detection and respawn under a restart budget, in-flight
  job retry with exponential backoff, poison-job quarantine, and hard
  cancellation (SIGINT, then SIGKILL after a grace period).
* :mod:`repro.service.faults` — deterministic seed-driven fault
  injection (worker kills, spill corruption, wedged workers) threaded
  through worker init; drives the ``ompdart chaos`` harness.
* :mod:`repro.service.scheduler` — the asyncio front: submit/await
  jobs with bounded concurrency; duplicate submissions (same content
  hash) coalesce onto one running job.
* :mod:`repro.service.server` — a small HTTP/1.1 facade over the
  scheduler (``POST /jobs``, ``GET /jobs/<key>``, ``DELETE
  /jobs/<key>``, ``POST /run``, ``GET /stats``).

``repro.pipeline.batch`` and ``repro.suite.runner`` are thin clients
of the same core, so a batch run, a suite sweep and a served job all
execute through identical worker code paths — and share artifacts
through the same cache directory.
"""

from .core import (  # noqa: F401
    BenchmarkJobSpec,
    PingJobSpec,
    SuiteJobSpec,
    TransformJobSpec,
    execute_job,
    spec_from_dict,
)
from .supervisor import (  # noqa: F401
    JobCancelled,
    PoisonJobError,
    PoolExhausted,
    SupervisedPool,
)

__all__ = [
    "BenchmarkJobSpec",
    "JobCancelled",
    "PingJobSpec",
    "PoisonJobError",
    "PoolExhausted",
    "SuiteJobSpec",
    "SupervisedPool",
    "TransformJobSpec",
    "execute_job",
    "spec_from_dict",
]
