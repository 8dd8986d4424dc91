"""Job service over the artifact store (``ompdart serve``).

The pipeline's execution surface is split in five:

* :mod:`repro.service.core` — the worker runtime shared by every
  concurrent driver: one pass manager per worker process, bound to
  its pool's cache directory (and optionally a remote store node),
  typed job specs keyed by content hash, and
  :func:`~repro.service.core.dispatch_map`, the ordered
  ``fn(manager, item)`` map that every batch and suite run, serial or
  pooled, goes through.
* :mod:`repro.service.supervisor` — the one process pool, behind
  serve, ``batch -j`` and ``suite -j`` alike: worker crash detection
  and respawn under a restart budget, in-flight job retry with
  exponential backoff, poison-job quarantine, and hard cancellation
  (SIGINT, then SIGKILL after a grace period).
* :mod:`repro.service.faults` — deterministic seed-driven fault
  injection (worker kills, spill corruption, wedged workers) threaded
  through worker init; drives the ``ompdart chaos`` harness.
* :mod:`repro.service.scheduler` — the asyncio front: submit/await
  jobs with bounded concurrency on a supervised pool of its own;
  duplicate submissions (same content hash) coalesce onto one running
  job.
* :mod:`repro.service.server` — a small HTTP/1.1 facade over the
  scheduler (``POST /jobs``, ``GET /jobs/<key>``, ``DELETE
  /jobs/<key>``, ``POST /run``, ``GET /stats``).

``repro.pipeline.batch`` and ``repro.suite.runner`` are thin clients
of the same core, so a pooled batch run, a pooled suite sweep and a
served job all execute in the same supervised worker loop.  Every
item, serial or pooled, runs on a pass manager built by one function
over the run's cache directory, so batch, suite and serve share
artifacts through it.
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
