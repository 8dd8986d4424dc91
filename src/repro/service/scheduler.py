"""Asyncio job scheduler: submit/await content-addressed jobs.

The scheduler is the async front the pipeline was shaped for: callers
submit :mod:`repro.service.core` job specs and await results, while a
bounded number of jobs execute concurrently on the shared worker
runtime.  Two properties matter:

* **Dedup by content hash.**  A job's identity is the fingerprint of
  its spec (source text, benchmark list, platform set, options — plus
  the package version).  Submitting a spec that is already queued,
  running, or finished coalesces onto the existing job: eight clients
  submitting the same nine-benchmark corpus cost one evaluation.
* **Shared artifact cache.**  With a cache directory, every worker
  executes against the same spill directory, so even *distinct* jobs
  share parse/analysis artifacts for identical inputs.

Every job runs in a worker process of the scheduler's own
:class:`~repro.service.supervisor.SupervisedPool` (crash detection,
respawn, retry with backoff, hard cancellation), the pool ``batch -j``
and ``suite -j`` use too.  A host that cannot start the pool fails
:class:`JobScheduler` construction, and two schedulers in one process
never share a worker runtime.
"""

from __future__ import annotations

import asyncio
import json
import time
from dataclasses import dataclass, field
from typing import Any

from ..pipeline.remote import RemoteCounters
from .core import JobSpec, spec_to_dict
from .metrics import MetricsRegistry
from .supervisor import (
    JobCancelled,
    PoisonJobError,
    PoolExhausted,
    SupervisedPool,
)

__all__ = [
    "Job",
    "JobCancelled",
    "JobScheduler",
    "PoolExhausted",
    "QueueSaturated",
]

#: Job lifecycle states.
QUEUED = "queued"
RUNNING = "running"
DONE = "done"
FAILED = "failed"
CANCELLED = "cancelled"

#: Terminal states: the job will never transition again, its envelope
#: is immutable, and retention/eviction applies.
SETTLED = (DONE, FAILED, CANCELLED)

#: 429 Retry-After estimate (seconds) before any job has finished.
RETRY_AFTER_DEFAULT = 2

#: Most recent evicted job keys remembered for 410 Gone answers; older
#: evictions fall back to 404 (the set itself must not grow forever).
_EVICTED_KEYS_KEPT = 4096


class QueueSaturated(RuntimeError):
    """Admission control: a new job would exceed the queue bound.

    ``retry_after`` is the scheduler's estimate (seconds, >= 1) of when
    capacity frees up — the HTTP front turns it into a 429 with a
    ``Retry-After`` header instead of queueing unboundedly.
    """

    def __init__(self, depth: int, bound: int, retry_after: int):
        super().__init__(
            f"job queue saturated ({depth} active >= bound {bound})"
        )
        self.depth = depth
        self.bound = bound
        self.retry_after = retry_after


@dataclass
class Job:
    """One scheduled (possibly coalesced) unit of work."""

    key: str
    spec: JobSpec
    future: "asyncio.Future[Any]"
    state: str = QUEUED
    #: How many submissions coalesced onto this job (1 = no dedup).
    submissions: int = 1
    submitted_at: float = field(default_factory=time.monotonic)
    started_at: float | None = None
    finished_at: float | None = None
    error: str | None = None
    #: Memoized JSON encoding of the result (filled by the HTTP front
    #: the first time a finished job's result is served; evicting the
    #: job drops the bytes with it).
    encoded_result: bytes | None = None
    #: Memoized ``spec_to_dict`` — the spec is frozen, so the dict is
    #: computed once instead of per poll/listing (it shows up hot in
    #: the serve profile otherwise).
    _spec_dict: dict[str, Any] | None = None
    #: Memoized describe() JSON, split around the submissions count —
    #: the only field that changes between polls of a settled state.
    _env_state: str | None = None
    _env_head: bytes = b""
    _env_tail: bytes = b""
    #: The pool's handle for this job (None before dispatch) — carries
    #: the hard-cancel hook.
    pool_job: Any = None
    #: The asyncio task driving ``_run`` — cancellation target for a
    #: job still queued at the concurrency semaphore.
    task: Any = None

    def spec_dict(self) -> dict[str, Any]:
        if self._spec_dict is None:
            self._spec_dict = spec_to_dict(self.spec)
        return self._spec_dict

    def encoded_envelope(self) -> bytes:
        """``json.dumps(describe())`` bytes, head/tail cached per state.

        Byte-identical to a fresh dump: everything except the
        submissions count is immutable within one job state, so polls
        and duplicate awaiters splice an integer instead of
        re-serializing the spec (which can embed KBs of source).
        """
        if self._env_state != self.state:
            desc = self.describe()
            keys = list(desc)
            cut = keys.index("submissions")
            head = json.dumps({k: desc[k] for k in keys[:cut]})
            tail = json.dumps({k: desc[k] for k in keys[cut + 1:]})
            self._env_head = (head[:-1] + ', "submissions": ').encode()
            self._env_tail = (", " + tail[1:]).encode()
            self._env_state = self.state
        return (
            self._env_head + str(self.submissions).encode() + self._env_tail
        )

    def describe(self, *, include_result: bool = False) -> dict[str, Any]:
        out: dict[str, Any] = {
            "job": self.key,
            "kind": self.spec.kind,
            "state": self.state,
            "submissions": self.submissions,
            "spec": self.spec_dict(),
        }
        if self.started_at is not None and self.finished_at is not None:
            out["elapsed_seconds"] = self.finished_at - self.started_at
        if self.error is not None:
            out["error"] = self.error
        if include_result and self.state == DONE:
            out["result"] = self.future.result()
        return out


class JobScheduler:
    """Bounded-concurrency scheduler over a supervised worker pool."""

    def __init__(
        self,
        *,
        workers: int = 2,
        max_concurrency: int = 8,
        cache_dir: str | None = None,
        max_queue: int = 64,
        job_timeout: float | None = None,
        max_finished: int = 256,
        finished_ttl: float | None = None,
        metrics: MetricsRegistry | None = None,
        job_retries: int = 1,
        retry_backoff: float = 0.05,
        max_worker_restarts: int = 16,
        cancel_grace: float = 2.0,
        retry_after_max: int = 60,
        fault_plan: Any = None,
        store_url: str | None = None,
    ):
        self.cache_dir = cache_dir
        self.max_concurrency = max(1, max_concurrency)
        #: Admission bound: queued+running jobs a new submission may
        #: not push past (coalescing submissions are always admitted).
        self.max_queue = max(1, max_queue)
        #: Per-job timeout (seconds).  It escalates to a *hard* cancel —
        #: SIGINT, then SIGKILL after ``cancel_grace`` — and the job
        #: lands in ``cancelled``.
        self.job_timeout = job_timeout
        #: Seconds between cancel SIGINT and the SIGKILL escalation.
        self.cancel_grace = max(0.0, cancel_grace)
        #: Ceiling the 429 Retry-After estimate is clamped to (long
        #: suite jobs would otherwise tell clients to go away for
        #: minutes).
        self.retry_after_max = max(1, retry_after_max)
        #: Finished-job retention: at most ``max_finished`` DONE/FAILED
        #: jobs kept (LRU by finish time), each for at most
        #: ``finished_ttl`` seconds.  Evicted keys answer 410 Gone.
        self.max_finished = max(0, max_finished)
        self.finished_ttl = finished_ttl
        self._jobs: dict[str, Job] = {}
        self._order: list[str] = []
        self._finished_order: list[str] = []
        self._evicted_keys: dict[str, float] = {}
        self._tasks: set[asyncio.Task] = set()
        self._sem = asyncio.Semaphore(self.max_concurrency)
        self._submitted = 0
        self._deduplicated = 0
        self._executed = 0
        self._failed = 0
        self._rejected = 0
        self._evicted = 0
        self._timed_out = 0
        self._cancelled = 0
        self._poisoned = 0
        self._unavailable = 0
        self._active = 0
        self._wait_seconds = 0.0
        self._wait_samples = 0
        self._run_seconds = 0.0
        self._run_samples = 0
        #: Pool-wide remote-tier counters every worker's client adds to.
        self._remote_counters: RemoteCounters | None = (
            RemoteCounters() if store_url else None
        )
        # Every worker spawns (and readiness-checks) now, before the
        # HTTP front opens any sockets: a worker forked mid-request
        # would inherit live connection fds and keep them open after
        # the parent's close (clients never see EOF).  The supervisor
        # then owns crash retries, respawns and the restart budget;
        # workers read through and publish to the ``store_url`` node.
        self._pool = SupervisedPool(
            max(1, workers),
            cache_dir=cache_dir,
            job_retries=job_retries,
            retry_backoff=retry_backoff,
            max_restarts=max_worker_restarts,
            cancel_grace=self.cancel_grace,
            fault_plan=fault_plan,
            store_url=store_url,
            remote_counters=self._remote_counters,
        )
        self._closed = False
        self.metrics: MetricsRegistry | None = None
        self._job_latency = None
        if metrics is not None:
            self.bind_metrics(metrics)

    # -- submission ------------------------------------------------------

    async def submit(self, spec: JobSpec) -> Job:
        """Enqueue ``spec``; duplicate content hashes coalesce.

        Raises :class:`QueueSaturated` when admitting a *new* job would
        push the queued+running depth past ``max_queue``; coalescing
        onto an existing job never adds load and is always admitted.
        """
        if self._closed:
            raise RuntimeError("scheduler is closed")
        key = spec.key()
        self._submitted += 1
        job = self._jobs.get(key)
        if job is not None and job.state not in (FAILED, CANCELLED):
            job.submissions += 1
            self._deduplicated += 1
            self._count_job("deduplicated")
            return job
        if self._pool.exhausted:
            # Restart budget spent, no workers left: fail fast with a
            # clean 503 instead of queueing work that cannot run.
            self._submitted -= 1
            self._unavailable += 1
            self._count_job("unavailable")
            raise PoolExhausted(
                "worker restart budget spent and no workers remain"
            )
        if self._active >= self.max_queue:
            self._submitted -= 1  # rejected, not accepted-then-lost
            self._rejected += 1
            self._count_job("rejected")
            raise QueueSaturated(
                self._active, self.max_queue, self._retry_after()
            )
        loop = asyncio.get_running_loop()
        job = Job(key=key, spec=spec, future=loop.create_future())
        self._jobs[key] = job
        self._evicted_keys.pop(key, None)  # resubmit revives the key
        if key not in self._order:  # failed-job resubmits reuse the slot
            self._order.append(key)
        self._active += 1
        self._count_job("accepted")
        task = asyncio.create_task(self._run(job))
        job.task = task
        # Keep a strong reference: the event loop only holds weak ones,
        # and a GC'd task would strand the job in "queued" forever.
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)
        return job

    def bind_metrics(self, registry: MetricsRegistry) -> None:
        """Register scheduler metrics on ``registry``.

        Called from ``__init__`` when a registry is passed, or later by
        the HTTP front when it creates the shared registry itself.
        """
        self.metrics = registry
        self._job_latency = registry.histogram(
            "ompdart_job_duration_seconds",
            "Job execution latency by kind and outcome.",
            ("kind", "outcome"),
        )
        registry.gauge(
            "ompdart_queue_depth",
            "Jobs queued or running right now.",
            lambda: self._active,
        )
        registry.counter(
            "ompdart_jobs_total",
            "Job submissions by disposition.",
            ("disposition",),
        )
        registry.gauge(
            "ompdart_workers_alive",
            "Worker processes alive in the supervised pool.",
            lambda: self._pool_stat("alive"),
        )
        registry.gauge(
            "ompdart_worker_restarts",
            "Worker respawns consumed from the restart budget.",
            lambda: self._pool_stat("restarts"),
        )
        registry.gauge(
            "ompdart_job_crash_retries",
            "Jobs re-dispatched after their worker died.",
            lambda: self._pool_stat("retries"),
        )
        registry.gauge(
            "ompdart_cancel_kills",
            "Workers SIGKILLed after the cancel grace period.",
            lambda: self._pool_stat("cancel_kills"),
        )
        registry.gauge(
            "ompdart_remote_breaker_open",
            "1 while the remote-store circuit breaker is open.",
            lambda: int(self.remote_breaker_open()),
        )
        registry.gauge(
            "ompdart_remote_degraded_ops",
            "Remote store operations skipped while the breaker was open.",
            lambda: self._remote_stat("degraded"),
        )
        registry.gauge(
            "ompdart_degraded",
            "Count of active degraded-health reasons (0 = healthy).",
            lambda: len(self.degraded_reasons()),
        )

    def _remote_stat(self, name: str) -> int:
        if self._remote_counters is None:
            return 0
        return self._remote_counters.snapshot()[name]

    def _pool_stat(self, name: str) -> int:
        return int(self._pool.stats()[name])

    def _count_job(self, disposition: str) -> None:
        if self.metrics is not None:
            self.metrics.counter(
                "ompdart_jobs_total",
                "Job submissions by disposition.",
                ("disposition",),
            ).inc(disposition=disposition)

    def _retry_after(self) -> int:
        """Seconds a 429'd client should back off: roughly one mean
        job execution, defaulting to :data:`RETRY_AFTER_DEFAULT` before
        anything has finished and clamped to ``retry_after_max`` (a
        run of long suite jobs must not tell clients to vanish for
        minutes)."""
        if self._run_samples:
            estimate = round(self._run_seconds / self._run_samples)
        else:
            estimate = RETRY_AFTER_DEFAULT
        return max(1, min(self.retry_after_max, estimate))

    async def run(self, spec: JobSpec) -> Any:
        """Submit and await in one call (the ``POST /run`` path)."""
        job = await self.submit(spec)
        if job.future.done():
            # Deduped onto a finished job: skip the shield wrapper
            # (result() raises for failed jobs, same as awaiting).
            return job.future.result()
        return await asyncio.shield(job.future)

    def _settle_failure(self, job: Job, exc: BaseException) -> None:
        if not job.future.done():
            job.future.set_exception(exc)
            # Awaiters may come later (POST then poll); don't warn
            # about unconsumed exceptions in the meantime.
            job.future.exception()

    async def _run(self, job: Job) -> None:
        result: Any = None
        ok = False
        try:
            async with self._sem:
                job.state = RUNNING
                job.started_at = time.monotonic()
                self._wait_seconds += job.started_at - job.submitted_at
                self._wait_samples += 1
                try:
                    # Worker crashes retry inside the pool; the future
                    # settles with the result, JobCancelled,
                    # PoisonJobError, or PoolExhausted — never a broken
                    # pool.
                    job.pool_job = self._pool.submit_spec(job.spec)
                    result = await asyncio.wait_for(
                        asyncio.wrap_future(job.pool_job.future),
                        self.job_timeout,
                    )
                    ok = True
                except TimeoutError:
                    # Hard escalation: SIGINT the worker, SIGKILL after
                    # the grace period, respawn.  The job is
                    # *cancelled*, not failed — the computation was
                    # interrupted, not wrong.
                    self._timed_out += 1
                    job.pool_job.cancel(self.cancel_grace)
                    job.state = CANCELLED
                    job.error = (
                        f"job timed out after {self.job_timeout:g}s "
                        f"(cancelled; {self.cancel_grace:g}s kill grace)"
                    )
                    self._cancelled += 1
                    self._count_job("cancelled")
                    self._settle_failure(job, JobCancelled(job.error))
                except JobCancelled as exc:
                    job.state = CANCELLED
                    job.error = str(exc) or "job cancelled"
                    self._cancelled += 1
                    self._count_job("cancelled")
                    self._settle_failure(job, exc)
                except PoisonJobError as exc:
                    # The job killed its worker past the retry bound:
                    # quarantined, never dispatched again (resubmits
                    # start a fresh job with a fresh attempt budget).
                    job.state = FAILED
                    job.error = f"poison: {exc}"
                    self._failed += 1
                    self._poisoned += 1
                    self._count_job("poisoned")
                    self._settle_failure(job, RuntimeError(job.error))
                except PoolExhausted as exc:
                    job.state = FAILED
                    job.error = f"worker pool exhausted: {exc}"
                    self._failed += 1
                    self._unavailable += 1
                    self._count_job("unavailable")
                    self._settle_failure(job, exc)
                except asyncio.CancelledError:
                    raise  # accounted for by the outer handler
                except BaseException as exc:  # noqa: BLE001 - reported
                    job.state = FAILED
                    job.error = f"{type(exc).__name__}: {exc}"
                    self._failed += 1
                    self._settle_failure(
                        job,
                        RuntimeError(job.error)
                        if not isinstance(exc, Exception) else exc,
                    )
                job.finished_at = time.monotonic()
                self._active -= 1
        except asyncio.CancelledError:
            # The driving task was cancelled: DELETE on a queued job
            # (still waiting at the semaphore), or loop teardown.
            # Settle the job as cancelled; propagate per asyncio
            # protocol.
            if job.finished_at is None:
                job.state = CANCELLED
                job.error = "job cancelled"
                self._cancelled += 1
                self._count_job("cancelled")
                if job.pool_job is not None:
                    job.pool_job.cancel(self.cancel_grace)
                self._settle_failure(job, JobCancelled(job.error))
                job.finished_at = time.monotonic()
                self._active -= 1
            elif ok:
                # Cancelled at the semaphore-exit await, after the job
                # already completed: finish it normally.
                job.state = DONE
                self._executed += 1
                if not job.future.done():
                    job.future.set_result(result)
            self._record_finish(job)
            raise
        if ok:
            job.state = DONE
            self._executed += 1
            if not job.future.done():
                job.future.set_result(result)
        self._record_finish(job)

    def _record_finish(self, job: Job) -> None:
        if job.started_at is not None and job.finished_at is not None:
            elapsed = job.finished_at - job.started_at
            self._run_seconds += elapsed
            self._run_samples += 1
            if self._job_latency is not None:
                self._job_latency.observe(
                    elapsed, kind=job.spec.kind, outcome=job.state
                )
        self._finished_order.append(job.key)
        self._evict()

    # -- eviction --------------------------------------------------------

    def _evict(self, *, now: float | None = None) -> None:
        """Drop finished jobs past the LRU bound or their TTL."""
        if now is None:
            now = time.monotonic()
        while len(self._finished_order) > self.max_finished:
            self._evict_one(self._finished_order[0])
        if self.finished_ttl is not None:
            while self._finished_order:
                job = self._jobs.get(self._finished_order[0])
                if job is None or job.finished_at is None:
                    self._finished_order.pop(0)
                    continue
                if now - job.finished_at < self.finished_ttl:
                    break
                self._evict_one(self._finished_order[0])

    def _evict_one(self, key: str) -> None:
        self._finished_order.pop(0)
        job = self._jobs.get(key)
        if job is None or job.state not in SETTLED:
            return  # key was resubmitted and is live again
        del self._jobs[key]
        try:
            self._order.remove(key)
        except ValueError:
            pass
        self._evicted += 1
        self._count_job("evicted")
        self._evicted_keys[key] = time.monotonic()
        while len(self._evicted_keys) > _EVICTED_KEYS_KEPT:
            self._evicted_keys.pop(next(iter(self._evicted_keys)))

    def was_evicted(self, key: str) -> bool:
        """Did ``key`` hold a finished job that retention dropped?"""
        return key in self._evicted_keys

    # -- cancellation ----------------------------------------------------

    async def cancel(self, key: str, *, grace: float | None = None) -> Job | None:
        """Hard-cancel the job at ``key`` (the ``DELETE /jobs`` path).

        A running job's worker gets SIGINT, then SIGKILL after
        ``grace`` seconds; queued jobs settle immediately.  Waits (bounded) for the job to settle
        so the caller can serve the final envelope.  Returns ``None``
        for unknown keys; a job already settled is returned unchanged —
        the caller distinguishes that case (409) by checking the state
        before calling.
        """
        job = self._jobs.get(key)
        if job is None:
            return None
        if job.state in SETTLED:
            return job
        grace = self.cancel_grace if grace is None else max(0.0, grace)
        if job.pool_job is not None:
            job.pool_job.cancel(grace)
        elif job.task is not None:
            job.task.cancel()
        try:
            await asyncio.wait_for(
                asyncio.shield(job.future), grace + 2.0
            )
        except Exception:  # noqa: BLE001 - JobCancelled/timeout expected;
            pass  # the envelope reports the outcome either way
        return job

    def get(self, key: str) -> Job | None:
        return self._jobs.get(key)

    def jobs(self) -> list[Job]:
        return [self._jobs[key] for key in self._order]

    # -- observability ---------------------------------------------------

    def stats(self) -> dict[str, Any]:
        states: dict[str, int] = {}
        for job in self._jobs.values():
            states[job.state] = states.get(job.state, 0) + 1
        out: dict[str, Any] = {
            "submitted": self._submitted,
            "deduplicated": self._deduplicated,
            "executed": self._executed,
            "failed": self._failed,
            "rejected": self._rejected,
            "evicted": self._evicted,
            "timed_out": self._timed_out,
            "cancelled": self._cancelled,
            "poisoned": self._poisoned,
            "unavailable": self._unavailable,
            "queue_depth": self._active,
            "max_queue": self.max_queue,
            "jobs": states,
            "max_concurrency": self.max_concurrency,
            "cache_dir": self.cache_dir,
            "latency": {
                "queue_wait_mean_s": (
                    self._wait_seconds / self._wait_samples
                    if self._wait_samples else 0.0
                ),
                "run_mean_s": (
                    self._run_seconds / self._run_samples
                    if self._run_samples else 0.0
                ),
                "samples": self._run_samples,
            },
            "supervisor": self._pool.stats(),
        }
        if self._remote_counters is not None:
            out["remote"] = self._remote_counters.snapshot()
        reasons = self.degraded_reasons()
        if reasons:
            out["degraded_reasons"] = reasons
        return out

    def remote_breaker_open(self) -> bool:
        """Is the remote-store circuit breaker open pool-wide?

        "Currently open" is derived from the monotonic open/close
        counters (opens > closes): worker processes cannot share a
        state enum, but every transition bumps a shared counter.
        """
        if self._remote_counters is None:
            return False
        view = self._remote_counters.snapshot()
        return view["breaker_opens"] > view["breaker_closes"]

    def degraded_reasons(self) -> list[str]:
        """Why this node is degraded-but-serving (empty = healthy).

        Degraded is not down: jobs still run, but a redundancy layer
        has been consumed or a remote dependency is being skipped.
        ``/healthz`` reports these without turning 503.
        """
        reasons: list[str] = []
        pool = self._pool.stats()
        if pool["exhausted"]:
            reasons.append("worker restart budget spent and no workers remain")
        elif pool["restarts"] >= pool["max_restarts"] > 0:
            reasons.append("worker restart budget spent")
        if self.remote_breaker_open():
            reasons.append("remote store circuit breaker open")
        return reasons

    # -- lifecycle -------------------------------------------------------

    async def aclose(self) -> None:
        """Shut the pool down and wait for its stop sequence.

        Pending jobs settle cancelled and the workers get their stop
        grace before the process exits; the HTTP front closes the
        scheduler only after the server stops accepting connections.
        """
        if self._closed:
            return
        self._closed = True
        await asyncio.get_running_loop().run_in_executor(
            None, self._pool.shutdown
        )

    async def __aenter__(self) -> "JobScheduler":
        return self

    async def __aexit__(self, *exc: object) -> None:
        await self.aclose()
