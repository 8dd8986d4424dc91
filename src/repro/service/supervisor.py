"""Supervised worker pool: crash detection, respawn, retry, hard cancel.

The standard library's process executor treats one dead worker as a
dead pool: every pending future breaks and the executor is unusable.
Serve, batch and suite need the opposite — a worker segfault, OOM
kill, or injected fault must cost at most one retried job.
:class:`SupervisedPool` owns its workers directly:

* One :mod:`multiprocessing` process per worker, each with a private
  duplex pipe.  A supervisor thread multiplexes every pipe *and* every
  process sentinel through :func:`multiprocessing.connection.wait`, so
  both results and deaths are events in one loop.
* A worker death re-queues its in-flight job with exponential backoff
  (``retry_backoff * 2**(attempt-1)``) up to ``job_retries`` retries;
  a job that keeps killing workers is settled as
  :class:`PoisonJobError` instead of retried forever.
* Respawns draw from a ``max_restarts`` budget.  When the budget is
  spent and the last worker dies, the pool reports
  :class:`PoolExhausted` — submissions fail fast (the HTTP front turns
  this into 503s) but the server itself keeps serving.
* **Hard cancellation**: workers ignore SIGINT except while a job body
  runs, so :meth:`PoolJob.cancel` first sends SIGINT (a cooperative
  worker answers ``cancelled`` and *survives*), then SIGKILLs after
  the grace period for wedged workers.  Cancel kills respawn without
  consuming the restart budget.
* A worker calls :func:`gc.freeze` once it is initialised, so its
  cyclic collector never re-walks the heap it inherited at fork.

Every process worker — serve's, ``ompdart batch -j``'s and ``ompdart
suite -j``'s (through :func:`repro.service.core.dispatch_map`) — runs
one loop, :func:`_worker_main`, into the
:func:`repro.service.core.worker_init` /
:func:`repro.service.core.execute_job` runtime, so results are
bit-identical whichever front submitted them.
"""

from __future__ import annotations

import gc
import multiprocessing
import os
import signal
import stat
import threading
import time
from collections import deque
from concurrent.futures import Future, InvalidStateError
from multiprocessing.connection import wait as _mp_wait
from typing import Any

from ..pipeline.store import sweep_dead_tmp
from . import faults as faults_module
from .core import (
    JobSpec,
    describe_exception,
    execute_job,
    worker_init,
)

__all__ = [
    "JobCancelled",
    "PoisonJobError",
    "PoolExhausted",
    "PoolJob",
    "SupervisedPool",
]


class JobCancelled(Exception):
    """The job was cancelled (DELETE, timeout escalation, shutdown)."""


class PoisonJobError(RuntimeError):
    """The job crashed its worker past the retry bound; quarantined."""


class PoolExhausted(RuntimeError):
    """Restart budget spent and no workers remain alive."""


#: Worker spawn/respawn readiness timeout (imports + manager init).
_READY_TIMEOUT = 60.0

#: How long a stopped worker (one that may still be finishing a job)
#: gets to exit before the supervisor kills it.
_STOP_GRACE = 1.0

#: Supervisor idle tick: bounds how stale a missed wakeup can get and
#: doubles as the liveness heartbeat for the paranoid ``is_alive`` sweep.
_HEARTBEAT = 1.0


# ===========================================================================
# Worker process
# ===========================================================================


def _drop_inherited_sockets(keep: int) -> None:
    """Release every socket a forked worker inherited but ``keep``.

    A worker forked while its parent holds sockets (a respawn in a
    serving process, a pool started after a server listens) would keep
    copies open: a connection the parent closes would send its client
    no EOF, and a killed server's listening socket would keep
    accepting.  Each socket descriptor is pointed at ``/dev/null``
    rather than closed, so its number stays taken: a parent's socket
    object the worker frees later closes ``/dev/null``, never a
    descriptor the worker opened since.  Pipes stay open (the fork
    sentinel the supervisor watches for deaths is one), and so do the
    standard streams, which a service manager may connect to a log
    socket.  Without ``/proc`` nothing is released.
    """
    try:
        fds = [int(name) for name in os.listdir("/proc/self/fd")]
    except OSError:
        return
    null = os.open(os.devnull, os.O_RDWR)
    try:
        for fd in fds:
            try:
                mode = os.fstat(fd).st_mode
            except OSError:
                continue  # the listing's own descriptor, closed since
            if fd > 2 and fd != keep and stat.S_ISSOCK(mode):
                os.dup2(null, fd)
    finally:
        os.close(null)


def _worker_main(
    conn,
    parent_conn,
    cache_dir: str | None,
    fault_plan,
) -> None:
    """Worker loop: recv a spec, execute, reply; SIGINT = cancel.

    SIGINT is ignored except while the job body runs — a cancel signal
    landing between jobs (or mid ``conn.recv``) must not desync the
    message stream.  Within the job window it raises
    ``KeyboardInterrupt``, which is answered with a ``cancelled`` reply
    and a live worker; a worker that swallows it (wedged) is SIGKILLed
    by the supervisor after the grace period.
    """
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    try:
        parent_conn.close()
    except OSError:
        pass
    try:
        _drop_inherited_sockets(conn.fileno())
        faults_module.install(fault_plan)
        worker_init(cache_dir)
        # Move everything the fork inherited, and what worker_init
        # built, out of the collector's generations, so no collection
        # in this worker re-walks it.  No gc.collect() first: a full
        # collection in a fresh fork would touch every inherited object.
        gc.freeze()
    except BaseException as exc:  # noqa: BLE001 - reported to supervisor
        try:
            conn.send(("init-fail", os.getpid(), describe_exception(exc)))
        except OSError:
            pass
        os._exit(1)
    conn.send(("ready", os.getpid()))
    while True:
        try:
            msg = conn.recv()
        except (EOFError, OSError):
            os._exit(0)
        if msg[0] == "stop":
            os._exit(0)
        _, seq, spec, attempt = msg
        key = spec.key()
        try:
            signal.signal(signal.SIGINT, signal.default_int_handler)
            try:
                faults_module.maybe_wedge(key, attempt)
                result = execute_job(spec)
            finally:
                signal.signal(signal.SIGINT, signal.SIG_IGN)
        except KeyboardInterrupt:
            reply = ("cancelled", seq)
        except BaseException as exc:  # noqa: BLE001 - crossing processes
            reply = ("fail", seq, describe_exception(exc))
        else:
            # The injected kill fires *after* the result exists but
            # before the reply — the most adversarial death point: any
            # artifacts the job spilled are on disk, the answer is not.
            faults_module.maybe_kill(key, attempt)
            reply = ("done", seq, result)
        try:
            conn.send(reply)
        except (OSError, ValueError):
            os._exit(0)


# ===========================================================================
# Supervisor side
# ===========================================================================


class PoolJob:
    """One spec's trip through the pool; settled via ``future``."""

    __slots__ = (
        "spec", "key", "future", "attempts", "not_before",
        "cancel_requested", "cancel_deadline", "sigint_sent", "worker",
        "seq", "_pool",
    )

    def __init__(self, spec: JobSpec, pool: "SupervisedPool"):
        self.spec = spec
        self.key = spec.key()
        self.future: Future = Future()
        #: Times a worker died executing this job.
        self.attempts = 0
        #: Earliest monotonic dispatch time (backoff after a crash).
        self.not_before = 0.0
        self.cancel_requested = False
        self.cancel_deadline: float | None = None
        self.sigint_sent = False
        self.worker: "_Worker | None" = None
        self.seq: int | None = None
        self._pool = pool

    def cancel(self, grace: float | None = None) -> None:
        """Request hard cancellation (SIGINT, then SIGKILL after grace)."""
        self._pool.cancel_job(self, grace)


class _Worker:
    __slots__ = ("proc", "conn", "ready", "conn_broken", "cancel_kill", "job")

    def __init__(self, proc, conn):
        self.proc = proc
        self.conn = conn
        self.ready = False
        self.conn_broken = False
        #: Death was a deliberate cancel SIGKILL, not a crash: the
        #: respawn is free (does not consume the restart budget).
        self.cancel_kill = False
        #: The job this worker is executing right now (None = idle).
        self.job: PoolJob | None = None


def _settle_result(future: Future, result: Any) -> None:
    try:
        future.set_result(result)
    except InvalidStateError:
        pass


def _settle_error(future: Future, exc: BaseException) -> None:
    try:
        future.set_exception(exc)
    except InvalidStateError:
        pass


class SupervisedPool:
    """A fixed-size worker pool that survives its workers.

    Construction spawns (and readiness-checks) every worker eagerly —
    a sandbox that blocks forking fails *now*, in the caller's
    constructor, not at the first job.  After that a supervisor thread
    owns all worker state; the public methods only append to an inbox
    and poke a wake pipe, so they are safe from any thread (the asyncio
    event loop calls them).
    """

    def __init__(
        self,
        workers: int,
        *,
        cache_dir: str | None = None,
        job_retries: int = 1,
        retry_backoff: float = 0.05,
        max_restarts: int = 16,
        cancel_grace: float = 2.0,
        fault_plan=None,
    ):
        self.cache_dir = cache_dir
        self.job_retries = max(0, job_retries)
        self.retry_backoff = max(0.0, retry_backoff)
        self.max_restarts = max(0, max_restarts)
        self.cancel_grace = max(0.0, cancel_grace)
        self.fault_plan = fault_plan
        self._max_workers = max(1, workers)
        try:
            self._ctx = multiprocessing.get_context("fork")
        except ValueError:  # platform without fork
            self._ctx = multiprocessing.get_context()
        self._workers: list[_Worker] = []
        self._pending: deque[PoolJob] = deque()
        self._inbox: deque[tuple] = deque()
        self._seq = 0
        self._stop = False
        self.exhausted = False
        # counters (supervisor-thread writes; racy cross-thread reads
        # of ints are fine for stats)
        self._restarts = 0
        self._crashes = 0
        self._retries = 0
        self._cancelled = 0
        self._cancel_kills = 0
        self._poisoned = 0
        self._completed = 0
        self._wake_r, self._wake_w = os.pipe()
        try:
            for _ in range(self._max_workers):
                self._spawn()
            # Fork every worker before awaiting any, so their start-ups
            # overlap.
            for worker in self._workers:
                self._await_ready(worker)
        except BaseException:
            self._kill_all()
            os.close(self._wake_r)
            os.close(self._wake_w)
            raise
        self._thread = threading.Thread(
            target=self._loop, name="ompdart-supervisor", daemon=True
        )
        self._thread.start()

    # -- public API (any thread) -----------------------------------------

    def submit_spec(self, spec: JobSpec) -> PoolJob:
        """Queue ``spec``; raises :class:`PoolExhausted` when dead."""
        if self.exhausted:
            raise PoolExhausted(
                f"worker restart budget ({self.max_restarts}) spent "
                "and no workers remain"
            )
        if self._stop:
            raise RuntimeError("pool is shut down")
        job = PoolJob(spec, self)
        self._inbox.append(("submit", job))
        self._wake()
        return job

    def cancel_job(self, job: PoolJob, grace: float | None = None) -> None:
        self._inbox.append(
            ("cancel", job, self.cancel_grace if grace is None else grace)
        )
        self._wake()

    def stats(self) -> dict[str, Any]:
        alive = sum(1 for w in self._workers if w.proc.is_alive())
        return {
            "workers": self._max_workers,
            "alive": alive,
            "restarts": self._restarts,
            "max_restarts": self.max_restarts,
            "crashes": self._crashes,
            "retries": self._retries,
            "job_retries": self.job_retries,
            "cancelled": self._cancelled,
            "cancel_kills": self._cancel_kills,
            "poisoned": self._poisoned,
            "completed": self._completed,
            "pending": len(self._pending),
            "exhausted": self.exhausted,
        }

    def shutdown(self, wait: bool = True) -> None:
        """Stop the pool; ``wait`` joins its stop sequence.

        The supervisor thread runs that sequence (settle leftover
        futures, send each worker ``stop``, allow the stop grace, kill
        what is left), because only it may touch workers and their
        pipes.  Without ``wait`` it runs on after this returns; the
        thread is a daemon, so an interpreter exit can cut it short.
        """
        if self._stop:
            return
        self._stop = True
        self._wake()
        if wait:
            self._thread.join(timeout=10.0)

    def _wake(self) -> None:
        try:
            os.write(self._wake_w, b"w")
        except OSError:
            pass

    # -- supervisor thread ------------------------------------------------

    def _loop(self) -> None:
        try:
            while True:
                self._drain_inbox()
                if self._stop:
                    break
                now = time.monotonic()
                self._fire_cancels(now)
                self._dispatch(now)
                ready = self._wait(self._timeout(time.monotonic()))
                if self._wake_r in ready:
                    try:
                        os.read(self._wake_r, 65536)
                    except OSError:
                        pass
                # Drain result pipes *before* handling deaths: a worker
                # killed right after sending ``done`` has the reply
                # sitting in the pipe buffer, and it must win.
                for worker in list(self._workers):
                    if worker.conn in ready and not worker.conn_broken:
                        self._drain_conn(worker)
                for worker in list(self._workers):
                    if not worker.proc.is_alive():
                        self._handle_death(worker)
                self._expire_cancels(time.monotonic())
        finally:
            self._shutdown_workers()

    def _wait(self, timeout: float) -> list:
        objects: list = [self._wake_r]
        for worker in self._workers:
            if not worker.conn_broken:
                objects.append(worker.conn)
            objects.append(worker.proc.sentinel)
        try:
            return list(_mp_wait(objects, timeout))
        except OSError:
            return []

    def _timeout(self, now: float) -> float:
        timeout = _HEARTBEAT
        for job in self._pending:
            if job.not_before > now:
                # Backed-off retries need a timed wakeup; dispatchable
                # jobs only wait on a free worker, and the worker's
                # reply/death will wake the loop by itself.
                timeout = min(timeout, job.not_before - now)
        for worker in self._workers:
            job = worker.job
            if job is not None and job.cancel_deadline is not None:
                timeout = min(timeout, max(0.0, job.cancel_deadline - now))
        return max(0.01, timeout)

    def _drain_inbox(self) -> None:
        while self._inbox:
            msg = self._inbox.popleft()
            if msg[0] == "submit":
                job = msg[1]
                if self.exhausted:
                    _settle_error(job.future, PoolExhausted(
                        f"worker restart budget ({self.max_restarts}) "
                        "spent and no workers remain"
                    ))
                else:
                    self._pending.append(job)
            elif msg[0] == "cancel":
                self._handle_cancel(msg[1], msg[2])

    def _handle_cancel(self, job: PoolJob, grace: float) -> None:
        if job.future.done():
            return
        if job.worker is None:
            # Still queued: settle immediately, no worker involved.
            try:
                self._pending.remove(job)
            except ValueError:
                pass
            self._cancelled += 1
            _settle_error(job.future, JobCancelled("job cancelled"))
            return
        if not job.cancel_requested:
            job.cancel_requested = True
            job.cancel_deadline = time.monotonic() + max(0.0, grace)

    def _fire_cancels(self, now: float) -> None:
        for worker in self._workers:
            job = worker.job
            if (
                job is not None
                and job.cancel_requested
                and not job.sigint_sent
            ):
                job.sigint_sent = True
                try:
                    os.kill(worker.proc.pid, signal.SIGINT)
                except (OSError, TypeError):
                    pass

    def _expire_cancels(self, now: float) -> None:
        for worker in list(self._workers):
            job = worker.job
            if (
                job is not None
                and job.cancel_requested
                and job.cancel_deadline is not None
                and now >= job.cancel_deadline
            ):
                worker.cancel_kill = True
                self._cancel_kills += 1
                try:
                    worker.proc.kill()
                except OSError:
                    pass
                job.cancel_deadline = None  # kill fired; death path settles

    def _dispatch(self, now: float) -> None:
        while self._pending:
            job = self._next_dispatchable(now)
            if job is None:
                return
            worker = self._idle_worker()
            if worker is None:
                return
            self._pending.remove(job)
            if job.future.done():
                continue  # externally cancelled while queued
            if job.attempts == 0 and not job.future.set_running_or_notify_cancel():
                continue  # retries re-dispatch an already-RUNNING future
            self._seq += 1
            job.seq = self._seq
            job.worker = worker
            worker.job = job
            try:
                worker.conn.send(("job", job.seq, job.spec, job.attempts))
            except (OSError, ValueError):
                worker.conn_broken = True
                worker.job = None
                job.worker = None
                self._pending.appendleft(job)
                return

    def _next_dispatchable(self, now: float) -> PoolJob | None:
        for job in self._pending:
            if job.not_before <= now:
                return job
        return None

    def _idle_worker(self) -> _Worker | None:
        for worker in self._workers:
            if (
                worker.ready
                and not worker.conn_broken
                and worker.job is None
                and worker.proc.is_alive()
            ):
                return worker
        return None

    def _drain_conn(self, worker: _Worker) -> None:
        while True:
            try:
                if not worker.conn.poll():
                    return
                msg = worker.conn.recv()
            except (EOFError, OSError):
                worker.conn_broken = True
                return
            kind = msg[0]
            if kind == "ready":
                worker.ready = True
                continue
            if kind == "init-fail":
                # The process exits right after; the sentinel path
                # respawns (budgeted — repeated init failures must
                # drain the budget, not loop forever).
                worker.conn_broken = True
                continue
            job = worker.job
            if job is None or job.seq != msg[1]:
                continue  # stale reply from a settled/cancelled job
            worker.job = None
            job.worker = None
            job.cancel_deadline = None
            if job.cancel_requested:
                # Cancel wins races: a ``done`` that arrives after the
                # cancel was requested still yields the deterministic
                # cancelled envelope (and the worker survives).
                self._cancelled += 1
                _settle_error(job.future, JobCancelled("job cancelled"))
                continue
            if kind == "done":
                self._completed += 1
                _settle_result(job.future, msg[2])
            elif kind == "cancelled":
                self._cancelled += 1
                _settle_error(job.future, JobCancelled("job cancelled"))
            elif kind == "fail":
                _settle_error(job.future, RuntimeError(msg[2]))

    def _handle_death(self, worker: _Worker) -> None:
        exitcode = worker.proc.exitcode
        job, worker.job = worker.job, None
        cancel_kill = worker.cancel_kill
        self._remove_worker(worker)
        now = time.monotonic()
        if job is not None:
            job.worker = None
            if job.cancel_requested:
                self._cancelled += 1
                _settle_error(job.future, JobCancelled("job cancelled"))
            else:
                job.attempts += 1
                if job.attempts > self.job_retries:
                    self._poisoned += 1
                    _settle_error(job.future, PoisonJobError(
                        f"job {job.key[:12]} crashed its worker "
                        f"{job.attempts} time(s) (last exit code "
                        f"{exitcode}); quarantined"
                    ))
                else:
                    self._retries += 1
                    job.not_before = now + self.retry_backoff * (
                        2 ** (job.attempts - 1)
                    )
                    self._pending.append(job)
        if self.cache_dir is not None:
            # A writer killed mid-spill leaves its tmp file behind;
            # sweep it before the retry runs.
            sweep_dead_tmp(self.cache_dir)
        if self._stop:
            return
        if not cancel_kill:
            self._crashes += 1
        self._respawn(budgeted=not cancel_kill)

    def _respawn(self, budgeted: bool) -> None:
        if budgeted:
            if self._restarts >= self.max_restarts:
                self._check_exhausted()
                return
            self._restarts += 1
        try:
            self._spawn()
        except Exception:  # noqa: BLE001 - spawn failure = budget burned
            self._check_exhausted()

    def _check_exhausted(self) -> None:
        if any(w.proc.is_alive() for w in self._workers):
            return  # degraded capacity, still serving
        self.exhausted = True
        while self._pending:
            job = self._pending.popleft()
            _settle_error(job.future, PoolExhausted(
                f"worker restart budget ({self.max_restarts}) spent "
                "and no workers remain"
            ))

    def _remove_worker(self, worker: _Worker) -> None:
        try:
            self._workers.remove(worker)
        except ValueError:
            pass
        try:
            worker.conn.close()
        except OSError:
            pass
        worker.proc.join(timeout=0.1)

    def _spawn(self) -> None:
        parent_conn, child_conn = self._ctx.Pipe()
        proc = self._ctx.Process(
            target=_worker_main,
            args=(child_conn, parent_conn, self.cache_dir, self.fault_plan),
            daemon=True,
        )
        proc.start()
        child_conn.close()
        self._workers.append(_Worker(proc, parent_conn))

    @staticmethod
    def _await_ready(worker: _Worker) -> None:
        if not worker.conn.poll(_READY_TIMEOUT):
            raise RuntimeError("worker failed to start (timeout)")
        msg = worker.conn.recv()
        if msg[0] != "ready":
            raise RuntimeError(f"worker init failed: {msg[-1]}")
        worker.ready = True

    def _shutdown_workers(self) -> None:
        for worker in list(self._workers):
            job = worker.job
            if job is not None:
                _settle_error(job.future, JobCancelled("pool shut down"))
            try:
                worker.conn.send(("stop",))
            except (OSError, ValueError):
                pass
        while self._pending:
            _settle_error(
                self._pending.popleft().future,
                JobCancelled("pool shut down"),
            )
        deadline = time.monotonic() + _STOP_GRACE
        for worker in list(self._workers):
            worker.proc.join(timeout=max(0.0, deadline - time.monotonic()))
        self._kill_all()
        try:
            os.close(self._wake_r)
            os.close(self._wake_w)
        except OSError:
            pass

    def _kill_all(self) -> None:
        for worker in list(self._workers):
            try:
                if worker.proc.is_alive():
                    worker.proc.kill()
            except OSError:
                pass
            try:
                worker.conn.close()
            except OSError:
                pass
        self._workers.clear()
