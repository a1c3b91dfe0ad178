"""Long-lived worker processes with targeted dispatch.

:class:`~concurrent.futures.ProcessPoolExecutor` hands tasks to
*whichever* worker frees up first — fine for stateless artifact builds,
useless for sharded serving, where worker ``i`` owns shard ``i``'s
mutable :class:`~repro.control.fleet.FleetState` and every chunk of
traffic must land on the worker that holds its sites.
:class:`WorkerPool` is the thin substrate both cases share:

* one long-lived process per worker over a duplex
  :class:`~multiprocessing.connection.Connection`, tasks executed FIFO
  per worker;
* a warm-up handshake — each worker runs the pool's ``initializer``
  (e.g. rebuilding a broadcast meter payload into a live shard) and
  reports readiness before :meth:`WorkerPool.__init__` returns, so
  startup cost never pollutes steady-state timing;
* *targeted* dispatch (:meth:`submit` / :meth:`result` per worker
  index) with deterministic collection helpers on top:
  :meth:`broadcast` (everyone, results in worker order) and
  :meth:`map_ordered` (round-robin, results in task order — the
  canonical-merge contract :func:`~repro.parallel.engine.warm_pipeline`
  relies on);
* raw reply access (:meth:`result_bytes` + :meth:`load_result`) so a
  caller can pull chunk ``k``'s reply off every pipe, hand out chunk
  ``k + 1``, and only then pay the unpickling cost — overlapping the
  parent's merge work with the workers' compute.

Payloads cross the pipes as :data:`pickle.HIGHEST_PROTOCOL` blobs via
``send_bytes`` (measurably faster than ``Connection.send``'s default
protocol for numpy-heavy payloads), and pickle's per-``dumps``
memoization means objects shared within one task result — e.g. one
window shared by many sites' decisions — are serialized once.

Supervision
-----------
The pool assumes workers can die.  Every reply read distinguishes the
three failure modes a real process fabric exhibits:

* a task that *raised* travels back as an ``("err", ...)`` reply and
  surfaces as :class:`WorkerError` with the remote traceback;
* a worker that *crashed* (SIGKILL, OOM, segfault) surfaces as
  :class:`WorkerCrash` carrying its exitcode — detected eagerly via
  ``Connection.poll`` + liveness checks rather than a blocking ``recv``
  that would hang on a half-dead pipe;
* a worker that *hangs* surfaces as :class:`WorkerTimeout` once the
  caller-supplied reply deadline passes (``timeout=None`` keeps the
  historical block-forever behaviour, but still detects crashes).

:meth:`respawn` replaces a dead (or condemned) worker with a fresh
process over a fresh pipe and re-runs the pool initializer warm-up, so
a supervisor can rebuild worker state (e.g. resume a shard from its
checkpoint) without tearing the whole pool down.  Transient IPC errors
(EINTR/EAGAIN) retry with bounded backoff via
:func:`repro.faults.retry.retry_io`; :meth:`close` escalates
join → terminate → kill so shutdown can never hang on a wedged worker.
"""

from __future__ import annotations

import multiprocessing
import pickle
import signal
import time
import traceback
from multiprocessing.connection import Connection
from typing import Any, Callable, List, Optional, Sequence, Tuple

from ..faults.retry import retry_io

__all__ = ["WorkerCrash", "WorkerError", "WorkerPool", "WorkerTimeout"]

#: transient IPC errors worth retrying with bounded backoff; anything
#: else (BrokenPipeError, EOFError) means the peer is gone
_TRANSIENT_IPC = (InterruptedError, BlockingIOError)

#: granularity of the poll loop used for liveness + deadline checks
_POLL_STEP = 0.05


class WorkerError(RuntimeError):
    """A task (or the initializer) raised inside a worker process.

    Carries the worker-side traceback text so the parent's stack trace
    shows *both* sides of the pipe.
    """

    def __init__(self, worker: int, message: str, remote_traceback: str):
        super().__init__(
            f"worker {worker}: {message}\n"
            f"--- worker traceback ---\n{remote_traceback}"
        )
        self.worker = worker
        self.remote_traceback = remote_traceback


class WorkerCrash(WorkerError):
    """The worker *process* died before replying (kill/OOM/segfault)."""

    def __init__(self, worker: int, exitcode: Optional[int]):
        super().__init__(
            worker,
            f"worker process died before replying (exitcode={exitcode})",
            "<no worker traceback: the process is gone>",
        )
        self.exitcode = exitcode


class WorkerTimeout(WorkerError):
    """The worker produced no reply within the supervision deadline."""

    def __init__(self, worker: int, timeout: float):
        super().__init__(
            worker,
            f"no reply within {timeout:.3f}s (worker presumed hung)",
            "<no worker traceback: the worker never replied>",
        )
        self.timeout = timeout


def _dumps(obj: Any) -> bytes:
    return pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)


def _worker_main(
    conn: Connection,
    worker_index: int,
    initializer: Optional[Callable[..., Any]],
    initargs: Tuple[Any, ...],
) -> None:
    """Worker loop: handshake, then execute tasks FIFO until "stop"."""
    # a terminal ctrl-C delivers SIGINT to the whole foreground process
    # group; if workers died on it mid-task the parent's graceful
    # shutdown would find half-written pipes.  The parent coordinates
    # shutdown ("stop", then close() escalation), so workers ignore it.
    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)
    except (OSError, ValueError):
        pass  # non-main thread or exotic platform: keep the default
    try:
        if initializer is not None:
            initializer(worker_index, *initargs)
        conn.send_bytes(_dumps(("ok", worker_index)))
    except BaseException as exc:  # noqa: B036 - report, then die
        conn.send_bytes(
            _dumps(
                (
                    "err",
                    f"initializer failed: {type(exc).__name__}: {exc}",
                    traceback.format_exc(),
                )
            )
        )
        return
    while True:
        try:
            message = pickle.loads(conn.recv_bytes())
        except EOFError:
            return  # parent died or closed without "stop"
        if message[0] == "stop":
            return
        _, fn, args, kwargs = message
        try:
            reply: Tuple[Any, ...] = ("ok", fn(*args, **kwargs))
        except BaseException as exc:  # noqa: B036 - ship it to the parent
            reply = (
                "err",
                f"{type(exc).__name__}: {exc}",
                traceback.format_exc(),
            )
        conn.send_bytes(_dumps(reply))


class WorkerPool:
    """``workers`` long-lived processes with per-worker FIFO pipes."""

    def __init__(
        self,
        workers: int,
        *,
        initializer: Optional[Callable[..., Any]] = None,
        initargs: Tuple[Any, ...] = (),
        context: Optional[Any] = None,
    ) -> None:
        if workers < 1:
            raise ValueError("WorkerPool needs at least one worker")
        if context is None:
            # fork (where available) inherits broadcast initargs without
            # pickling them per worker; spawn platforms pickle them once
            methods = multiprocessing.get_all_start_methods()
            context = multiprocessing.get_context(
                "fork" if "fork" in methods else None
            )
        self.size = workers
        self._context = context
        self._initializer = initializer
        self._initargs: List[Tuple[Any, ...]] = [initargs] * workers
        self._conns: List[Connection] = []
        self._procs: List[Any] = []
        self._closed = False
        for index in range(workers):
            conn, proc = self._spawn(index, initializer, initargs)
            self._conns.append(conn)
            self._procs.append(proc)
        # warm-up barrier: every worker finished its initializer
        for index in range(workers):
            self.load_result(self.result_bytes(index), index)

    def _spawn(
        self,
        index: int,
        initializer: Optional[Callable[..., Any]],
        initargs: Tuple[Any, ...],
    ) -> Tuple[Connection, Any]:
        parent_conn, child_conn = self._context.Pipe(duplex=True)
        proc = self._context.Process(
            target=_worker_main,
            args=(child_conn, index, initializer, initargs),
            daemon=True,
        )
        proc.start()
        child_conn.close()
        return parent_conn, proc

    # ------------------------------------------------------------------
    # liveness and supervision
    # ------------------------------------------------------------------
    def alive(self, worker: int) -> bool:
        """Is ``worker``'s process currently running?"""
        return bool(self._procs[worker].is_alive())

    def exitcode(self, worker: int) -> Optional[int]:
        """``worker``'s process exitcode (None while it runs)."""
        code = self._procs[worker].exitcode
        return None if code is None else int(code)

    def pid(self, worker: int) -> Optional[int]:
        """``worker``'s process id (None before start)."""
        pid = self._procs[worker].pid
        return None if pid is None else int(pid)

    def poll(self, worker: int) -> bool:
        """Non-blocking: is a reply (or a crash) waiting on ``worker``?

        True means the next :meth:`result` call will not block on the
        task itself — either the reply bytes are buffered on the pipe
        or the worker died and collection will raise its crash.  Lets
        callers run background work (e.g. a retrain build) without ever
        stalling their own loop.
        """
        if not self._procs[worker].is_alive():
            return True
        try:
            return bool(self._conns[worker].poll(0))
        except (OSError, ValueError, EOFError):
            return True

    def _crash(self, worker: int) -> WorkerCrash:
        """Build a :class:`WorkerCrash`, harvesting the exitcode first.

        A broken pipe can surface before the dead child has been
        reaped, when ``exitcode`` still reads ``None``; a short join
        makes the code available to the supervisor's accounting.
        """
        proc = self._procs[worker]
        try:
            proc.join(timeout=1.0)
        except (OSError, ValueError, AssertionError):
            pass
        return WorkerCrash(worker, self.exitcode(worker))

    def reap(self, worker: int) -> None:
        """Force ``worker``'s process down and close its pipe.

        Escalates terminate → kill so a wedged worker can't stall the
        caller; idempotent on an already-dead worker.  The slot stays
        allocated — :meth:`respawn` brings it back.
        """
        proc = self._procs[worker]
        if proc.is_alive():
            proc.terminate()
            proc.join(timeout=1.0)
        if proc.is_alive():
            proc.kill()
            proc.join()
        try:
            self._conns[worker].close()
        except OSError:
            pass

    def respawn(
        self, worker: int, *, initargs: Optional[Tuple[Any, ...]] = None
    ) -> None:
        """Replace ``worker`` with a fresh process over a fresh pipe.

        The old process (if still running) is reaped first; the new one
        runs the pool's initializer warm-up — with ``initargs``
        overriding the originals when given (e.g. pointing a rebuilt
        shard at its recovery checkpoint) — and this call returns only
        after the handshake, so the worker is ready for tasks.
        Initializer failure surfaces as :class:`WorkerError`.
        """
        self.reap(worker)
        if initargs is not None:
            self._initargs[worker] = initargs
        conn, proc = self._spawn(
            worker, self._initializer, self._initargs[worker]
        )
        self._conns[worker] = conn
        self._procs[worker] = proc
        self.load_result(self.result_bytes(worker), worker)

    # ------------------------------------------------------------------
    # targeted dispatch
    # ------------------------------------------------------------------
    def submit(
        self, worker: int, fn: Callable[..., Any], *args: Any, **kwargs: Any
    ) -> None:
        """Queue one task on ``worker`` (tasks run FIFO per worker).

        Transient IPC errors (EINTR/EAGAIN) retry with bounded backoff;
        a broken pipe means the worker died and raises
        :class:`WorkerCrash`.
        """
        blob = _dumps(("call", fn, args, kwargs))
        try:
            retry_io(
                lambda: self._conns[worker].send_bytes(blob),
                retry_on=_TRANSIENT_IPC,
                base_delay=0.01,
                max_delay=0.1,
            )
        except (BrokenPipeError, EOFError, OSError, ValueError):
            raise self._crash(worker) from None

    def result_bytes(
        self, worker: int, timeout: Optional[float] = None
    ) -> bytes:
        """The next raw reply blob from ``worker``.

        Waits in a bounded poll loop rather than a blocking ``recv``:
        a worker that died surfaces as :class:`WorkerCrash` (even with
        ``timeout=None``) and one that produced nothing within
        ``timeout`` seconds as :class:`WorkerTimeout`.
        """
        conn = self._conns[worker]
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            try:
                ready = retry_io(
                    lambda: conn.poll(_POLL_STEP),
                    retry_on=_TRANSIENT_IPC,
                    base_delay=0.01,
                    max_delay=0.1,
                )
                if ready:
                    return conn.recv_bytes()
            except (EOFError, BrokenPipeError, OSError):
                raise self._crash(worker) from None
            if not self._procs[worker].is_alive():
                # the process is gone; drain any reply it flushed
                # before dying, then report the crash
                try:
                    if conn.poll(0):
                        return conn.recv_bytes()
                except (EOFError, BrokenPipeError, OSError):
                    pass
                raise self._crash(worker)
            if deadline is not None and time.monotonic() >= deadline:
                raise WorkerTimeout(worker, timeout or 0.0)

    def load_result(self, blob: bytes, worker: int = -1) -> Any:
        """Decode a raw reply blob, raising :class:`WorkerError` on err.

        ``worker`` threads the origin index into the raised error so
        shard-level handling can name the failed shard.
        """
        reply = pickle.loads(blob)
        if reply[0] == "ok":
            return reply[1]
        _, message, remote_traceback = reply
        raise WorkerError(worker, message, remote_traceback)

    def result(self, worker: int, timeout: Optional[float] = None) -> Any:
        """The next decoded reply from ``worker``."""
        return self.load_result(self.result_bytes(worker, timeout), worker)

    def call(
        self, worker: int, fn: Callable[..., Any], *args: Any, **kwargs: Any
    ) -> Any:
        """Synchronous round-trip on one worker."""
        self.submit(worker, fn, *args, **kwargs)
        return self.result(worker)

    # ------------------------------------------------------------------
    # deterministic collection helpers
    # ------------------------------------------------------------------
    def broadcast(
        self, fn: Callable[..., Any], *args: Any, **kwargs: Any
    ) -> List[Any]:
        """Run ``fn`` on every worker; results in worker order."""
        for worker in range(self.size):
            self.submit(worker, fn, *args, **kwargs)
        return [self.result(worker) for worker in range(self.size)]

    def map_ordered(
        self,
        fn: Callable[..., Any],
        tasks: Sequence[Tuple[Any, ...]],
    ) -> List[Any]:
        """Run ``fn(*task)`` for every task; results in *task* order.

        Tasks go round-robin with at most one outstanding per worker, so
        completion order can never leak into the result order (the same
        canonical-merge guarantee the old executor path provided by
        zipping futures with the submission list).
        """
        results: List[Any] = [None] * len(tasks)
        for index, task in enumerate(tasks):
            worker = index % self.size
            if index >= self.size:
                # the worker's previous task (index - size) finishes
                # before it accepts this one; collect it now
                results[index - self.size] = self.result(worker)
            self.submit(worker, fn, *task)
        for index in range(max(0, len(tasks) - self.size), len(tasks)):
            results[index] = self.result(index % self.size)
        return results

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def close(self, timeout: float = 5.0) -> None:
        """Stop every worker and reap the processes (idempotent).

        Escalates join → terminate → kill per worker so shutdown can
        never hang on a wedged or signal-ignoring process; every child
        is fully reaped (no zombies) before this returns.
        """
        if self._closed:
            return
        self._closed = True
        for conn in self._conns:
            try:
                conn.send_bytes(_dumps(("stop",)))
            except (OSError, ValueError):
                pass  # worker already gone
        for proc, conn in zip(self._procs, self._conns):
            proc.join(timeout=timeout)
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=timeout)
            if proc.is_alive():
                proc.kill()  # SIGKILL cannot be ignored
                proc.join()
            try:
                conn.close()
            except OSError:
                pass

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def __del__(self) -> None:
        try:
            self.close()
        except Exception:
            pass
