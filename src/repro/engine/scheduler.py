"""Concurrent multi-session scheduling over resumable search tasks.

The Engine's verbs serve one session at a time: a long search blocks
every session queued behind it (FIFO), so under concurrent load the p95
first-interface latency grows with the *sum* of all predecessors' work.
:class:`SessionScheduler` fixes that by exploiting the
:class:`~repro.search.common.SearchTask` state machine: every session's
search is opened once (warm-start and compiled-sequence carry included,
via :meth:`~repro.serve.IncrementalGenerator.open_search`) and then
*time-sliced* — a few iterations per slice, sessions interleaved — so
short work is never starved by long work in front of it.

A submission is a session *script*: an ordered list of query chunks.
The scheduler appends a chunk, slices the search for the grown log to
completion, delivers the :class:`~repro.engine.report.GenerationReport`
(with scheduling provenance), then moves to the session's next chunk —
the growing-log serving pattern.

Three policies:

* ``"round_robin"`` — runnable sessions rotate; each gets
  ``slice_iterations`` (and optionally ``slice_s``) per turn.  Fair
  processor-sharing: p95 first-interface latency is bounded by the
  *per-step* work of the cohort, not the sum of whole scripts.
* ``"deadline"`` — earliest-deadline-first: each submission carries a
  ``target_latency_s`` and the most urgent runnable session is sliced
  next (ties fall back to submission order).
* ``"fifo"`` — no preemption: the earliest-submitted session runs each
  search to completion.  This is the blocking baseline the serving
  benchmark (``benchmarks/bench_serving.py``) compares against.

The scheduler also provides **admission control** (at most
``max_active`` sessions hold search state concurrently; the rest wait
in an admission queue, and their wait is reported as ``queue_wait_s``),
**per-session accounting** (slices, preemptions, iterations, first-
interface latency), and **cancellation**.

A script that ends (done, failed or cancelled) registers its session
through :meth:`Engine.session`, so scheduled sessions obey the engine's
``max_sessions`` bound; a session whose script is running is not evicted.

Thread-safety: :meth:`SessionScheduler.run` accepts ``workers > 1``.
Scheduler bookkeeping is lock-protected, and a *lease* guarantees at
most one worker ever steps a given session's task — per-session work
stays single-threaded (each task owns its RNG and clock), so
iteration-capped sessions whose logs don't overlap produce bit-for-bit
the results of a serial run regardless of worker count or interleaving.
(Sessions sharing identical logs or log prefixes couple through the
shared interface cache — who hits whose entry is timing-dependent, the
same way it is order-dependent for serial callers; the interfaces are
still valid and deterministic per search, but which session pays for
the search may differ.)  Shared structures (interface cache, session
router, cost-model LRUs) carry their own locks.
"""

from __future__ import annotations

import math
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, TYPE_CHECKING

from .. import memo as _memo
from ..obs import collecting as _collecting, emit_report as _emit_report, trace as _trace
from ..serve.incremental import PendingSearch
from ..serve.stream import QueryLike
from .report import GenerationReport

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .core import Engine

#: Scheduling policies (see module docstring).
POLICIES = ("round_robin", "deadline", "fifo")

#: Ticket lifecycle states.
TICKET_STATES = ("queued", "active", "done", "cancelled", "failed")


@dataclass
class SessionTicket:
    """One submitted session script and its scheduling account.

    Attributes:
        session_id: the serving session the script belongs to.
        chunks: the query batches still to be appended + served, in order.
        target_latency_s: the deadline policy's urgency knob (seconds
            from submission; ``None`` = no deadline, scheduled last).
        state: ``queued`` (awaiting admission) → ``active`` →
            ``done`` / ``cancelled`` / ``failed``.
        reports: one report per delivered interface, in chunk order.
        first_interface_s: submission-to-first-interface latency — the
            benchmark's headline metric.
        queue_wait_s: how long admission control held the session.
        slices: task slices this session consumed (all searches).
        preemptions: slices that ended with the search still unfinished
            (the session was put back in the runnable queue).
        iterations: search iterations executed across all its searches.
        error: repr of the exception when ``state == "failed"``.
    """

    session_id: str
    chunks: List[Tuple[QueryLike, ...]]
    target_latency_s: Optional[float] = None
    state: str = "queued"
    reports: List[GenerationReport] = field(default_factory=list)
    first_interface_s: Optional[float] = None
    queue_wait_s: float = 0.0
    slices: int = 0
    preemptions: int = 0
    iterations: int = 0
    error: Optional[str] = None
    #: Monotone submission sequence number (FIFO / tie-break order).
    seq: int = 0
    #: perf_counter timestamps (internal accounting).
    submitted_at: float = 0.0
    admitted_at: Optional[float] = None
    #: Index of the next chunk to append.
    chunk_index: int = 0

    @property
    def finished(self) -> bool:
        return self.state in ("done", "cancelled", "failed")

    def deadline(self) -> float:
        """Absolute deadline (``inf`` when no target latency was given)."""
        if self.target_latency_s is None:
            return math.inf
        return self.submitted_at + self.target_latency_s


class SessionScheduler:
    """Slices many sessions' searches over the engine's serving state.

    Obtained from :meth:`Engine.scheduler`.  Typical use::

        scheduler = engine.scheduler(slice_iterations=16)
        for sid, chunks in workload.items():
            scheduler.submit(sid, chunks)
        tickets = scheduler.run()          # or run(workers=4)
        for ticket in tickets:
            print(ticket.session_id, ticket.first_interface_s,
                  [r.cost for r in ticket.reports])

    Args:
        engine: the owning :class:`Engine` (its incremental service,
            cache, and router are shared with the other verbs).
        slice_iterations: search iterations per slice for the preempting
            policies.  ``None`` = unbounded (slice ends only on
            ``slice_s`` or task completion).
        slice_s: optional wall-clock bound per slice.
        policy: ``"round_robin"``, ``"deadline"``, or ``"fifo"``.
        max_active: admission control — how many sessions may hold
            search state at once (``None`` = unlimited).
    """

    def __init__(
        self,
        engine: "Engine",
        slice_iterations: Optional[int] = 16,
        slice_s: Optional[float] = None,
        policy: str = "round_robin",
        max_active: Optional[int] = None,
    ) -> None:
        if policy not in POLICIES:
            raise ValueError(f"policy must be one of {POLICIES}, got {policy!r}")
        if slice_iterations is not None and slice_iterations < 1:
            raise ValueError(
                f"slice_iterations must be >= 1 or None, got {slice_iterations}"
            )
        if slice_s is not None and slice_s <= 0:
            raise ValueError(f"slice_s must be > 0 or None, got {slice_s}")
        if max_active is not None and max_active < 1:
            raise ValueError(f"max_active must be >= 1 or None, got {max_active}")
        self.engine = engine
        #: Fail fast (before any submit) on non-warm-capable strategies.
        self._service = engine._incremental_service()
        self.slice_iterations = slice_iterations
        self.slice_s = slice_s
        self.policy = policy
        self.max_active = max_active
        self._lock = threading.RLock()
        self._tickets: Dict[str, SessionTicket] = {}
        #: Sessions awaiting admission, in submission order.
        self._admission: List[str] = []
        #: Admitted sessions eligible for their next slice.
        self._runnable: List[str] = []
        #: Sessions currently being stepped by a worker (lease: at most
        #: one worker per session, ever).
        self._leased: set = set()
        #: session id -> its currently open (unfinished) search.
        self._pending: Dict[str, PendingSearch] = {}
        #: session id -> log length before the current chunk's append —
        #: the rollback point if the chunk's interface is never
        #: delivered (cancelled/failed scripts must not pollute the
        #: session's log with unserved queries).
        self._chunk_baseline: Dict[str, int] = {}
        self._seq = 0

    # -- submission / introspection -----------------------------------------

    def submit(
        self,
        session_id: str,
        chunks: Sequence[Sequence[QueryLike]],
        target_latency_s: Optional[float] = None,
    ) -> SessionTicket:
        """Queue a session script: per chunk, append + serve an interface.

        Admission control applies immediately: within ``max_active`` the
        session becomes runnable, otherwise it waits (FIFO) for a slot
        freed by a finishing/cancelled session.
        """
        cleaned = [tuple(chunk) for chunk in chunks if len(tuple(chunk))]
        if not cleaned:
            raise ValueError("a session script needs at least one non-empty chunk")
        with self._lock:
            existing = self._tickets.get(session_id)
            if existing is not None and not existing.finished:
                raise ValueError(
                    f"session {session_id!r} already has an unfinished ticket"
                )
            self._seq += 1
            ticket = SessionTicket(
                session_id=session_id,
                chunks=cleaned,
                target_latency_s=target_latency_s,
                seq=self._seq,
                submitted_at=time.perf_counter(),
            )
            self._tickets[session_id] = ticket
            self.engine._running.add(session_id)
            if self.max_active is None or self._active_count() < self.max_active:
                self._admit(ticket)
            else:
                self._admission.append(session_id)
            return ticket

    def tickets(self) -> List[SessionTicket]:
        """All tickets, in submission order."""
        with self._lock:
            return sorted(self._tickets.values(), key=lambda t: t.seq)

    def ticket(self, session_id: str) -> SessionTicket:
        with self._lock:
            ticket = self._tickets.get(session_id)
            if ticket is None:
                raise KeyError(f"no ticket for session {session_id!r}")
            return ticket

    @property
    def idle(self) -> bool:
        """True when every submitted script has reached a terminal state."""
        with self._lock:
            return all(t.finished for t in self._tickets.values())

    def cancel(self, session_id: str) -> bool:
        """Cancel a session's remaining script (delivered reports stay).

        A search mid-slice finishes its current slice and is then
        discarded.  Returns False if the ticket was already finished.
        """
        with self._lock:
            ticket = self._tickets.get(session_id)
            if ticket is None or ticket.finished:
                return False
            ticket.state = "cancelled"
            if session_id in self._admission:
                self._admission.remove(session_id)
            if session_id in self._runnable:
                self._runnable.remove(session_id)
            # A leased worker notices the cancelled state on return and
            # drops the pending search; an unleased one is dropped here.
            if session_id not in self._leased:
                self._pending.pop(session_id, None)
                self._rollback_chunk(session_id)
                self._admit_next()
        self._release(session_id)
        return True

    # -- the scheduling loop -------------------------------------------------

    def step(self) -> bool:
        """One scheduling decision: pick a session, slice it, account.

        Returns True if a slice ran (False: nothing runnable — either
        all scripts finished or every runnable session is leased to
        another worker).
        """
        with self._lock:
            session_id = self._pick()
            if session_id is None:
                return False
            self._leased.add(session_id)
            ticket = self._tickets[session_id]
            pending = self._pending.get(session_id)
        try:
            delivered, pending, performed, opened = self._advance(
                ticket, pending
            )
        except Exception as exc:  # noqa: BLE001 - surfaced on the ticket
            with self._lock:
                self._leased.discard(session_id)
                self._pending.pop(session_id, None)
                self._rollback_chunk(session_id)
                # A cancel() that raced with this slice wins: the ticket
                # stays "cancelled" (its documented terminal state); the
                # error is still recorded for diagnosis.
                if ticket.state != "cancelled":
                    ticket.state = "failed"
                ticket.error = repr(exc)
                self._admit_next()
            self._release(session_id)
            return True
        with self._lock:
            self._leased.discard(session_id)
            if ticket.state == "cancelled":
                # cancel() registered the session when it ended the ticket.
                self._pending.pop(session_id, None)
                self._rollback_chunk(session_id)
                self._admit_next()
                return True
            ticket.slices += 1 if (performed or opened or delivered) else 0
            ticket.iterations += performed
            if pending is not None:
                self._pending[session_id] = pending
                ticket.preemptions += 1
            else:
                self._pending.pop(session_id, None)
            if delivered is not None:
                self._chunk_baseline.pop(session_id, None)
                ticket.reports.append(delivered)
                now = time.perf_counter()
                if ticket.first_interface_s is None:
                    ticket.first_interface_s = now - ticket.submitted_at
                ticket.chunk_index += 1
                if ticket.chunk_index >= len(ticket.chunks):
                    ticket.state = "done"
                    self._admit_next()
            finished = ticket.finished
            if not finished:
                self._runnable.append(session_id)
        if finished:
            self._release(session_id)
        return True

    def run(self, workers: int = 1, poll_s: float = 0.0005) -> List[SessionTicket]:
        """Drain every submitted script; returns the tickets.

        With ``workers > 1``, that many threads step sessions
        concurrently (the lease keeps each session single-threaded).
        """
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if workers == 1:
            while not self.idle:
                if not self.step():
                    time.sleep(poll_s)
            return self.tickets()

        def worker() -> None:
            while not self.idle:
                if not self.step():
                    time.sleep(poll_s)

        threads = [
            threading.Thread(
                target=_memo.bind_gates(worker), name=f"session-scheduler-{i}"
            )
            for i in range(workers)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        return self.tickets()

    # -- internals -----------------------------------------------------------

    def _release(self, session_id: str) -> None:
        """A script ended: register its session, now evictable (no lock held)."""
        self.engine._running.discard(session_id)
        self.engine.session(session_id)

    def _active_count(self) -> int:
        return sum(
            1
            for t in self._tickets.values()
            if t.state == "active"
        )

    def _admit(self, ticket: SessionTicket) -> None:
        """Move a queued ticket into the runnable set (lock held)."""
        now = time.perf_counter()
        ticket.state = "active"
        ticket.admitted_at = now
        ticket.queue_wait_s = now - ticket.submitted_at
        self._runnable.append(ticket.session_id)

    def _admit_next(self) -> None:
        """Fill freed admission slots from the wait queue (lock held)."""
        while self._admission and (
            self.max_active is None or self._active_count() < self.max_active
        ):
            self._admit(self._tickets[self._admission.pop(0)])

    def _rollback_chunk(self, session_id: str) -> None:
        """Un-append the current chunk after cancel/failure (lock held).

        The chunk's queries were ingested when its search opened; if no
        interface was ever delivered for them they must leave the log,
        or the session's next interface (and a resubmitted script) would
        be computed over queries the user never saw served.
        """
        baseline = self._chunk_baseline.pop(session_id, None)
        if baseline is not None:
            self.engine.router.truncate(session_id, baseline)

    def _pick(self) -> Optional[str]:
        """Choose the next session to slice (lock held).

        round_robin: head of the rotation queue.  fifo: earliest
        submission.  deadline: earliest deadline, submission order as
        tie-break.  Leased sessions are skipped (another worker owns
        them).
        """
        candidates = [sid for sid in self._runnable if sid not in self._leased]
        if not candidates:
            return None
        if self.policy == "round_robin":
            chosen = candidates[0]
        elif self.policy == "fifo":
            chosen = min(candidates, key=lambda sid: self._tickets[sid].seq)
        else:  # deadline
            chosen = min(
                candidates,
                key=lambda sid: (
                    self._tickets[sid].deadline(),
                    self._tickets[sid].seq,
                ),
            )
        self._runnable.remove(chosen)
        return chosen

    def _advance(
        self, ticket: SessionTicket, pending: Optional[PendingSearch]
    ) -> Tuple[Optional[GenerationReport], Optional[PendingSearch], int, bool]:
        """Slice one session (no scheduler lock held).

        Returns ``(delivered_report, still_pending, iterations, opened)``.
        """
        session_id = ticket.session_id
        opened = False
        performed = 0
        slice_spans: List[dict] = []
        with _collecting(slice_spans), _trace(
            "scheduler.slice",
            session=session_id,
            policy=self.policy,
            worker=threading.current_thread().name,
        ):
            if pending is None:
                chunk = ticket.chunks[ticket.chunk_index]
                with self._lock:
                    self._chunk_baseline.setdefault(
                        session_id, self._service.log_length(session_id)
                    )
                self.engine._touch_session(session_id)
                self._service.append(*chunk, session_id=session_id)
                pending = self._service.open_search(session_id)
                opened = True
            if pending.cached is None:
                if self.policy == "fifo":
                    performed = pending.task.step()
                else:
                    performed = pending.task.step(
                        n_iterations=self.slice_iterations, slice_s=self.slice_s
                    )
        # Attach this slice's spans to the session's pending record.  The
        # lease keeps per-session work single-threaded, so plain appends
        # are safe; identity-dedup keeps the spans open_search already
        # attached (collected by both levels) from appearing twice.
        seen = {id(span) for span in pending.spans}
        pending.spans.extend(s for s in slice_spans if id(s) not in seen)
        if pending.cached is not None:
            report = self._report(ticket, pending, searched=False)
            return report, None, 0, opened
        if not pending.task.done:
            return None, pending, performed, opened
        report = self._report(ticket, pending, searched=True)
        return report, None, performed, opened

    def _report(
        self, ticket: SessionTicket, pending: PendingSearch, searched: bool
    ) -> GenerationReport:
        """Package a delivered interface with scheduling provenance."""
        engine = self.engine
        if searched:
            task = pending.task
            # finish() collects its own spans into pending.spans and fills
            # pending.timings["search_s"/"render_s"] from the task clock.
            generated = pending.finish()
            scheduling_extra = {
                "slices": task.slices,
                "iterations": task.iterations,
            }
        else:
            generated = pending.cached
            scheduling_extra = {"slices": 0, "iterations": 0}
        now = time.perf_counter()
        timings = dict(pending.timings)
        timings["total_s"] = now - (ticket.admitted_at or ticket.submitted_at)
        stats = generated.search.stats
        report = GenerationReport(
            result=generated,
            source="search" if searched else "cache",
            strategy=generated.search.strategy,
            session_id=ticket.session_id,
            log_size=len(generated.queries),
            warm_states_seeded=stats.warm_states_seeded if searched else 0,
            cache_stats=engine.cache_stats,
            timings=timings,
            scheduling={
                "policy": self.policy,
                "queue_wait_s": ticket.queue_wait_s,
                "latency_s": now - ticket.submitted_at,
                "preemptions": ticket.preemptions,
                **scheduling_extra,
            },
            trace=list(pending.spans),
            snapshot=engine.restored_session(ticket.session_id),
        )
        _emit_report(report, verb="scheduler")
        return report
