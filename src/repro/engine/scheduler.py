"""Multi-session scheduling over resumable search tasks.

The Engine's verbs serve one session at a time: a long search blocks
every session queued behind it (FIFO), so under concurrent load the p95
first-interface latency grows with the *sum* of all predecessors' work.
:class:`SessionScheduler` fixes that by exploiting the
:class:`~repro.search.common.SearchTask` state machine: every session's
search is opened once (warm-start and compiled-sequence carry included,
via :meth:`~repro.serve.IncrementalGenerator.open_search`) and then
*sliced* — a few iterations per slice, sessions interleaved — so short
work is never starved by long work in front of it.

A submission is a session *script*: an ordered list of query chunks.
The scheduler appends a chunk, slices the search for the grown log to
completion, delivers the :class:`~repro.engine.report.GenerationReport`
(with scheduling provenance), then moves to the session's next chunk —
the growing-log serving pattern.

Two policies:

* ``"round_robin"`` — runnable sessions rotate; each gets
  ``slice_iterations`` per turn.  Fair processor-sharing: p95
  first-interface latency is bounded by the *per-step* work of the
  cohort, not the sum of whole scripts.
* ``"fifo"`` — no preemption: the earliest-submitted session runs each
  search to completion.  This is the blocking baseline the serving
  benchmark (``benchmarks/bench_serving.py``) compares against.

Each ticket keeps its own account: slices, preemptions, iterations and
first-interface latency.

A script that ends (done or failed) registers its session through
:meth:`Engine.session`, so scheduled sessions obey the engine's
``max_sessions`` bound; a session whose script is running is not evicted.

A scheduler is driven from one thread: :meth:`SessionScheduler.run`
calls :meth:`SessionScheduler.step` on the caller's thread until no
session is runnable.  Search is CPU-bound Python, so worker threads
would only contend for the interpreter lock.  Each task owns its RNG
and clock, so iteration-capped sessions whose logs don't overlap
produce bit-for-bit the results of a serial engine.  (Sessions sharing
identical logs or log prefixes couple through the shared interface
cache — who hits whose entry depends on the interleaving, the same way
it depends on call order for serial callers.)
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, TYPE_CHECKING

from ..obs import collecting as _collecting, emit_report as _emit_report, trace as _trace
from ..serve.incremental import PendingSearch
from ..serve.stream import QueryLike
from .report import GenerationReport

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .core import Engine

#: Scheduling policies (see module docstring).
POLICIES = ("round_robin", "fifo")

#: Ticket lifecycle states.
TICKET_STATES = ("active", "done", "failed")


@dataclass
class SessionTicket:
    """One submitted session script and its scheduling account.

    Attributes:
        session_id: the serving session the script belongs to.
        chunks: the query batches still to be appended + served, in order.
        state: ``active`` → ``done`` / ``failed``.
        reports: one report per delivered interface, in chunk order.
        first_interface_s: submission-to-first-interface latency — the
            benchmark's headline metric.
        slices: task slices this session consumed (all searches).
        preemptions: slices that ended with the search still unfinished
            (the session was put back in the runnable queue).
        iterations: search iterations executed across all its searches.
        error: repr of the exception when ``state == "failed"``.
    """

    session_id: str
    chunks: List[Tuple[QueryLike, ...]]
    state: str = "active"
    reports: List[GenerationReport] = field(default_factory=list)
    first_interface_s: Optional[float] = None
    slices: int = 0
    preemptions: int = 0
    iterations: int = 0
    error: Optional[str] = None
    #: Monotone submission sequence number (FIFO order).
    seq: int = 0
    #: perf_counter timestamp of the submission (internal accounting).
    submitted_at: float = 0.0
    #: Index of the next chunk to append.
    chunk_index: int = 0

    @property
    def finished(self) -> bool:
        return self.state in ("done", "failed")


class SessionScheduler:
    """Slices many sessions' searches over the engine's serving state.

    Obtained from :meth:`Engine.scheduler`.  Typical use::

        scheduler = engine.scheduler(slice_iterations=16)
        for sid, chunks in workload.items():
            scheduler.submit(sid, chunks)
        tickets = scheduler.run()
        for ticket in tickets:
            print(ticket.session_id, ticket.first_interface_s,
                  [r.cost for r in ticket.reports])

    Args:
        engine: the owning :class:`Engine` (its incremental service,
            cache, and router are shared with the other verbs).
        slice_iterations: search iterations per ``round_robin`` slice.
            ``None`` = unbounded (a slice runs the search to completion).
        policy: ``"round_robin"`` or ``"fifo"``.
    """

    def __init__(
        self,
        engine: "Engine",
        slice_iterations: Optional[int] = 16,
        policy: str = "round_robin",
    ) -> None:
        if policy not in POLICIES:
            raise ValueError(f"policy must be one of {POLICIES}, got {policy!r}")
        if slice_iterations is not None and slice_iterations < 1:
            raise ValueError(
                f"slice_iterations must be >= 1 or None, got {slice_iterations}"
            )
        self.engine = engine
        #: Fail fast (before any submit) on a non-MCTS strategy.
        self._service = engine._incremental_service()
        self.slice_iterations = slice_iterations
        self.policy = policy
        self._tickets: Dict[str, SessionTicket] = {}
        #: Sessions eligible for their next slice, in rotation order.
        self._runnable: List[str] = []
        #: session id -> its currently open (unfinished) search.
        self._pending: Dict[str, PendingSearch] = {}
        #: session id -> log length before the current chunk's append —
        #: the rollback point if the chunk's interface is never
        #: delivered (a failed script must not pollute the session's log
        #: with unserved queries).
        self._chunk_baseline: Dict[str, int] = {}
        self._seq = 0

    # -- submission / introspection -----------------------------------------

    def submit(
        self, session_id: str, chunks: Sequence[Sequence[QueryLike]]
    ) -> SessionTicket:
        """Queue a session script: per chunk, append + serve an interface."""
        cleaned = [tuple(chunk) for chunk in chunks if len(tuple(chunk))]
        if not cleaned:
            raise ValueError("a session script needs at least one non-empty chunk")
        existing = self._tickets.get(session_id)
        if existing is not None and not existing.finished:
            raise ValueError(
                f"session {session_id!r} already has an unfinished ticket"
            )
        self._seq += 1
        ticket = SessionTicket(
            session_id=session_id,
            chunks=cleaned,
            seq=self._seq,
            submitted_at=time.perf_counter(),
        )
        self._tickets[session_id] = ticket
        self.engine._running.add(session_id)
        self._runnable.append(session_id)
        return ticket

    def tickets(self) -> List[SessionTicket]:
        """All tickets, in submission order."""
        return sorted(self._tickets.values(), key=lambda t: t.seq)

    def ticket(self, session_id: str) -> SessionTicket:
        ticket = self._tickets.get(session_id)
        if ticket is None:
            raise KeyError(f"no ticket for session {session_id!r}")
        return ticket

    # -- the scheduling loop -------------------------------------------------

    def step(self) -> bool:
        """One scheduling decision: pick a session, slice it, account.

        Returns True if a slice ran (False: every script has finished).
        """
        session_id = self._pick()
        if session_id is None:
            return False
        ticket = self._tickets[session_id]
        try:
            delivered, pending, performed, opened = self._advance(
                ticket, self._pending.get(session_id)
            )
        except Exception as exc:  # noqa: BLE001 - surfaced on the ticket
            self._pending.pop(session_id, None)
            self._rollback_chunk(session_id)
            ticket.state = "failed"
            ticket.error = repr(exc)
            self._release(session_id)
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
            if ticket.first_interface_s is None:
                ticket.first_interface_s = time.perf_counter() - ticket.submitted_at
            ticket.chunk_index += 1
            if ticket.chunk_index >= len(ticket.chunks):
                ticket.state = "done"
        if ticket.finished:
            self._release(session_id)
        else:
            self._runnable.append(session_id)
        return True

    def run(self) -> List[SessionTicket]:
        """Drain every submitted script on this thread; returns the tickets."""
        while self.step():
            pass
        return self.tickets()

    # -- internals -----------------------------------------------------------

    def _release(self, session_id: str) -> None:
        """A script ended: register its session, now evictable."""
        self.engine._running.discard(session_id)
        self.engine.session(session_id)

    def _rollback_chunk(self, session_id: str) -> None:
        """Un-append the current chunk after a failure.

        The chunk's queries were ingested when its search opened; if no
        interface was ever delivered for them they must leave the log,
        or the session's next interface (and a resubmitted script) would
        be computed over queries the user never saw served.
        """
        baseline = self._chunk_baseline.pop(session_id, None)
        if baseline is not None:
            self.engine.router.truncate(session_id, baseline)

    def _pick(self) -> Optional[str]:
        """Choose the next session to slice.

        round_robin: head of the rotation queue.  fifo: earliest
        submission.
        """
        if not self._runnable:
            return None
        if self.policy == "round_robin":
            chosen = self._runnable[0]
        else:
            chosen = min(self._runnable, key=lambda sid: self._tickets[sid].seq)
        self._runnable.remove(chosen)
        return chosen

    def _advance(
        self, ticket: SessionTicket, pending: Optional[PendingSearch]
    ) -> Tuple[Optional[GenerationReport], Optional[PendingSearch], int, bool]:
        """Slice one session.

        Returns ``(delivered_report, still_pending, iterations, opened)``.
        """
        session_id = ticket.session_id
        opened = False
        performed = 0
        slice_spans: List[dict] = []
        with _collecting(slice_spans), _trace(
            "scheduler.slice", session=session_id, policy=self.policy
        ):
            if pending is None:
                chunk = ticket.chunks[ticket.chunk_index]
                self._chunk_baseline.setdefault(
                    session_id, self._service.log_length(session_id)
                )
                self._service.append(*chunk, session_id=session_id)
                pending = self._service.open_search(session_id)
                opened = True
            if pending.cached is None:
                if self.policy == "fifo":
                    performed = pending.task.step()
                else:
                    performed = pending.task.step(n_iterations=self.slice_iterations)
        # Attach this slice's spans to the session's pending record;
        # identity-dedup keeps the spans open_search already attached
        # (collected by both levels) from appearing twice.
        seen = {id(span) for span in pending.spans}
        pending.spans.extend(s for s in slice_spans if id(s) not in seen)
        if pending.cached is None and not pending.task.done:
            return None, pending, performed, opened
        return self._report(ticket, pending), None, performed, opened

    def _report(
        self, ticket: SessionTicket, pending: PendingSearch
    ) -> GenerationReport:
        """Package a delivered interface with scheduling provenance."""
        # finish() returns a cache hit as it is; after a search it collects
        # its own spans into pending.spans and fills
        # pending.timings["search_s"/"render_s"] from the task clock.
        generated = pending.finish()
        task = pending.task
        now = time.perf_counter()
        timings = dict(pending.timings)
        timings["total_s"] = now - ticket.submitted_at
        report = self.engine._session_report(
            pending,
            generated,
            timings,
            scheduling={
                "policy": self.policy,
                "latency_s": now - ticket.submitted_at,
                "preemptions": ticket.preemptions,
                "slices": task.slices if task is not None else 0,
                "iterations": task.iterations if task is not None else 0,
            },
        )
        report.trace = list(pending.spans)
        _emit_report(report, verb="scheduler")
        return report
