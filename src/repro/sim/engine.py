"""The simulation environment: clock, event queue, and run loop.

The pending-event queue is split by *when* an entry lands (DESIGN.md
§14).  Zero-delay pushes — event ``succeed``/``fail``, resource grants,
process starts — are by far the most common scheduling operation and
always carry the current timestamp, so they go to plain FIFO deques
(one per priority) that stay sorted for free: timestamps are
non-decreasing push to push and the sequence counter is monotone.
Every future entry (timeouts, timer re-arms) goes to one binary heap,
and a pop compares the three heads.

Every entry is ``(time, priority, seq, event)`` and pops follow that
exact tuple order, which keeps the BLAKE2b schedule trace hash
bit-identical to a single global heap.
"""

from __future__ import annotations

import hashlib
import os
import typing as _t
from collections import deque
from heapq import heapify, heappop, heappush

from repro.sim.events import AllOf, AnyOf, Event, Timeout, Timer
from repro.sim.process import Process

#: Environment variable: when truthy, every new :class:`Environment`
#: starts with trace hashing enabled (see :meth:`Environment.enable_trace_hash`).
TRACE_HASH_ENV_VAR = "REPRO_TRACE_HASH"

#: Compaction trigger: at least this many suspected-stale timer
#: entries, and stale entries at least half of all queued future
#: entries (mirrors the dynamic-array doubling argument: compaction
#: work is amortised O(1) per cancellation).
_COMPACT_MIN_STALE = 64

_QueueEntry = _t.Tuple[float, int, int, Event]


class EmptySchedule(Exception):
    """Raised by :meth:`Environment.step` when no events remain."""


class Environment:
    """Owner of simulated time and the pending-event queue.

    Typical use::

        env = Environment()
        env.process(some_generator_function(env))
        env.run(until=10.0)

    Queue entries are ``(time, priority, seq, event)``; ``seq`` is a
    monotone tiebreaker so same-time events process in schedule order,
    which keeps runs deterministic.
    """

    #: Priority for events that must process before normal ones at the
    #: same timestamp (used internally for process-resume urgency).
    PRIORITY_URGENT = 0
    PRIORITY_NORMAL = 1

    __slots__ = (
        "_now",
        "_seq",
        "_active_process",
        "_step_hooks",
        "_trace",
        "svc_bus",
        # -- queue components ---------------------------------------
        "_due",
        "_due_urgent",
        "_future",
        # -- scheduler statistics (see sched_stats) -----------------
        "_depth",
        "_depth_hw",
        "_events_processed",
        "_timers_cancelled",
        "_stale_timers",
        "_timer_entries_purged",
        "_timer_compactions",
        "_bursts_coalesced",
        "_burst_events_saved",
        "_barriers_crossed",
        "_cross_shard_msgs",
        "_max_shard_skew_us",
    )

    def __init__(self, initial_time: float = 0.0) -> None:
        self._now = float(initial_time)
        #: Lazily-created per-environment instrumentation bus for the
        #: service runtime (see :func:`repro.svc.events.get_bus`).
        #: Lives on the environment so every service sharing a clock
        #: also shares one bus, without global registries.
        self.svc_bus: _t.Any = None
        #: Monotone tiebreaker, bumped inline on every push (an int
        #: increment is measurably cheaper than itertools.count on the
        #: hot scheduling path).
        self._seq = 0
        # Ready entries: pushed with the *current* timestamp, so each
        # deque is sorted by construction (non-decreasing clock,
        # monotone seq).  Urgent (priority 0) entries sort before
        # normal ones at the same instant.
        self._due: deque[_QueueEntry] = deque()
        self._due_urgent: deque[_QueueEntry] = deque()
        #: Binary heap of every future-time entry (and of same-instant
        #: entries with a nonstandard priority).  Only ever mutated in
        #: place: the run loops hold a local reference to it.
        self._future: list[_QueueEntry] = []
        self._depth = 0
        self._depth_hw = 0
        self._events_processed = 0
        self._timers_cancelled = 0
        self._stale_timers = 0
        self._timer_entries_purged = 0
        self._timer_compactions = 0
        self._bursts_coalesced = 0
        self._burst_events_saved = 0
        self._barriers_crossed = 0
        self._cross_shard_msgs = 0
        self._max_shard_skew_us = 0
        self._active_process: Process | None = None
        #: Callables invoked (with this env) after every processed
        #: event.  Empty in normal runs; the run loop only takes the
        #: instrumented path when a hook or the trace hash is active,
        #: so the fast loops stay branch-free.
        self._step_hooks: list[_t.Callable[["Environment"], None]] = []
        self._trace: "hashlib._Hash | None" = None
        if os.environ.get(TRACE_HASH_ENV_VAR, "") not in ("", "0"):
            self.enable_trace_hash()

    # -- clock -----------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulated time (seconds, by library convention)."""
        return self._now

    @property
    def active_process(self) -> Process | None:
        """The process currently executing, if any."""
        return self._active_process

    # -- factories -------------------------------------------------------
    def event(self) -> Event:
        """A fresh untriggered event."""
        return Event(self)

    def timeout(self, delay: float, value: _t.Any = None) -> Timeout:
        """An event firing ``delay`` time units from now."""
        return Timeout(self, delay, value)

    def timer(self, on_fire: _t.Callable[[Timer], None]) -> Timer:
        """A reschedulable timer calling ``on_fire(timer)`` when it fires.

        Unlike :meth:`timeout`, the returned :class:`Timer` starts
        idle — call :meth:`~repro.sim.events.Timer.arm` — and can be
        cancelled and re-armed indefinitely without allocating a new
        event per deadline change (see its docstring for the lazy
        cancellation contract).
        """
        return Timer(self, on_fire)

    def process(self, generator: _t.Generator, name: str | None = None) -> Process:
        """Spawn ``generator`` as a new simulation process."""
        return Process(self, generator, name=name)

    def all_of(self, events: _t.Sequence[Event]) -> AllOf:
        """An event firing when every given event has fired."""
        return AllOf(self, events)

    def any_of(self, events: _t.Sequence[Event]) -> AnyOf:
        """An event firing when any given event has fired."""
        return AnyOf(self, events)

    # -- scheduling ------------------------------------------------------
    def schedule(
        self,
        event: Event,
        delay: float = 0.0,
        priority: int = PRIORITY_NORMAL,
    ) -> None:
        """Queue ``event`` to be processed ``delay`` from now."""
        self._seq += 1
        entry = (self._now + delay, priority, self._seq, event)
        if delay == 0.0 and priority == 1:
            self._due.append(entry)
        elif delay == 0.0 and priority == 0:
            self._due_urgent.append(entry)
        else:
            # Future entries, and nonstandard priorities (the deques'
            # sortedness only holds for the two canonical levels).
            heappush(self._future, entry)
        d = self._depth + 1
        self._depth = d
        if d > self._depth_hw:
            self._depth_hw = d

    def _peek_entry(self) -> _QueueEntry | None:
        """The next entry in (time, priority, seq) order, not removed."""
        future = self._future
        best = future[0] if future else None
        due = self._due
        if due:
            head = due[0]
            if best is None or head < best:
                best = head
        urgent = self._due_urgent
        if urgent:
            head = urgent[0]
            if best is None or head < best:
                best = head
        return best

    def _pop_entry(self) -> _QueueEntry | None:
        """Remove and return the next entry, or ``None`` when empty."""
        due = self._due
        urgent = self._due_urgent
        future = self._future
        if urgent:
            head = urgent[0]
            src = urgent
            if due and due[0] < head:
                head = due[0]
                src = due
            if not future or head < future[0]:
                src.popleft()
                self._depth -= 1
                return head
        elif due:
            head = due[0]
            if not future or head < future[0]:
                due.popleft()
                self._depth -= 1
                return head
        elif not future:
            return None
        self._depth -= 1
        return heappop(future)

    # -- timer garbage compaction ----------------------------------------
    def _note_stale_timer(self) -> None:
        """A queued timer entry no longer matches its armed deadline."""
        stale = self._stale_timers + 1
        self._stale_timers = stale
        if stale >= _COMPACT_MIN_STALE and stale * 2 >= len(self._future):
            self._compact_futures()

    def _compact_futures(self) -> None:
        """Physically drop stale lazily-cancelled timer entries.

        Without this, a timer re-armed to a new deadline on every
        event (the fluid fabric under churn) leaves one garbage entry
        per re-arm in the queue until its old deadline passes —
        unbounded state for an unbounded re-arm rate.  Dropping an
        entry also removes its deadline from the timer's ``_queued``
        list, preserving :meth:`Timer.arm_at`'s invariant of at most
        one entry per distinct queued deadline.  Only the future heap
        is swept; due-deque entries pop within the current instant.
        """
        future = self._future
        survivors: list[_QueueEntry] = []
        for entry in future:
            event = entry[3]
            if type(event) is Timer and not (
                event._armed and event._deadline == entry[0]
            ):
                event._queued.remove(entry[0])
            else:
                survivors.append(entry)
        dropped = len(future) - len(survivors)
        future[:] = survivors
        heapify(future)
        self._depth -= dropped
        self._timer_entries_purged += dropped
        self._timer_compactions += 1
        self._stale_timers = 0

    # -- statistics -------------------------------------------------------
    def note_coalesced_burst(self, events_saved: int = 0) -> None:
        """Record one macro-event burst (see DESIGN.md §14)."""
        self._bursts_coalesced += 1
        self._burst_events_saved += events_saved

    def note_barrier(self, skew_s: float = 0.0) -> None:
        """Record one parallel-engine lookahead barrier (DESIGN.md §17).

        ``skew_s`` is the spread between the earliest and latest shard
        frontier at the barrier; the high-water mark is kept in integer
        microseconds so it folds into metrics counters.
        """
        self._barriers_crossed += 1
        skew_us = int(skew_s * 1e6)
        if skew_us > self._max_shard_skew_us:
            self._max_shard_skew_us = skew_us

    def note_cross_shard_msg(self, n: int = 1) -> None:
        """Record ``n`` messages routed through the inter-shard mailbox."""
        self._cross_shard_msgs += n

    def sched_stats(self) -> dict[str, int]:
        """Point-in-time scheduler counters (all monotone except depth)."""
        return {
            "events_processed": self._events_processed,
            "queue_depth": self._depth,
            "queue_depth_hw": self._depth_hw,
            "timers_cancelled": self._timers_cancelled,
            "timer_entries_purged": self._timer_entries_purged,
            "timer_compactions": self._timer_compactions,
            "bursts_coalesced": self._bursts_coalesced,
            "burst_events_saved": self._burst_events_saved,
            "barriers_crossed": self._barriers_crossed,
            "cross_shard_msgs": self._cross_shard_msgs,
            "max_shard_skew_us": self._max_shard_skew_us,
        }

    # -- instrumentation -------------------------------------------------
    def add_step_hook(
        self, hook: _t.Callable[["Environment"], None]
    ) -> None:
        """Run ``hook(env)`` after every processed event.

        Installing any hook switches :meth:`run` from the flattened
        fast loops to the instrumented loop, so hooks cost nothing
        until the first one is registered.  Used by the runtime
        sanitizer (:mod:`repro.analysis.sanitize`).
        """
        self._step_hooks.append(hook)

    def remove_step_hook(
        self, hook: _t.Callable[["Environment"], None]
    ) -> None:
        """Unregister a hook added with :meth:`add_step_hook`."""
        self._step_hooks.remove(hook)

    def enable_trace_hash(self) -> None:
        """Start accumulating a deterministic digest of the schedule.

        Every processed event folds ``(seq, time, event identity)``
        into a BLAKE2b accumulator; two runs of the same seeded
        simulation must produce identical digests, whether they run in
        this process or in a parallel sweep worker.  Event identity is
        the process name for :class:`Process` events and the class name
        otherwise — no ``id()``/``hash()`` values, so the digest is
        stable across interpreter instances.
        """
        if self._trace is None:
            self._trace = hashlib.blake2b(digest_size=16)

    def trace_hash(self) -> str:
        """Hex digest of the schedule so far (requires enable_trace_hash)."""
        if self._trace is None:
            raise RuntimeError(
                "trace hashing is not enabled on this environment; call "
                f"enable_trace_hash() or set {TRACE_HASH_ENV_VAR}=1"
            )
        return self._trace.hexdigest()

    def _dispatch(self, when: float, seq: int, event: Event) -> None:
        """Instrumented single-event dispatch (trace + step hooks)."""
        self._now = when
        if self._trace is not None:
            ident = (
                event.name if isinstance(event, Process)
                else type(event).__name__
            )
            self._trace.update(f"{seq}|{when!r}|{ident}\n".encode())
        event._process()
        for hook in self._step_hooks:
            hook(self)

    # -- run loop ----------------------------------------------------------
    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if none."""
        entry = self._peek_entry()
        return entry[0] if entry is not None else float("inf")

    def step(self) -> None:
        """Process exactly one event, advancing the clock to it."""
        entry = self._pop_entry()
        if entry is None:
            raise EmptySchedule()
        self._events_processed += 1
        when, _prio, seq, event = entry
        if self._step_hooks or self._trace is not None:
            self._dispatch(when, seq, event)
            return
        self._now = when
        event._process()

    def run(self, until: float | Event | None = None) -> _t.Any:
        """Run the simulation.

        * ``until=None`` — run until no events remain.
        * ``until=<number>`` — run until the clock reaches that time.
        * ``until=<Event>`` — run until that event fires; returns its
          value (raising its exception if it failed).
        """
        stop_at: float | None = None
        stop_event: Event | None = None
        if until is None:
            pass
        elif isinstance(until, Event):
            stop_event = until
        else:
            stop_at = float(until)
            if stop_at < self._now:
                raise ValueError(
                    f"until={stop_at} is in the past (now={self._now})"
                )

        if self._step_hooks or self._trace is not None:
            return self._run_instrumented(stop_at, stop_event)

        # The loop variants below are the peek()/step() loop with the
        # per-event method and property calls flattened out — this is
        # the simulator's innermost loop, so every attribute load per
        # event counts.
        # The processed-event count is kept in a loop-local int and
        # flushed once on exit: a local increment is several times
        # cheaper than a per-event attribute read-modify-write.  The
        # two hottest variants additionally inline _pop_entry's
        # due-head and future-heap cases; the urgent deque (process
        # starts/interrupts, comparatively rare) falls back to the
        # method, which re-derives the full three-way minimum.
        pop = self._pop_entry
        due = self._due
        urgent = self._due_urgent
        future = self._future
        n = 0
        if stop_event is not None:
            try:
                # ``callbacks is None`` == Event.processed without the
                # property call; re-check before every event.
                while stop_event.callbacks is not None:
                    if urgent:
                        entry = pop()
                        if entry is None:  # pragma: no cover - defensive
                            raise RuntimeError(
                                "simulation ran out of events before the "
                                f"requested stop event fired: {stop_event!r}"
                            )
                    else:
                        if due:
                            entry = due[0]
                            if future and future[0] < entry:
                                entry = heappop(future)
                            else:
                                due.popleft()
                        elif future:
                            entry = heappop(future)
                        else:
                            raise RuntimeError(
                                "simulation ran out of events before the "
                                f"requested stop event fired: {stop_event!r}"
                            )
                        self._depth -= 1
                    n += 1
                    self._now = entry[0]
                    entry[3]._process()
            finally:
                self._events_processed += n
            if stop_event._ok:
                return stop_event._value
            raise _t.cast(BaseException, stop_event._value)
        if stop_at is None:
            try:
                while True:
                    if urgent:
                        entry = pop()
                        if entry is None:  # pragma: no cover - defensive
                            return None
                    else:
                        if due:
                            entry = due[0]
                            if future and future[0] < entry:
                                entry = heappop(future)
                            else:
                                due.popleft()
                        elif future:
                            entry = heappop(future)
                        else:
                            return None
                        self._depth -= 1
                    n += 1
                    self._now = entry[0]
                    entry[3]._process()
            finally:
                self._events_processed += n
        peek = self._peek_entry
        try:
            while True:
                entry = peek()
                if entry is None:
                    return None
                if entry[0] > stop_at:
                    self._now = stop_at
                    return None
                pop()
                n += 1
                self._now = entry[0]
                entry[3]._process()
        finally:
            self._events_processed += n

    def _run_instrumented(
        self, stop_at: float | None, stop_event: Event | None
    ) -> _t.Any:
        """The run loop with per-event instrumentation enabled.

        Mirrors the fast-loop variants exactly (same stop semantics,
        same event order) but routes every event through
        :meth:`_dispatch` so the trace hash and step hooks see it.
        """
        pop = self._pop_entry
        if stop_event is not None:
            while stop_event.callbacks is not None:
                entry = pop()
                if entry is None:
                    raise RuntimeError(
                        "simulation ran out of events before the "
                        f"requested stop event fired: {stop_event!r}"
                    )
                self._events_processed += 1
                self._dispatch(entry[0], entry[2], entry[3])
            if stop_event._ok:
                return stop_event._value
            raise _t.cast(BaseException, stop_event._value)
        peek = self._peek_entry
        while True:
            entry = peek()
            if entry is None:
                return None
            if stop_at is not None and entry[0] > stop_at:
                self._now = stop_at
                return None
            pop()
            self._events_processed += 1
            self._dispatch(entry[0], entry[2], entry[3])

    def run_horizon(
        self, horizon: float, stop_event: Event | None = None
    ) -> bool:
        """Process every event strictly *before* ``horizon``.

        The conservative parallel engine's quantum step (DESIGN.md
        §17).  Unlike ``run(until=t)`` — which is inclusive at ``t`` —
        this never touches an event at or past the horizon: a
        cross-shard message sent at the quantum's earliest event time
        ``T_min`` with the minimum lookahead latency ``L`` lands
        exactly at the next horizon ``T_min + L``, so the exclusive
        bound is what guarantees injections never arrive in an
        already-executed quantum.

        On a normal quantum end the clock advances to ``horizon``.
        With ``stop_event`` set the loop additionally stops the moment
        that event has processed — returning ``True`` and leaving the
        clock at the stop event's time, exactly like
        ``run(until=event)`` (single-shard runs use this so their
        schedule stays bit-identical to a serial ``run``).  Returns
        whether ``stop_event`` has processed.
        """
        h = float(horizon)
        if h < self._now:
            raise ValueError(f"horizon={h} is in the past (now={self._now})")
        pop = self._pop_entry
        peek = self._peek_entry
        n = 0
        instrumented = bool(self._step_hooks) or self._trace is not None
        try:
            if stop_event is not None:
                while stop_event.callbacks is not None:
                    entry = peek()
                    if entry is None or entry[0] >= h:
                        self._now = h
                        return False
                    pop()
                    n += 1
                    if instrumented:
                        self._dispatch(entry[0], entry[2], entry[3])
                    else:
                        self._now = entry[0]
                        entry[3]._process()
                return True
            while True:
                entry = peek()
                if entry is None or entry[0] >= h:
                    self._now = h
                    return False
                pop()
                n += 1
                if instrumented:
                    self._dispatch(entry[0], entry[2], entry[3])
                else:
                    self._now = entry[0]
                    entry[3]._process()
        finally:
            self._events_processed += n
