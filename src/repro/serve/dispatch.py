"""Batch dispatch: group ripeness, EDF ordering, and the dispatcher loop.

Mixed into :class:`~repro.serve.executor.BatchExecutor`.  The dispatcher
thread wakes when the earliest group comes due — the linger expiry, or
the scheduler's earlier EDF-promotion time when a member deadline
demands it — and hands ripe groups to the worker pool in
priority-weighted earliest-deadline-first order.  Batch execution entry
(`_execute_batch`) lives here too: it sheds already-expired members to
the per-request dense fallback before the live batch walks the route
chain (:mod:`repro.serve.routing`).
"""

from __future__ import annotations

from repro.obs import get_metrics
from repro.sched import group_sort_key

from .forming import _Entry, _Group


class _DispatchMixin:
    """Group-dispatch half of the executor (state lives on the executor)."""

    def _dispatch_locked(self, key: tuple[str, str, str]) -> None:
        group = self._groups.pop(key, None)
        if group is None or not group.entries:
            return
        self._spawn_locked(self._execute_batch, key, group.entries)

    def _flush_locked(self) -> None:
        for key, _g in self._ordered_groups(list(self._groups.items())):
            self._dispatch_locked(key)

    def _spawn_locked(self, fn, *args) -> None:
        """Hand ``fn`` to the pool, counted as running until it returns."""
        self._running += 1
        try:
            task = self._pool.submit(fn, *args)
        except BaseException:
            self._running -= 1
            raise
        task.add_done_callback(self._task_done)

    def _task_done(self, _task) -> None:
        with self._cond:
            self._running -= 1
            self._flush_if_idle_locked()

    def _flush_if_idle_locked(self) -> None:
        """Inside :meth:`flushing_when_idle`, dispatch every partial group
        once nothing runs: no completion can fill it any more."""
        if self._idle_flushers and self._running == 0 and not self._closed:
            self._flush_locked()

    def _group_due_t(self, g: _Group) -> float:
        """When a group should dispatch: linger expiry, or the scheduler's
        earlier EDF-promotion time when a member deadline demands it."""
        if self.scheduler is not None:
            return self.scheduler.due_t(
                g.oldest_t, self.batch_window_s, g.min_deadline_t
            )
        return g.oldest_t + self.batch_window_s

    def _ordered_groups(self, items: list[tuple]) -> list[tuple]:
        """Dispatch order for ready groups: FIFO, or weighted EDF."""
        if self.scheduler is None:
            return items
        return sorted(
            items,
            key=lambda kv: group_sort_key(
                kv[1].weight,
                kv[1].min_deadline_t,
                kv[1].oldest_t + self.batch_window_s,
            ),
        )

    def _note_promotion(self, g: _Group, now: float) -> None:
        """Record an EDF promotion (dispatch ahead of the linger window)."""
        s = self.scheduler
        if s is None or now >= g.oldest_t + self.batch_window_s:
            return  # normal ripeness, not a promotion
        promoted = [e for e in g.entries if e.deadline_t is not None]
        if not promoted:
            return
        s.note_promoted(len(promoted))
        for e in promoted:
            if e.span is not None:
                e.span.add_event("sched.promote", now, slack_s=e.deadline_t - now)

    def _dispatch_loop(self) -> None:
        while True:
            with self._cond:
                if self._closed:
                    return
                now = self._clock()
                due = [
                    (key, g)
                    for key, g in self._groups.items()
                    if g.entries and now >= self._group_due_t(g)
                ]
                for key, g in self._ordered_groups(due):
                    self._note_promotion(g, now)
                    self._dispatch_locked(key)
                waits = [
                    self._group_due_t(g) - now
                    for g in self._groups.values()
                    if g.entries
                ]
                self._cond.wait(timeout=max(min(waits), 0.0) if waits else None)

    # -- batch execution entry -------------------------------------------------

    def _execute_batch(
        self, key: tuple[str, str, str], entries: list[_Entry]
    ) -> None:
        name, version, _dtype = key
        start = self._clock()
        tracer = self.tracer
        queue_hist = get_metrics().histogram(
            "repro_queue_wait_seconds", "seconds a request waited before its batch"
        )
        slack_hist = get_metrics().histogram(
            "repro_sched_slack_seconds",
            "deadline slack remaining when a request's batch dispatched",
        )
        live: list[_Entry] = []
        for e in entries:
            if e.future.cancelled():
                continue
            e.queue_wait_s = start - e.submit_t
            queue_hist.observe(e.queue_wait_s)
            if e.span is not None:
                tracer.add_span(
                    "serve.queue", start_s=e.submit_t, end_s=start, parent=e.span
                )
            deadline = e.request.deadline_s
            if deadline is not None:
                slack_hist.observe(max(deadline - e.queue_wait_s, 0.0))
            if deadline is not None and e.queue_wait_s > deadline:
                if e.span is not None:
                    e.span.add_event(
                        "deadline.expired", start, deadline_s=deadline
                    )
                self._submit_expired_dense(e, batch_size=len(entries))
            else:
                live.append(e)
        if not live:
            return
        try:
            self._serve_live(name, version, live)
        except BaseException as exc:  # defense in depth: never leak a future
            for e in live:
                self._fail(e, exc)
        finally:
            # v4 autotune may have grown the plan past the budget.
            self.registry.enforce_budget()

    def _shed_expired_at_launch(self, live: list[_Entry]) -> list[_Entry]:
        """Drop entries whose deadline passed since batch formation.

        The formation-time check (above) covers queue wait; this one,
        run right before the kernel launch, additionally covers plan
        admission and route planning.  Expired entries take the dense
        fallback and are marked ``deadline_expired``.
        """
        now = self._clock()
        still: list[_Entry] = []
        for e in live:
            if e.deadline_t is not None and now - e.submit_t > e.request.deadline_s:
                if e.span is not None:
                    e.span.add_event(
                        "deadline.expired",
                        now,
                        deadline_s=e.request.deadline_s,
                        at="launch",
                    )
                self._submit_expired_dense(e, batch_size=len(live))
            else:
                still.append(e)
        return still

    def _submit_expired_dense(self, e: _Entry, batch_size: int) -> None:
        """Run an expired request's dense fallback on the pool.

        The request already missed its deadline; running it inline here
        would also delay the live batch it is no longer part of."""
        try:
            with self._cond:
                self._spawn_locked(self._run_dense, e, batch_size, True)
        except RuntimeError:
            # Pool already shutting down: serve inline rather than drop.
            self._run_dense(e, batch_size, expired=True)
