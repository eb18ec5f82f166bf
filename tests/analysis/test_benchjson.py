"""SubmitTimer: submit->result wall times for the serving benches."""

import threading
import time
from concurrent.futures import Future

import numpy as np
import pytest

from repro.analysis import SubmitTimer
from repro.serve import BatchExecutor, SpmmRequest
from tests.conftest import panel


def _resolve_later(future: Future, outcome: str, delay_s: float) -> None:
    def resolve():
        time.sleep(delay_s)
        if outcome == "ok":
            future.set_result("done")
        elif outcome == "error":
            future.set_exception(RuntimeError("boom"))
        else:
            future.cancel()

    threading.Thread(target=resolve).start()


class TestSubmitTimer:
    def test_only_successful_results_record_a_latency(self):
        timer = SubmitTimer()
        futures = {o: timer.submit(lambda _: Future(), o) for o in ("ok", "error", "cancel")}
        for outcome, future in futures.items():
            _resolve_later(future, outcome, 0.05)
        assert futures["ok"].result(timeout=5) == "done"
        assert isinstance(futures["error"].exception(timeout=5), RuntimeError)
        while not futures["cancel"].cancelled():
            time.sleep(0.005)
        (latency,) = timer.latencies_s
        assert 0.05 <= latency < 5.0

    def test_waits_out_callbacks_of_a_resolved_future(self):
        # A slow callback registered before the timer's keeps the timer's
        # from running for a while after result() has already returned.
        def submit(_):
            f = Future()
            f.add_done_callback(lambda _: time.sleep(0.2))
            return f

        timer = SubmitTimer()
        future = timer.submit(submit, "r")
        _resolve_later(future, "ok", 0.0)
        future.result(timeout=5)
        assert len(timer.latencies_s) == 1

    def test_run_serves_the_burst_in_order(self, registry, rng):
        panels = [panel(rng) for _ in range(3)]
        timer = SubmitTimer()
        with BatchExecutor(registry, max_batch=8) as ex:
            results = timer.run(ex, [SpmmRequest("w0", b) for b in panels], timeout=30)
        a = registry.matrix("w0").astype(np.float32)
        for r, b in zip(results, panels):
            np.testing.assert_allclose(r.c, a @ b.astype(np.float32), rtol=1e-3, atol=1e-2)
        assert len(timer.latencies_s) == 3

    def test_run_failing_submit_leaves_no_future_pending(self):
        futures = []

        class Executor:
            """Queues until flushed; one request is already in flight."""

            def submit(self, r):
                if r == "bad":
                    raise ValueError("bad request")
                futures.append(Future())
                if r == "in_flight":
                    futures[-1].set_running_or_notify_cancel()
                    _resolve_later(futures[-1], "ok", 0.1)
                return futures[-1]

            def flush(self):
                pass

        timer = SubmitTimer()
        with pytest.raises(ValueError, match="bad request"):
            timer.run(Executor(), ["queued", "in_flight", "bad", "never"])
        queued, in_flight = futures
        assert queued.cancelled()
        assert in_flight.done() and in_flight.result() == "done"
        assert len(timer.latencies_s) == 1
