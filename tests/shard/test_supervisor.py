"""Supervisor edge cases: drain-time death, double-crash, hang vs slow batch,
and the monitor/stop() ownership of the process handles.

These spawn real worker processes, so matrices stay small and every
test uses one or two shards.  Fault sites fire deterministically
(probability 1.0 with ``after``/``count``), never on registration
frames — see ``repro.shard.worker``.
"""

import threading

import numpy as np
import pytest

from repro.baselines.cublas import cublas_hgemm
from repro.serve import SpmmRequest
from repro.shard import Supervisor
from repro.shard.supervisor import _WorkerState
from tests.conftest import random_vector_sparse


@pytest.fixture()
def matrix(rng):
    return random_vector_sparse(64, 128, v=4, sparsity=0.9, rng=rng)


def _panel(rng, k=128, n=8):
    return rng.standard_normal((k, n)).astype(np.float16)


def _request(name, b):
    # v2 pins the block tile, keeping worker results deterministic.
    return SpmmRequest(matrix=name, b=b, version="v2")


class TestDrainDeath:
    def test_worker_dying_during_drain_is_counted_not_respawned(
        self, rng, matrix, tmp_path
    ):
        """The kill site fires on the *drain* frame (work frame #2 after
        one served request): stop() must complete anyway, count the
        crash, and never respawn into a closing tier."""
        sup = Supervisor(
            workers=1,
            cache_dir=tmp_path,
            fault_sites=[
                {"site": "shard.kill", "probability": 1.0, "after": 1, "count": 1}
            ],
        )
        with sup:
            sup.wait_ready()
            sup.router.register_matrix("w0", matrix)
            res = sup.router.submit(_request("w0", _panel(rng))).result(timeout=60)
            assert res.stats.route != "dense"
        # stop() ran inside the context manager: the drain frame was the
        # second work frame and killed the worker mid-drain.
        assert sup.crashes == 1
        assert sup.respawns == 0


class TestDoubleCrash:
    def test_double_crash_in_one_redelivery_window_poisons(
        self, rng, matrix, tmp_path
    ):
        """Every incarnation dies on its first work frame: home shard
        crashes, the redelivered request crashes the sibling too, and
        with max_redeliveries=1 the matrix degrades to router-local
        dense — zero lost, crashes contained."""
        b = _panel(rng)
        sup = Supervisor(
            workers=2,
            cache_dir=tmp_path,
            max_redeliveries=1,
            fault_sites=[
                {"site": "shard.kill", "probability": 1.0, "after": 0, "count": 1}
            ],
        )
        with sup:
            sup.wait_ready()
            sup.router.register_matrix("w0", matrix)
            res = sup.router.submit(_request("w0", b)).result(timeout=60)
            assert res.stats.route == "dense"
            assert "w0" in sup.router.poisoned_matrices
            expected = cublas_hgemm(
                np.ascontiguousarray(matrix, dtype=np.float16), b
            ).c
            assert np.array_equal(res.c, expected)
        assert sup.crashes >= 2  # home + sibling, at minimum


class TestLivenessDisambiguation:
    def test_slow_batch_keeps_beating_and_is_not_killed(
        self, rng, matrix, tmp_path
    ):
        """A batch far slower than the heartbeat timeout must not be
        mistaken for a hang: heartbeats run on their own thread."""
        sup = Supervisor(
            workers=1,
            cache_dir=tmp_path,
            slow_batch_s=1.0,
            heartbeat_interval_s=0.05,
            heartbeat_timeout_s=0.4,
        )
        with sup:
            sup.wait_ready()
            sup.router.register_matrix("w0", matrix)
            res = sup.router.submit(_request("w0", _panel(rng))).result(timeout=60)
            assert res.stats.route != "dense"
            assert sup.crashes == 0
        assert sup.respawns == 0

    def test_hang_misses_heartbeats_and_is_killed_and_redelivered(
        self, rng, matrix, tmp_path
    ):
        """A genuine hang (work frame #2 of the home shard) stops the
        beats; the supervisor kills the worker and the in-flight request
        lands on the sibling — served, not lost, not poisoned."""
        sup = Supervisor(
            workers=2,
            cache_dir=tmp_path,
            heartbeat_interval_s=0.05,
            heartbeat_timeout_s=0.4,
            # The sibling's drain frame is its own work frame #2 and hangs
            # too; keep the forced-kill wait at stop() short.
            drain_timeout_s=2.0,
            fault_sites=[
                {"site": "shard.hang", "probability": 1.0, "after": 1, "count": 1}
            ],
        )
        with sup:
            sup.wait_ready()
            sup.router.register_matrix("w0", matrix)
            # Work frame #1 on w0's home shard: served normally.
            first = sup.router.submit(_request("w0", _panel(rng))).result(timeout=60)
            assert first.stats.route != "dense"
            # Work frame #2 hangs the home shard; the sibling (work
            # frame #1 from its point of view) serves the redelivery.
            res = sup.router.submit(_request("w0", _panel(rng))).result(timeout=60)
            assert res.stats.route != "dense"
            assert sup.router.redeliveries >= 1
            assert "w0" not in sup.router.poisoned_matrices
            assert sup.crashes >= 1
            assert sup.respawns >= 1


class _FakeProc:
    """A worker process handle that, like ``mp.Process``, raises once closed.

    The monitor thread's first ``exitcode`` read runs ``on_monitor_read``
    first, which parks the monitor mid-tick until the test releases it.
    """

    def __init__(self, on_monitor_read):
        self.on_monitor_read = on_monitor_read
        self.closed = False
        self.closed_while_monitor_alive = None
        self.monitor = None
        self._exitcode = None

    @property
    def exitcode(self):
        if self.on_monitor_read is not None and threading.current_thread() is self.monitor:
            hook, self.on_monitor_read = self.on_monitor_read, None
            hook()
        if self.closed:
            raise ValueError("process object is closed")
        return self._exitcode

    def join(self, timeout=None):
        if self.closed:
            raise ValueError("process object is closed")
        self._exitcode = 0  # drained and exited cleanly

    def close(self):
        self.closed_while_monitor_alive = self.monitor.is_alive()
        self.closed = True
        self.monitor.release.set()


class _MonitorThread(threading.Thread):
    """The supervisor's monitor loop, recording what it raised.

    Joining it releases a parked tick, so a ``stop()`` that waits for the
    monitor before closing handles does not deadlock on the test's hook.
    """

    def __init__(self, loop):
        super().__init__(target=self._run_loop, name="shard-monitor", daemon=True)
        self.loop = loop
        self.release = threading.Event()
        self.error = None

    def _run_loop(self):
        try:
            self.loop()
        except Exception as exc:
            self.error = exc

    def join(self, timeout=None):
        self.release.set()
        super().join(timeout)


class _IdleRouter:
    def live_shards(self):
        return []

    def close(self):
        pass


class TestStopMonitorRace:
    def test_stop_closes_no_process_under_a_running_monitor_tick(self, tmp_path):
        """The monitor is parked between its fleet snapshot and its exit
        code read while stop() runs.  stop() must wait for that tick to
        end before it closes the handle the tick is about to read."""
        sup = Supervisor(workers=1, cache_dir=tmp_path, monitor_interval_s=0.001)
        sup.router = _IdleRouter()
        in_tick = threading.Event()
        monitor = _MonitorThread(sup._monitor_loop)

        def park():
            in_tick.set()
            assert monitor.release.wait(timeout=30)

        proc = _FakeProc(on_monitor_read=park)
        proc.monitor = monitor
        sup._workers[0] = _WorkerState(proc, incarnation=0)
        sup._monitor = monitor
        monitor.start()
        assert in_tick.wait(timeout=30)

        sup.stop()

        assert monitor.error is None
        assert not monitor.is_alive()
        assert proc.closed
        assert proc.closed_while_monitor_alive is False
