"""The tile-launch profile memo (:func:`repro.core.jigsaw_profile`).

A hit returns what a cold miss computes; the key holds the width, the
kernel spec and the device; and an update to the format's content never
serves a stale profile.
"""

import sys
import threading

import numpy as np

from repro.core import JigsawPlan, jigsaw_profile
from repro.core.kernels import V3, V4
from tests.conftest import random_vector_sparse


class TestProfileMemo:
    def test_hit_equals_cold_miss(self, rng):
        a = random_vector_sparse(128, 256, v=4, sparsity=0.9, rng=rng)
        jm = JigsawPlan(a).format_for(32)
        first = jigsaw_profile(jm, 48, V4)
        hit = jigsaw_profile(jm, 48, V4)
        assert hit is first
        cold = jigsaw_profile(JigsawPlan(a).format_for(32), 48, V4)
        assert hit == cold
        # The key holds the width and the spec: neither aliases.
        assert jigsaw_profile(jm, 96, V4) != first
        assert jigsaw_profile(jm, 48, V3).kernel_name == "jigsaw_v3_bt32"

    def test_repaired_plan_starts_cold(self, rng):
        a = random_vector_sparse(128, 256, v=4, sparsity=0.9, rng=rng)
        plan = JigsawPlan(a)
        b = rng.standard_normal((256, 32)).astype(np.float16)
        before = plan.run(b).profile
        rows, cols = np.nonzero(a[:64])
        new = plan.updated(rows, cols, np.zeros(len(rows), dtype=np.float16))
        a2 = a.copy()
        a2[:64] = 0
        after = new.run(b).profile
        assert after == JigsawPlan(a2).run(b).profile
        assert after != before

    def test_concurrent_launches_share_one_profile(self, rng):
        # Pool threads share the memo: racing misses on one key must all
        # hand back the same profile, equal to a cold single-thread one.
        a = random_vector_sparse(128, 128, v=4, sparsity=0.9, rng=rng)
        b = rng.standard_normal((128, 32)).astype(np.float16)
        plan = JigsawPlan(a)
        for bt in plan.block_tiles:
            plan.format_for(bt)
        results, errors = [], []
        start = threading.Barrier(8)

        def launch():
            try:
                start.wait(timeout=30)
                results.append(plan.run(b, want_output=False).profile)
            except BaseException as exc:  # surfaced by the assert below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=launch) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not errors
        assert not any(t.is_alive() for t in threads)
        assert len(results) == 8
        assert all(p is results[0] for p in results)
        assert results[0] == JigsawPlan(a).run(b, want_output=False).profile
