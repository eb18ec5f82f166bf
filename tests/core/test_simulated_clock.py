"""The simulated clock, pinned: exact profiles, whatever is memoized.

The tile kernels' timing model produces the paper's metric
(``benchmarks/RESULTS.txt``), and serving launches read it from a memo
(:func:`~repro.core.kernels.base.jigsaw_profile`).  The golden below pins
exact ``duration_us`` values (compared with ``==``) for v0–v4, v4's
winning BLOCK_TILE, and one compiled launch on three seeded shapes, so
neither the memo nor a change to the accounting can move the clock
unnoticed.  Regenerate the literals only when a change means to move the
clock, and say why in CHANGES.md.
"""

import numpy as np
import pytest

from repro.core import JigsawPlan
from repro.gpu import A100
from tests.conftest import random_vector_sparse

#: (m, k, v, sparsity, n, seed) -> exact simulated duration_us per launch.
GOLDEN = {
    (64, 128, 4, 0.9, 32, 1): {
        "v0": 1.383709449697925,
        "v1": 1.383709449697925,
        "v2": 1.2024513232203835,
        "v3": 1.2024477114525873,
        "v4": 1.0901343926065303,
        "v4_block_tile": 16,
        "compiled": 1.0889526694247438,
    },
    (128, 256, 8, 0.8, 64, 2): {
        "v0": 1.8107911413186237,
        "v1": 1.8107911413186237,
        "v2": 1.3730576897819806,
        "v3": 1.3730450485946941,
        "v4": 1.2619110607205846,
        "v4_block_tile": 16,
        "compiled": 1.1743939617809298,
    },
    (256, 128, 4, 0.98, 64, 7): {
        "v0": 1.1008486012608352,
        "v1": 1.1008486012608352,
        "v2": 1.089830575256107,
        "v3": 1.089825157604413,
        "v4": 1.0339261010419403,
        "v4_block_tile": 32,
        "compiled": 1.0330577718676122,
    },
}


def _problem(m, k, v, sparsity, n, seed):
    rng = np.random.default_rng(seed)
    a = random_vector_sparse(m, k, v=v, sparsity=sparsity, rng=rng)
    b = rng.standard_normal((k, n)).astype(np.float16)
    return a, b


def _block_tile(profile) -> int:
    """BLOCK_TILE of a tile launch, from its ``jigsaw_<ver>_bt<N>`` name."""
    return int(profile.kernel_name.rsplit("_bt", 1)[1])


@pytest.mark.parametrize("shape", list(GOLDEN), ids=lambda s: "x".join(map(str, s)))
class TestGolden:
    def test_exact_durations(self, shape):
        a, b = _problem(*shape)
        plan = JigsawPlan(a)
        want = GOLDEN[shape]
        for version in ("v0", "v1", "v2", "v3", "v4"):
            prof = plan.run(b, version=version, want_output=False).profile
            assert prof.duration_us == want[version], version
            if version == "v4":
                assert _block_tile(prof) == want["v4_block_tile"]
        compiled = plan.run_compiled(b, want_output=False).profile
        assert compiled.duration_us == want["compiled"]

    def test_warm_launch_repeats_cold_launch(self, shape):
        # A second launch reads the memo; with output on, it must still
        # report the golden clock.
        a, b = _problem(*shape)
        plan = JigsawPlan(a)
        cold = plan.run(b)
        warm = plan.run(b)
        assert warm.profile == cold.profile
        assert warm.profile.duration_us == GOLDEN[shape]["v4"]
        assert np.array_equal(warm.c, cold.c)


class TestDeviceKey:
    """A ``DeviceSpec.with_`` variant keeps its base's name; the memos must
    still tell the two devices apart."""

    def test_same_name_devices_do_not_alias(self, rng):
        small = A100.with_(num_sms=4)
        assert small.name == A100.name
        a = random_vector_sparse(256, 256, v=8, sparsity=0.9, rng=rng)
        b = rng.standard_normal((256, 128)).astype(np.float16)
        plan = JigsawPlan(a)
        for launch in (
            lambda p, dev: p.run_compiled(b, device=dev, want_output=False),
            lambda p, dev: p.run(b, device=dev, want_output=False),
        ):
            got = {dev: launch(plan, dev).profile for dev in (A100, small)}
            fresh = {dev: launch(JigsawPlan(a), dev).profile for dev in (A100, small)}
            assert fresh[A100] != fresh[small]
            assert got == fresh
