"""Tests for the device-sensitivity study."""

import pytest

from repro.analysis import AXES, perturbed_device, run_sensitivity
from repro.gpu import A100


class TestPerturbation:
    def test_scales_float_field(self):
        dev = perturbed_device("dram_bandwidth", 2.0)
        assert dev.dram_bandwidth_gbps == pytest.approx(2 * A100.dram_bandwidth_gbps)

    def test_scales_int_field(self):
        dev = perturbed_device("sm_count", 0.5)
        assert dev.num_sms == 54

    def test_never_drops_to_zero(self):
        dev = perturbed_device("sm_count", 0.001)
        assert dev.num_sms >= 1

    def test_rejects_unknown_axis(self):
        with pytest.raises(ValueError):
            perturbed_device("rgb_lighting", 2.0)

    def test_rejects_nonpositive_scale(self):
        with pytest.raises(ValueError):
            perturbed_device("sm_count", 0.0)

    def test_base_unmodified(self):
        perturbed_device("dram_bandwidth", 3.0)
        assert A100.dram_bandwidth_gbps == 1555.0


class TestSweep:
    def test_small_sweep_structure(self):
        points = run_sensitivity(
            m=128, k=128, n=128, scales=(1.0,), axes=("sm_count",)
        )
        assert len(points) == 1
        p = points[0]
        assert p.axis == "sm_count" and p.scale == 1.0
        assert p.jigsaw_us > 0 and p.cublas_us > 0
        assert p.speedup == pytest.approx(p.cublas_us / p.jigsaw_us)

    def test_sm_count_sweep_reaches_the_simulated_clock(self):
        # One plan serves every perturbed device, and a perturbed device
        # keeps A100's name: a profile memo keyed on the name would hand
        # the x0.05 point the x1 duration.
        points = run_sensitivity(
            m=128, k=128, n=128, scales=(0.05, 1.0), axes=("sm_count",)
        )
        few_sms, full = points
        assert few_sms.jigsaw_us > full.jigsaw_us
        assert few_sms.cublas_us > full.cublas_us

    def test_all_axes_registered(self):
        assert set(AXES) == {
            "dram_bandwidth",
            "tensor_core_throughput",
            "sm_count",
            "l2_bandwidth",
        }
