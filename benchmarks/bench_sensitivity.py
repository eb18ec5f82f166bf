"""Device-sensitivity ablation of the simulated substrate.

Not a paper figure — an ablation of the design choices DESIGN.md calls
out.  It perturbs one device axis at a time (DRAM bandwidth, tensor-core
throughput, SM count, L2 bandwidth) and checks Jigsaw's advantage reacts
in the physically expected direction:

* more TC throughput helps the compute-bound cuBLAS more than the
  memory-lean Jigsaw (speedup grows);
* more DRAM/L2 bandwidth helps Jigsaw's gathers (speedup does not
  collapse);
* fewer SMs hurt both roughly equally (speedup roughly stable).
"""

from conftest import run_artifact


def test_device_sensitivity(benchmark):
    points = run_artifact("sensitivity", benchmark)

    by = {(p.axis, p.scale): p for p in points}
    baseline = by[("dram_bandwidth", 1.0)].speedup
    assert baseline > 1.0  # Jigsaw wins on the stock A100 at 95%/v=8

    # Doubling TC throughput speeds the dense baseline; halving slows it.
    assert by[("tensor_core_throughput", 2.0)].cublas_us < by[
        ("tensor_core_throughput", 0.5)
    ].cublas_us
    # Halving DRAM bandwidth must not flip the result (Jigsaw moves less).
    assert by[("dram_bandwidth", 0.5)].speedup > 0.8
    # SM count scales both sides; the ratio stays within 2x of baseline.
    for scale in (0.5, 2.0):
        ratio = by[("sm_count", scale)].speedup / baseline
        assert 0.4 < ratio < 2.5

    # Every configuration still simulates successfully.
    assert all(p.jigsaw_us > 0 and p.cublas_us > 0 for p in points)
