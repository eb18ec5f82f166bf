"""Section 2.2 — why Jigsaw uses mma.sp.m16n8k32, not m16n8k16.

The paper cites tensor-core microbenchmarks (Sun et al., TPDS'23):
"the m16n8k32 type of sparse tensor core can maintain the same latency
and bandwidth as dense MMA of the same size.  However, the m16n8k16
size tensor core instead decreases the overall throughput."

This design-choice ablation runs the same v3 kernel with both shapes:
k16 needs twice the instructions for the same math, doubling the
tensor-core pipe time, which costs end-to-end wherever the kernel is
compute-bound (dense-ish 2:4 data, e.g. VENOM-pruned at 50%).
"""

from repro.gpu import Op

from conftest import run_artifact


def test_sptc_shape_choice(benchmark):
    profiles = run_artifact("sptc_shape", benchmark)

    k32, k16 = profiles["k32"], profiles["k16"]
    # Twice the instructions, twice the tensor-core pipe time.
    mma32 = k32.instruction_mix.count(Op.MMA_SP_M16N8K32_F16)
    mma16 = k16.instruction_mix.count(Op.MMA_SP_M16N8K16_F16)
    assert mma16 == 2 * mma32
    assert k16.compute_limited_cycles > 1.9 * k32.compute_limited_cycles
    # End to end, k16 never wins and loses where compute matters.
    assert k16.duration_us >= k32.duration_us
