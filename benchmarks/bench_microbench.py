"""Tensor-core instruction microbenchmarks (paper Section 2.2's evidence).

The paper picks mma.sp.m16n8k32 because microbenchmarks [Sun et al.,
TPDS'23] show it matches the dense MMA's latency/bandwidth while
m16n8k16 halves throughput.  This bench prints the simulated device's
per-instruction table — throughput in effective fp16 FLOP/cycle/SM and
latency — and asserts the relationships the paper's choice rests on.
"""

from repro.gpu import A100

from conftest import run_artifact


def test_instruction_microbench(benchmark):
    rows = run_artifact("microbench", benchmark)
    by = {name: t for name, _, _, _, t in rows}

    # The paper's Section 2.2 relationships:
    # 1. mma.sp.m16n8k32 doubles dense m16n8k16 throughput (the 2x SpTC win).
    assert by["mma.sp.m16n8k32.f16"] == 2 * by["mma.m16n8k16.f16"]
    # 2. mma.sp.m16n8k16 gains nothing over the dense shape ("decreases
    #    the overall throughput" relative to the k32 sparse path).
    assert by["mma.sp.m16n8k16.f16"] == by["mma.m16n8k16.f16"]
    assert by["mma.sp.m16n8k16.f16"] == by["mma.sp.m16n8k32.f16"] / 2
    # 3. Dense shapes all hit the same peak (1024 MAC/cycle/SM on A100).
    assert by["mma.m16n8k16.f16"] == by["mma.m16n8k32.f16"] == by["mma.m8n8k16.f16"]
    assert by["mma.m16n8k16.f16"] == A100.tc_fp16_fma_per_sm_per_cycle
    # 4. CUDA cores are 4x below dense tensor cores.
    assert by["mma.m16n8k16.f16"] / by["hfma2"] == 4
