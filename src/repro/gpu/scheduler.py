"""Kernel launch model: occupancy, wave quantization, and duration.

Kernels on this simulator do their tile math functionally with numpy and,
separately, *account* their dynamic behaviour into a :class:`KernelTrace`:
instruction events, shared-memory transactions (from real addresses),
global-memory sectors (from real addresses), and exposed pipeline stalls.
``simulate_launch`` converts a trace into a Nsight-style
:class:`~repro.gpu.profiler.KernelProfile` using a bounded-overlap model:

``duration = max(tc, cuda-core, smem, dram, issue) + exposed_stalls / hiding``

per wave, times the number of waves the grid needs on the device.  Wave
quantization matters: it reproduces both the cuBLAS N=256 -> 512 anomaly the
paper analyzes (a 6x over-launch of thread blocks) and the small-matrix
regime where CLASP's smaller blocks beat Jigsaw (paper Section 4.2).
"""

from __future__ import annotations

import math
import threading
from collections.abc import Callable, Hashable
from dataclasses import dataclass, field

from .asynccopy import StallEstimate
from .device import DeviceSpec, A100
from .instructions import InstructionMix
from .memory import GmemAccessStats
from .profiler import KernelProfile
from .registers import RegisterBudget
from .shared import SmemAccessStats


@dataclass
class BlockWork:
    """Accounted work of one (representative) thread block.

    ``weight`` is the number of launched blocks this representative stands
    for; kernels account each *distinct* block behaviour once and scale.
    """

    mix: InstructionMix = field(default_factory=InstructionMix)
    smem: SmemAccessStats = field(default_factory=SmemAccessStats)
    gmem: GmemAccessStats = field(default_factory=GmemAccessStats)
    stalls: StallEstimate = field(default_factory=StallEstimate)
    #: Gather traffic expected to be served by per-SM L1 (e.g. Sputnik's
    #: B-row gathers, which hit L1 because consecutive rows share columns).
    l1_gather_bytes: float = 0.0
    #: The block's dependent-operation critical path (pipeline fill plus
    #: serially-dependent load/MMA chains).  A wave cannot finish faster
    #: than its slowest block's critical path, which is what keeps short,
    #: latency-dominated kernels (high-sparsity SpMM) off the roofline.
    critical_path_cycles: float = 0.0
    weight: float = 1.0


@dataclass
class KernelTrace:
    """Everything the scheduler needs to time one kernel launch."""

    kernel_name: str
    threads_per_block: int
    smem_bytes_per_block: int
    regs_per_thread: int = 64
    fixed_overhead_cycles: float = 700.0  # prologue/epilogue, excl. launch
    #: Unique working-set bytes (A + B + C footprints).  DRAM is charged
    #: for at most this much; re-reads beyond it are L2 hits.  ``None``
    #: charges DRAM for all moved bytes (no-reuse worst case).
    footprint_bytes: float | None = None
    blocks: list[BlockWork] = field(default_factory=list)

    def add_block(self, work: BlockWork) -> None:
        if work.weight <= 0:
            raise ValueError("block weight must be positive")
        self.blocks.append(work)

    @property
    def grid_blocks(self) -> int:
        return int(round(sum(b.weight for b in self.blocks)))


def occupancy_blocks_per_sm(trace: KernelTrace, device: DeviceSpec = A100) -> int:
    """Co-resident blocks per SM under smem / thread / register limits."""
    if trace.threads_per_block <= 0:
        raise ValueError("threads_per_block must be positive")
    if trace.threads_per_block > 1024:
        raise ValueError("more than 1024 threads per block is not launchable")
    limits = [device.max_blocks_per_sm]
    limits.append(device.max_threads_per_sm // trace.threads_per_block)
    if trace.smem_bytes_per_block > 0:
        if trace.smem_bytes_per_block > device.smem_per_sm_bytes:
            raise ValueError(
                f"block needs {trace.smem_bytes_per_block} B shared memory; "
                f"device offers {device.smem_per_sm_bytes}"
            )
        limits.append(device.smem_per_sm_bytes // trace.smem_bytes_per_block)
    budget = RegisterBudget(trace.regs_per_thread)
    budget.validate(device)
    limits.append(budget.blocks_limited_by_registers(trace.threads_per_block, device))
    bps = max(1, min(limits))
    return bps


def simulate_launch(trace: KernelTrace, device: DeviceSpec = A100) -> KernelProfile:
    """Convert a kernel trace into a profiled duration."""
    if not trace.blocks:
        raise ValueError("trace has no blocks; nothing to launch")

    # ---- aggregate work over the whole grid --------------------------------
    total_mix = InstructionMix()
    total_smem = SmemAccessStats()
    total_gmem = GmemAccessStats()
    total_stall_cycles = 0.0
    total_long_sb = 0.0
    total_short_sb = 0.0
    total_l1_gather = 0.0
    for b in trace.blocks:
        total_mix.merge(b.mix.scaled(b.weight))
        total_smem.merge(b.smem.scaled(b.weight))
        total_gmem.merge(b.gmem.scaled(b.weight))
        total_stall_cycles += b.stalls.total * b.weight
        total_long_sb += b.stalls.long_scoreboard_cycles * b.weight
        total_short_sb += b.stalls.short_scoreboard_cycles * b.weight
        total_l1_gather += b.l1_gather_bytes * b.weight

    nblocks = trace.grid_blocks
    bps = occupancy_blocks_per_sm(trace, device)
    concurrent_blocks = bps * device.num_sms
    waves = nblocks / concurrent_blocks
    quantized_waves = math.ceil(waves)

    # ---- per-pipe service times (cycles, whole grid, ideal overlap) --------
    schedulers = device.warp_schedulers_per_sm * device.num_sms
    # Tensor-core math: the per-instruction issue cycles in COSTS are
    # calibrated for the A100's 1024 fp16 FMA/cycle/SM; scale for devices
    # with different tensor-core rates.  Same for the CUDA-core pipe.
    tc_scale = 1024.0 / device.tc_fp16_fma_per_sm_per_cycle
    fma_scale = 256.0 / device.cuda_fp16_fma_per_sm_per_cycle
    tc_cycles = total_mix.issue_cycles("tc") * tc_scale / schedulers
    fma_cycles = total_mix.issue_cycles("fma") * fma_scale / schedulers
    alu_cycles = total_mix.issue_cycles("alu") / schedulers
    # Shared memory: one warp transaction per cycle per SM (128 B/cycle).
    # Conflict replays occupy the banks but are replayed inside the LSU
    # without re-issuing, partially overlapping other warps' accesses —
    # charge them at half a cycle each.
    base_tx = total_smem.transactions - total_smem.conflicts
    smem_cycles = (base_tx + 0.5 * total_smem.conflicts) / device.num_sms
    # LSU issue pressure (address generation etc.).
    lsu_issue_cycles = total_mix.issue_cycles("lsu") / schedulers
    # Memory hierarchy: every moved byte crosses L2; DRAM is charged for
    # the unique footprint only (the rest are L2 hits); declared gather
    # traffic is served by the per-SM L1s.
    moved = float(total_gmem.moved_load_bytes + total_gmem.moved_store_bytes)
    l2_cycles = (moved + total_l1_gather * 0.1) / device.l2_bandwidth_bytes_per_clk
    dram_bytes = moved if trace.footprint_bytes is None else min(moved, trace.footprint_bytes)
    dram_cycles = dram_bytes / device.dram_bytes_per_cycle
    l1_cycles = total_l1_gather / (
        device.l1_bandwidth_bytes_per_clk_per_sm * device.num_sms
    )
    memory_cycles = max(dram_cycles, l2_cycles, l1_cycles)
    # Issue-slot pressure: each instruction occupies its scheduler for one
    # slot cycle; the per-unit issue_cycles above model *pipe* occupancy
    # (a TC mma keeps the tensor core busy 8 cycles but frees the
    # scheduler immediately).
    issue_cycles = total_mix.total() / schedulers

    overlap_bound = max(
        tc_cycles,
        fma_cycles,
        alu_cycles,
        smem_cycles,
        lsu_issue_cycles,
        memory_cycles,
        issue_cycles,
    )

    # ---- exposed stalls, shrunk by latency hiding ---------------------------
    warps_per_block = max(1, trace.threads_per_block // device.warp_size)
    co_warps_per_scheduler = max(
        1.0, bps * warps_per_block / device.warp_schedulers_per_sm
    )
    hiding = co_warps_per_scheduler
    exposed = total_stall_cycles / (device.num_sms * bps * hiding)

    # ---- wave quantization ---------------------------------------------------
    # Work distributes over full waves; a partial final wave still takes a
    # full wave's worth of its blocks' time.
    if waves > 0:
        quantization_penalty = quantized_waves / max(waves, 1e-12)
        # Saturated grids amortize the tail; tiny grids do not.
        quantization_penalty = min(quantization_penalty, 1.0 + 1.0 / max(1.0, waves))
    else:  # pragma: no cover - guarded by the nblocks check above
        quantization_penalty = 1.0

    # Latency floor: each wave is at least as long as its slowest block's
    # dependent-operation chain.
    critical_path = max((b.critical_path_cycles for b in trace.blocks), default=0.0)
    critical_floor = quantized_waves * critical_path

    duration_cycles = (
        max(overlap_bound * quantization_penalty, critical_floor)
        + exposed
        + trace.fixed_overhead_cycles
    )
    duration_us = duration_cycles / device.cycles_per_us

    issued = max(1.0, total_mix.total())
    profile = KernelProfile(
        kernel_name=trace.kernel_name,
        duration_cycles=duration_cycles,
        duration_us=duration_us,
        grid_blocks=nblocks,
        threads_per_block=trace.threads_per_block,
        blocks_per_sm=bps,
        waves=waves,
        instruction_mix=total_mix,
        smem=total_smem,
        gmem=total_gmem,
        warp_long_scoreboard=total_long_sb / issued,
        warp_short_scoreboard=total_short_sb / issued,
        compute_limited_cycles=max(tc_cycles, fma_cycles),
        memory_limited_cycles=memory_cycles,
        smem_limited_cycles=smem_cycles,
        issue_limited_cycles=issue_cycles,
        exposed_stall_cycles=exposed,
    )
    return profile


class ProfileMemo:
    """Thread-safe memo of simulated launch profiles.

    A plan owns one: executor pool threads share it.  A miss builds and
    simulates the trace outside the lock; racing misses on one key all
    return the first profile stored.  The caller's key must name
    everything the trace depends on besides the plan itself (width,
    kernel spec, the whole frozen device).
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._profiles: dict[Hashable, KernelProfile] = {}

    def profile(
        self, key: Hashable, trace: Callable[[], KernelTrace], device: DeviceSpec
    ) -> KernelProfile:
        with self._lock:
            prof = self._profiles.get(key)
        if prof is None:
            prof = simulate_launch(trace(), device)
            with self._lock:
                prof = self._profiles.setdefault(key, prof)
        return prof
