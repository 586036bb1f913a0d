"""Ablation: MEB/IEB sizing (DESIGN.md §6).

The paper sizes the MEB at 16 entries and the IEB at 4 (Table III).  The
buffers only earn their keep when a critical section touches several cache
lines, so this sweep uses a table-update microbenchmark: each critical
section performs a strided read-modify-write over an 8-line shared table
(stride interleaves across 4 lines at a time, the IEB's working set).  It
shows (a) diminishing returns past the paper's sizes and (b) graceful
degradation below them — overflow falls back to full WB ALL / redundant
invalidations, never to incorrect execution.

Raytrace (1-line critical sections) is included as a control: there the
buffer sizes barely matter, matching the intuition that the design sizes
target small-but-multi-line critical sections.
"""

import sys
import pathlib

sys.path.insert(0, str(pathlib.Path(__file__).parent))

from common import run_once, save_result

from repro import BufferParams, Machine, intra_block_machine
from repro.core.config import INTRA_BMI
from repro.isa import ops as isa
from repro.workloads import MODEL_ONE

MEB_SIZES = (0, 2, 4, 8, 16, 64)
IEB_SIZES = (0, 1, 2, 4, 16)

TABLE_WORDS = 128  # 8 lines
ROUNDS = 6


def cs_table_exec(meb: int, ieb: int) -> tuple[int, int]:
    """Run the CS-table microbenchmark; return (exec time, checksum)."""
    params = intra_block_machine(
        8, buffers=BufferParams(meb_entries=meb, ieb_entries=ieb)
    )
    machine = Machine(params, INTRA_BMI, num_threads=8)
    table = machine.array("table", TABLE_WORDS)

    def program(ctx):
        for _ in range(ROUNDS):
            yield from ctx.lock_acquire(0, occ=False)
            # Strided sweep: words 0,16,32,48, 1,17,33,49, ... touches 4
            # lines round-robin, so the IEB needs 4 live entries.
            for w in range(TABLE_WORDS // 2):
                word = (w % 4) * 16 + (w // 4)
                v = yield isa.Read(table.addr(word))
                yield isa.Write(table.addr(word), v + 1)
            yield from ctx.lock_release(0, occ=False)

    machine.spawn_all(program)
    stats = machine.run()
    checksum = sum(machine.read_word(a) for a in table.element_addrs())
    assert checksum == 8 * ROUNDS * (TABLE_WORDS // 2), "lost updates!"
    return stats.exec_time, checksum


def sweep():
    """The MEB/IEB sizing sweep; returns the rendered report text."""
    lines = ["CS-table microbenchmark, B+M+I, 8 cores", ""]
    lines.append("MEB sweep (IEB fixed at 4):")
    meb_times = {}
    for m in MEB_SIZES:
        meb_times[m], _ = cs_table_exec(m, 4)
        lines.append(f"  MEB={m:3d}  exec={meb_times[m]:8d}")
    lines.append("IEB sweep (MEB fixed at 16):")
    ieb_times = {}
    for i in IEB_SIZES:
        ieb_times[i], _ = cs_table_exec(16, i)
        lines.append(f"  IEB={i:3d}  exec={ieb_times[i]:8d}")
    # The paper's sizes sit at/above the knee.
    assert meb_times[16] <= 1.05 * meb_times[64]
    assert meb_times[2] > meb_times[16]  # too-small MEB overflows
    assert ieb_times[4] <= 1.05 * ieb_times[16]
    assert ieb_times[1] > ieb_times[4]  # too-small IEB thrashes
    # Control: raytrace's 1-line critical sections are size-insensitive.
    control = {}
    for m in (2, 16):
        params = intra_block_machine(
            16, buffers=BufferParams(meb_entries=m, ieb_entries=4)
        )
        machine = Machine(params, INTRA_BMI, num_threads=16)
        control[m] = MODEL_ONE["raytrace"](scale=0.5).run_on(machine).exec_time
    lines.append("")
    lines.append(
        f"control (raytrace, 1-line CS): MEB=2 -> {control[2]}, "
        f"MEB=16 -> {control[16]}"
    )
    return "\n".join(lines)


def test_buffer_size_ablation(benchmark):
    save_result("ablation_buffers", run_once(benchmark, sweep))
