"""Repository benchmark: four named workloads, timed end to end and per layer.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

``--workload all`` runs the four workloads in turn, each in its own
interpreter.

Workloads (why each was chosen is recorded in ``BENCHMARK.json``):

* ``splash_fig9`` -- the Figure 9 matrix: 11 SPLASH kernels x
  HCC/Base/B+M/B+I/B+M+I on the 16-core block, ``base`` model.
* ``nas_fig12`` -- the Figure 12 matrix: cg/ep/ep_hier/is/jacobi x
  HCC/Base/Addr/Addr+L on 4 blocks x 8 cores; inputs from ``--seed``
  (seed 0 gives fig12's own inputs).
* ``models_fig9`` -- the fig9 matrix under ``--model rc`` and
  ``--model sisd`` (HCC cells resolve to ``hcc``).
* ``serve_mix`` -- two closed-loop clients against an in-process job
  server (two workers, journal on) submitting seeded ``gen`` jobs.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
ones from a separate traced run.  Either way the last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; the lines above it repeat every metric with its unit, the
failed operations with their reasons, and the simulated-statistics
fingerprint.  Traced runs also write their spans to
``perfbench/out/spans-WORKLOAD-seedN.jsonl`` when they end.

Host times are reported in nominal seconds: each measured interval is
scaled by the time a fixed reference loop takes right around it (see
``measure.REF_SECONDS``), which cancels the host's own speed swings.
``setup_s`` is measured in fresh interpreters (``probe.py``), apart from
the steady-state timing.  The benchmark writes only under
``perfbench/out/`` and exits with status 2, printing no result, when the
simulator source (``src/repro``) is not next to it.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

from measure import nominal, peak_rss_mb, reference_time
from report import human_lines, result_line

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOADS = ("splash_fig9", "nas_fig12", "models_fig9", "serve_mix")
#: Fresh-interpreter set-ups timed per untraced run; the median is reported.
SETUP_PROBES = 5


def setup_seconds(workload: str, scratch: str) -> list[float]:
    """Nominal seconds from spawning a fresh interpreter to the workload being ready."""
    times = []
    for _ in range(SETUP_PROBES):
        before = reference_time()
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "probe.py"), workload, scratch],
            cwd=ROOT, stdout=subprocess.PIPE, text=True,
        )
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.communicate(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(
                f"set-up probe for {workload} failed (exit {proc.returncode})")
        times.append(nominal(elapsed, before, reference_time()))
    return times


def run_all(args) -> int:
    """Run every workload in its own interpreter, one after the other."""
    status = 0
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, check=False,
        )
        status = max(status, proc.returncode)
    return status


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",),
                   help="one workload, or all of them in turn")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: simulator source not found under {SRC}",
              file=sys.stderr)
        return 2
    # The benchmark picks engine, model and cache itself.
    for var in ("REPRO_ENGINE", "REPRO_MODEL", "REPRO_CACHE_DIR"):
        os.environ.pop(var, None)
    if args.workload == "all":
        return run_all(args)
    # One CPU for the run and the processes it starts, so that the
    # reference loop times the same CPU as the work it scales.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    sys.path.insert(0, str(SRC))
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    OUT.mkdir(exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="run-", dir=OUT)
    try:
        setup = [] if args.trace else setup_seconds(args.workload, scratch)
        if args.workload == "serve_mix":
            import servemix

            outcome = servemix.measure(args.seed, args.seconds,
                                       bool(args.trace), scratch)
        else:
            import sim

            outcome = sim.measure(args.workload, args.seed, args.seconds,
                                  bool(args.trace))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    if args.trace:
        metrics = declared["per_layer"]
        values = outcome.per_layer
        path = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
        outcome.spans.write(path)
        outcome.notes.append(f"spans written to {path.relative_to(ROOT)}")
    else:
        metrics = declared["end_to_end"]
        values = dict(outcome.end_to_end,
                      setup_s=statistics.median(setup),
                      peak_rss_mb=peak_rss_mb())
        outcome.notes.append(
            f"setup_s: median of {len(setup)} fresh interpreters: "
            + ", ".join(f"{s:.3f}" for s in setup))
    print("\n".join(human_lines(outcome, metrics, values)))
    print(result_line(outcome, metrics, values), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
