"""Set-up probe: a fresh interpreter gets one workload ready, then exits.

Run as ``python3 perfbench/probe.py WORKLOAD SCRATCH_DIR``.  It prints
``ready`` once the workload could start measuring: the simulator imported,
its registries filled and the workload's first ``Machine`` built, or for
``serve_mix`` the job server listening.  ``run.py`` times a few of these
from spawn to ``ready`` and reports the median as ``setup_s``.
"""

from __future__ import annotations

import pathlib
import shutil
import sys
import tempfile

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))


def main(workload: str, scratch: str) -> None:
    if workload == "serve_mix":
        import servemix

        workdir = tempfile.mkdtemp(prefix="probe-", dir=scratch)
        try:
            server = servemix.start_server(workdir)
            print("ready", flush=True)
            server.close()
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    else:
        import sim

        sim.first_machine(workload)
        print("ready", flush=True)


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2])
