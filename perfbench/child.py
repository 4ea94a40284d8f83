"""Fresh-interpreter helpers of the dqdsim benchmark.

``python child.py setup <workload>``
    Imports numpy and dqdsim, runs the workload's untimed warm-up and prints
    one JSON line: the ``time.monotonic()`` instant it became ready (the
    clock is system-wide, so the parent can subtract its spawn instant) and
    the two import times.

``python child.py trace-op <spans.jsonl> <dqdsim cli arguments...>``
    Runs ``dqdsim.cli.main`` like ``python -m dqdsim.cli`` would, with the
    layer tracer installed, writes the spans and exits with the CLI's code.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path


def setup(workload: str) -> int:
    start = time.monotonic()
    import numpy  # noqa: F401
    numpy_done = time.monotonic()
    import dqdsim.cli  # noqa: F401
    dqdsim_done = time.monotonic()
    import workloads

    wl = workloads.WORKLOADS[workload](workloads.WORK_DIR)
    wl.warm_up()
    print(json.dumps({"ready": time.monotonic(), "import_numpy_s": numpy_done - start,
                      "import_dqdsim_s": dqdsim_done - numpy_done}))
    return 0


def trace_op(spans_path: str, argv: list[str]) -> int:
    import dqdsim.cli
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        rc = dqdsim.cli.main(argv)
    finally:
        tracer.uninstall()
        tracer.write(Path(spans_path))
    return rc


if __name__ == "__main__":
    if sys.argv[1] == "setup":
        sys.exit(setup(sys.argv[2]))
    sys.exit(trace_op(sys.argv[2], sys.argv[3:]))
