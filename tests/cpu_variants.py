"""CPU-variant check: the golden reports and help screens under emulated older CPUs.

Run as ``python tests/cpu_variants.py``.  For each setting below, one fresh
interpreter starts with that setting in its environment and runs every case
of ``test_cli.GOLDEN_CASES`` and every ``tests/golden/help_*.txt`` screen
through ``cli.main`` in a loop, so three settings cost three process starts.
A case differs when its exit code or its stdout bytes differ from the
golden file.  The cases that differ are printed per setting, and the exit
code is 1 while any differ.

Both switches act only on the process they are set for: numpy reads
``NPY_DISABLE_CPU_FEATURES`` at import, and OpenBLAS, a ``DYNAMIC_ARCH``
build, reads ``OPENBLAS_CORETYPE`` when it loads.  Each emulates a CPU
without AVX-512, whose BLAS kernels and SIMD loops round in other orders.

The check stays out of tier-1 because it fails on the reference host: under
``OPENBLAS_CORETYPE=Haswell`` the two-phonon rates and the selection rule of
``decohere`` move in their last digits, and without numpy's AVX-512 loops
the tau sweep's grid and fits do.  ``compile`` and ``verify`` keep their
bytes under every setting: their decomposition runs in Python floats.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

_AVX2_BLAS = {"OPENBLAS_CORETYPE": "Haswell"}
_NO_AVX512_NUMPY = {"NPY_DISABLE_CPU_FEATURES": "X86_V4,AVX512_ICL,AVX512_SPR"}
SETTINGS = {
    "AVX2 BLAS": _AVX2_BLAS,
    "numpy without AVX-512": _NO_AVX512_NUMPY,
    "both": {**_AVX2_BLAS, **_NO_AVX512_NUMPY},
}


def _differing_cases() -> list[str]:
    """Every golden case and help screen through ``cli.main`` in this
    process; the names of those whose exit code or bytes differ."""
    from test_cli import GOLDEN, GOLDEN_CASES

    from dqdsim.cli import main

    cases = dict(GOLDEN_CASES)
    for path in sorted(GOLDEN.glob("help_*.txt")):
        command = path.stem.removeprefix("help_")
        cases[path.stem] = (path.name, 0, ([] if command == "dqdsim" else [command]) + ["-h"])
    os.chdir(GOLDEN)  # evolve echoes its schedule path
    differ = []
    for case, (name, expected_code, argv) in cases.items():
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            try:
                code = main(list(argv))
            except SystemExit as exc:  # help exits through argparse
                code = exc.code
        if (code, out.getvalue()) != (expected_code, (GOLDEN / name).read_text()):
            differ.append(case)
    return differ


def main() -> int:
    started = time.perf_counter()
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    failed = False
    for label, setting in SETTINGS.items():
        # argparse wraps help to the terminal width, which it reads from COLUMNS.
        env = {**os.environ, **setting, "COLUMNS": "80", "PYTHONPATH": path}
        proc = subprocess.run([sys.executable, __file__, "--in-process"], env=env,
                              capture_output=True, text=True)
        shown = " ".join(f"{key}={value}" for key, value in setting.items())
        if proc.returncode != 0:
            print(f"ERROR     {label} ({shown}): exit {proc.returncode}\n{proc.stderr[-3000:]}")
            failed = True
            continue
        differ = json.loads(proc.stdout)
        failed = failed or bool(differ)
        print(f"{len(differ):2} differ  {label} ({shown}){': ' if differ else ''}"
              f"{', '.join(differ)}")
    print(f"{len(SETTINGS)} settings, {time.perf_counter() - started:.1f} s")
    return 1 if failed else 0


if __name__ == "__main__":
    if sys.argv[1:] == ["--in-process"]:
        print(json.dumps(_differing_cases()))
    else:
        sys.exit(main())
