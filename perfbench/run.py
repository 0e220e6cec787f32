"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a framekit checkout. The measurement runs in a
child process whose environment pins BLAS to one thread, puts the
checkout's src/ first on the path and drops FRAMEKIT_TOL; this process's
own environment is left as it was. Exits non-zero, printing no result,
when the checkout holds no framekit source or the run fails.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TIMEOUT_S = 175
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def pinned_env() -> dict:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env["PYTHONIOENCODING"] = "utf-8"
    env.pop("FRAMEKIT_TOL", None)
    return env


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if not os.path.isfile(os.path.join(ROOT, "src", "framekit", "__init__.py")):
        print(f"error: no framekit source under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    # its own process group, so a timeout also stops the cli processes it started
    proc = subprocess.Popen([sys.executable, os.path.join(HERE, "harness.py"), *argv],
                            cwd=ROOT, env=pinned_env(), start_new_session=True)
    try:
        return proc.wait(timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"error: run exceeded {TIMEOUT_S} s", file=sys.stderr)
        return 3
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()


if __name__ == "__main__":
    sys.exit(main())
