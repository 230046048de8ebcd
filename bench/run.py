"""claimlab benchmark entry point.

    python3 bench/run.py --workload experiment-1x|verify-8x --seed N --seconds S --trace 0|1

Run from the repository root. Runs the workload in its own
single-threaded child process (bench/workload.py) with PYTHONHASHSEED
pinned to 0 and the package imported from src/, waits for it, and exits
with its code. The child's last line of output is the JSON result.
Workloads, metrics and their bounds are declared in BENCHMARK.json;
bench/NOTES.md says why they were chosen.
"""

from __future__ import annotations

import argparse
import os
import signal
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# A run must end within 180 s; the child is stopped a little before that.
CHILD_TIMEOUT_S = 170


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=("experiment-1x", "verify-8x"), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "claimlab" / "__init__.py").is_file():
        print(f"error: no claimlab package under {ROOT / 'src'}", file=sys.stderr)
        return 2

    env = dict(os.environ)
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = str(ROOT / "src")
    command = [
        sys.executable,
        str(ROOT / "bench" / "workload.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    # On SIGTERM, unwind through the finally below so the child is stopped too.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    child = subprocess.Popen(command, cwd=ROOT, env=env)
    try:
        return child.wait(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"error: workload did not finish within {CHILD_TIMEOUT_S} s", file=sys.stderr)
        return 3
    finally:
        if child.poll() is None:
            child.terminate()
            try:
                child.wait(timeout=10)
            except subprocess.TimeoutExpired:
                child.kill()
                child.wait()


if __name__ == "__main__":
    sys.exit(main())
