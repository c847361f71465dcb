"""Record the golden outputs the benchmark compares against.

    python3 perfbench/record_golden.py

Writes perfbench/golden/verify_all.seed831.json (`verify --suite all` at
the default seed).  Run it only at the commit that defines the baseline:
the file is the byte-identical gate for later changes, and re-recording
it after a change would hide what the change altered.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402


def main():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.pop("BZ_SEED", None)
    argv = list(workloads.VERIFY_ARGV)
    path = workloads.GOLDEN / f"verify_all.seed{workloads.DEFAULT_SEED}.json"
    proc = subprocess.run([sys.executable, "-m", "besselzeta.cli", *argv],
                          capture_output=True, env=env, cwd=ROOT)
    if proc.returncode:
        sys.exit(f"{' '.join(argv)} exited {proc.returncode}:\n{proc.stderr.decode()}")
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(proc.stdout)
    print(f"{path.relative_to(ROOT)}  {len(proc.stdout)} bytes")


if __name__ == "__main__":
    main()
