"""Set-up probe: in a fresh process, import sepcat, build a workload's seeded
inputs and warm it up, then print ``ready``.  The harness times it from spawn
to that line.

    python3 bench/probe.py <workload> <seed> <out dir>
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402  (needs src/ on the path first)


def main() -> None:
    name, seed, out = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
    workloads.setup(name, ROOT, seed, out)
    print("ready", flush=True)


if __name__ == "__main__":
    main()
