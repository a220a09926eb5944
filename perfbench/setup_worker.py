"""Times the program's set-up (config load, dataset build, build_trainer)
in a process of its own:

    python3 perfbench/setup_worker.py CONFIG REPS

Prints one JSON list of REPS set-up times in seconds. `workloads.py`
starts it several times to take `setup_s` over fresh processes.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import mlaan.cli  # noqa: E402

from workloads import setup_once  # noqa: E402


def main(argv) -> int:
    cfg_path, reps = argv[0], int(argv[1])
    print(json.dumps([setup_once(mlaan.cli, cfg_path)[0] for _ in range(reps)]))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
