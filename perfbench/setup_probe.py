"""Time one benchmark set-up in a fresh interpreter and print the seconds.

    python3 perfbench/setup_probe.py <workload> <seed>

A set-up imports coregauge from ``src/`` and prepares the workload's inputs
(instance generation and instance files); ``run.py`` reports the median of
several, so that work moved into import or set-up shows.
"""

import sys
import tempfile
from pathlib import Path

from workloads import WORKLOADS, timed_setup

ROOT = Path(__file__).resolve().parent.parent


def main() -> None:
    workload, seed = WORKLOADS[sys.argv[1]], int(sys.argv[2])
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as workdir:
        *_, seconds = timed_setup(workload, seed, ROOT / "src", workdir)
    print(seconds)


if __name__ == "__main__":
    main()
