"""Time one benchmark set-up in a fresh interpreter and print the seconds.

    python3 bench/setup_probe.py <workload> <seed> <full|tiny>

Set-up is what precedes a workload's first timed job: importing steinhaus,
loading the frozen expected values and building the seeded job list.
"""

import sys
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
start = perf_counter()
import jobs  # noqa: E402  (imports steinhaus)

jobs.build(sys.argv[1], int(sys.argv[2]), sys.argv[3])
jobs.load_expected()
print(perf_counter() - start)
