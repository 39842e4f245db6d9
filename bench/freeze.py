"""Regenerate expected.json: the output of every job any workload or the
layer suite can draw, as the current source tree computes it.

    python3 bench/freeze.py

Run this only on the commit whose behaviour is the reference; the benchmark
then fails every job whose output differs from it.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import jobs  # noqa: E402
from steinhaus import admissible_classes, alpha, beta  # noqa: E402
from tracing import NullTracer  # noqa: E402


def main():
    expected = {}
    for scale in jobs.SCALES:
        for job in jobs.all_jobs(scale):
            if job.key in expected:
                continue
            print(job.name, file=sys.stderr)
            expected[job.key] = jobs.observe(job, jobs.execute(job, NullTracer()))
    for n in jobs.cli_moduli():
        ac = admissible_classes(n)
        expected[f"admissible/{n}"] = {"period": ac.period, "classes": list(ac.residues)}
        if n % 2:
            expected[f"orders/{n}"] = {"alpha": alpha(n), "beta": beta(n)}
    lines = (f"{json.dumps(k)}: {json.dumps(v, separators=(',', ':'))}" for k, v in sorted(expected.items()))
    jobs.EXPECTED_PATH.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"{len(expected)} values written to {jobs.EXPECTED_PATH.name}", file=sys.stderr)


if __name__ == "__main__":
    main()
