"""Run the benchmark on a parent and a change checkout in alternating pairs.

    python3 scripts/bench_pairs.py PARENT CHANGE --pr 16 --workload long-rows --pairs 10

PARENT and CHANGE are directories holding a checkout of each commit.  Pair s
(seeds 1, 2, ...) runs `bench/run.py --workload W --seed s --seconds S
--trace 0` once in each, S being BENCHMARK.json's run_seconds, the parent
first for an odd seed and the change first for an even one, with
PYTHONDONTWRITEBYTECODE=1 and every __pycache__ under the checkout removed
before each run, so that each run compiles the package from source as a
fresh checkout would.  The last line of each run's stdout is kept, and so
is each job's median time in ms over the run's passes, read from the run's
bench/out/<workload>-seed<s>-trace0.json and scaled to the reference speed
by bench/run.py's own `scaled`.

The runs go to BENCH_<pr>.json in the current directory.  If the file is
there already, its runs are kept: the new pairs take the next seeds of the
workload, and the summary is worked out again over all of them.  A file of
other shas or another run length is refused.  Besides the runs, the file
holds both shas, the run length, the Python version, the CPU count and, per
workload and end-to-end metric, the quartiles of each side, the number of
pairs the change won (ties win for neither side), the change's median over the
parent's minus 1, and whether that is a gain: the change won at least nine
tenths of the pairs and its median is better by more than the parent's q3 - q1.
Two more flags hold each metric's BENCHMARK.json bound, a fraction of the
parent's median: `regression`, the change's median is worse than the
parent's by more than the bound, and `unresolved`, the parent's q3 - q1 is
wider than the bound, so that a move inside it cannot be told from noise.
Its job_summary gives, per workload and job, each side's median of those
per-run job times and the change's over the parent's minus 1, so a wall_s
claim shows which jobs moved.
"""

import argparse
import importlib.util
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

COMMAND = ("PYTHONDONTWRITEBYTECODE=1 python3 bench/run.py --workload W --seed S"
           " --seconds <run_seconds> --trace 0, in a checkout of each commit with every"
           " __pycache__ removed before each run")
ORDER = "a pair with an odd seed runs the parent first, one with an even seed the change first"


def quartiles(values) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": round(q1, 5), "median": round(median, 5), "q3": round(q3, 5)}


def paired(runs, field: str) -> dict:
    """Per workload, the (parent, change) values of `field` of the two runs of
    each seed that has both, in seed order; a run without the field is left out."""
    sides = {}
    for run in runs:
        if field in run:
            sides.setdefault(run["workload"], {}).setdefault(run["seed"], {})[run["side"]] = run
    return {workload: [(s["parent"][field], s["change"][field])
                       for _, s in sorted(seeds.items()) if len(s) == 2]
            for workload, seeds in sides.items()}


def summarize(runs, better: dict, bounds: dict) -> dict:
    """Per workload and metric: the pairs, each side's quartiles, the change's
    wins, its median's relative change and whether it is a gain, a
    regression or unresolved.

    `runs` are run records (workload, seed, side, result); a pair is the
    parent and change runs of one workload and seed.  `better` maps each
    end-to-end metric to "lower" or "higher", and `bounds` to its bound.
    """
    summary = {}
    for workload, results in paired(runs, "result").items():
        pairs = [(p["metrics"], c["metrics"]) for p, c in results]
        if len(pairs) < 2:
            continue
        summary[workload] = {}
        for metric, direction in better.items():
            sign = 1 if direction == "lower" else -1
            parent = quartiles([p[metric]["value"] for p, _ in pairs])
            change = quartiles([c[metric]["value"] for _, c in pairs])
            wins = sum(sign * (c[metric]["value"] - p[metric]["value"]) < 0 for p, c in pairs)
            gap = sign * (parent["median"] - change["median"])
            spread = parent["q3"] - parent["q1"]
            relative = change["median"] / parent["median"] - 1
            summary[workload][metric] = {
                "pairs": len(pairs),
                "parent": parent,
                "change": change,
                "change_wins": wins,
                "median_change": round(relative, 5),
                "gain": wins >= 0.9 * len(pairs) and gap > spread,
                "regression": sign * relative > bounds[metric],
                "unresolved": spread > bounds[metric] * parent["median"],
            }
    return summary


def job_medians(details: dict, scaled) -> dict:
    """Each job's median ms over the passes of one run's details file, its
    samples scaled by bench/run.py's `scaled`; a job listed twice pools them."""
    samples = {}
    for p in details["passes"]:
        for name, (seconds, _) in zip(details["jobs"], scaled(p)):
            samples.setdefault(name, []).append(seconds)
    return {name: round(statistics.median(s) * 1e3, 4) for name, s in samples.items()}


def summarize_jobs(runs) -> dict:
    """Per workload and job: each side's median of the runs' job medians and
    the change's over the parent's minus 1, over the pairs that have both
    runs and the job (a workload's job list can change with its seed)."""
    summary = {}
    for workload, pairs in paired(runs, "job_ms").items():
        if len(pairs) < 2:
            continue
        summary[workload] = {}
        for job in dict.fromkeys(job for p, _ in pairs for job in p):
            times = [(p[job], c[job]) for p, c in pairs if job in p and job in c]
            parent = statistics.median(p for p, _ in times)
            change = statistics.median(c for _, c in times)
            summary[workload][job] = {"pairs": len(times), "parent": round(parent, 4),
                                      "change": round(change, 4),
                                      "median_change": round(change / parent - 1, 5)}
    return summary


def load_scaled(checkout: Path):
    """bench/run.py's `scaled`, loaded from the checkout without running it."""
    spec = importlib.util.spec_from_file_location("bench_run", checkout / "bench" / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.scaled


def sha(checkout: Path) -> str:
    return subprocess.run(["git", "-C", str(checkout), "rev-parse", "HEAD"],
                          capture_output=True, text=True, check=True).stdout.strip()


def run_bench(checkout: Path, workload: str, seed: int, seconds: float, scaled) -> tuple:
    """One run in `checkout`: its result line and its job medians."""
    for cache in list(checkout.rglob("__pycache__")):
        shutil.rmtree(cache)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"},
        capture_output=True, text=True, check=True,
    )
    details = checkout / "bench" / "out" / f"{workload}-seed{seed}-trace0.json"
    return (json.loads(proc.stdout.strip().splitlines()[-1]),
            job_medians(json.loads(details.read_text()), scaled))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("change", type=Path, help="checkout of the change")
    parser.add_argument("--pr", required=True, help="names the output, BENCH_<pr>.json")
    parser.add_argument("--workload", required=True, choices=("exhaustive", "long-rows", "cli"))
    parser.add_argument("--pairs", type=int, required=True)
    args = parser.parse_args()
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    spec = json.loads((checkouts["change"] / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    out = Path(f"BENCH_{args.pr}.json")
    header = {**{f"{side}_sha": sha(path) for side, path in checkouts.items()},
              "run_seconds": spec["run_seconds"]}
    if out.exists():
        bench = json.loads(out.read_text())
        if {k: bench.get(k) for k in header} != header:
            raise SystemExit(f"{out} holds runs of other commits or run lengths")
    else:
        bench = {**header, "python": platform.python_version(), "cpu_count": os.cpu_count(),
                 "command": COMMAND, "order": ORDER, "summary": {}, "runs": []}
    scaled = load_scaled(checkouts["change"])
    first = 1 + max((r["seed"] for r in bench["runs"] if r["workload"] == args.workload), default=0)
    for seed in range(first, first + args.pairs):
        sides = ("parent", "change") if seed % 2 else ("change", "parent")
        for order, side in enumerate(sides, 1):
            result, job_ms = run_bench(checkouts[side], args.workload, seed,
                                       spec["run_seconds"], scaled)
            bench["runs"].append({"workload": args.workload, "seed": seed, "side": side,
                                  "order": order, "trace": 0, "result": result,
                                  "job_ms": job_ms})
            print(args.workload, seed, side, json.dumps(result["metrics"]), flush=True)
        bench["summary"] = summarize(bench["runs"], better, bounds)
        bench["job_summary"] = summarize_jobs(bench["runs"])
        out.write_text(json.dumps(bench, indent=1) + "\n")


if __name__ == "__main__":
    main()
