#!/usr/bin/env python3
"""Run the perfbench workloads and write BENCH_<pr>.json.

For every seed and workload this runs

    python3 perfbench/run.py --workload W --seed S --seconds N --trace 0

with N the `run_seconds` of BENCHMARK.json, in this checkout ("change")
and, with --baseline DIR, in a second source checkout ("parent"),
alternating which runs first from seed to seed.  The file keeps every run's
end-to-end metrics, failed/attempted counts and determinism fingerprint, and
the median of each metric over the seeds.  With a baseline it also keeps,
and prints at the end, per workload: the seeds whose parent and change
fingerprints differ, and for each metric the change's median over the
parent's (median_ratio), the number of seeds on which the change was
better, and the parent's spread, the distance between its quartiles
(statistics.quantiles, exclusive method) over its median.  A gain is shown
when the change wins nine tenths of the pairs and its median is beyond the
parent's by more than that spread.

Every run gets PYTHONDONTWRITEBYTECODE=1 and a PYTHONPYCACHEPREFIX that
names one fresh temporary directory, so neither checkout's `__pycache__`
is read and both sides compile the library from source: bytecode left in
one checkout would otherwise move its setup_s and peak_rss_mb.  Before
the first run, one `compileall` call fills the prefix with the bytecode of
the standard library (site-packages excluded), shared by both sides, so
these two metrics measure the library's own import cost rather than
compiling the standard library.

    python3 scripts/bench.py --pr N --seeds 1 2 3 --baseline ../parent
"""
import argparse
import json
import platform
import re
import os
import statistics
import subprocess
import sys
import sysconfig
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("cover-matrix", "cubic-cuts", "subcubic-beta")
FINGERPRINT = re.compile(r"^fingerprint: sha256 ([0-9a-f]{64})", re.M)


def run_once(checkout: Path, workload: str, seed: int, seconds: int, env: dict) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, env=env)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} in {checkout} exited {proc.returncode}:\n"
                         f"{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    found = FINGERPRINT.search(proc.stdout)
    return {
        "seed": seed,
        "correct": result["correct"],
        "failed": result["failed"],
        "attempted": result["attempted"],
        "fingerprint": found.group(1) if found else None,
        "metrics": {name: m["value"] for name, m in result["metrics"].items()},
    }


def medians(runs: list) -> dict:
    names = sorted({name for r in runs for name in r["metrics"]})
    return {name: statistics.median(r["metrics"][name] for r in runs if name in r["metrics"])
            for name in names}


def better_counts(change: list, parent: list, declared: dict) -> dict:
    """metric -> seeds on which the change beat the parent in that pair."""
    out = {}
    for name, better in declared.items():
        wins = 0
        for c, p in zip(change, parent):
            a, b = c["metrics"].get(name), p["metrics"].get(name)
            if a is not None and b is not None and (a > b if better == "higher" else a < b):
                wins += 1
        out[name] = wins
    return out


def fingerprint_differs(change: list, parent: list) -> list:
    """The seeds on which the two sides' fingerprints differ."""
    return [c["seed"] for c, p in zip(change, parent) if c["fingerprint"] != p["fingerprint"]]


def median_ratio(change: list, parent: list) -> dict:
    """metric -> the change's median over the parent's."""
    ours, theirs = medians(change), medians(parent)
    return {name: ours[name] / theirs[name] for name in ours
            if name in theirs and theirs[name]}


def iqr_over_median(runs: list) -> dict:
    """metric -> (third quartile - first quartile) / median over the runs."""
    out = {}
    for name in sorted({name for r in runs for name in r["metrics"]}):
        values = [r["metrics"][name] for r in runs if name in r["metrics"]]
        median = statistics.median(values)
        if len(values) >= 2 and median:
            q1, _, q3 = statistics.quantiles(values, n=4)
            out[name] = (q3 - q1) / median
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--pr", required=True, help="suffix of the output file name")
    ap.add_argument("--seeds", type=int, nargs="+", required=True)
    ap.add_argument("--baseline", type=Path,
                    help="another source checkout to run in alternation, e.g. the parent commit")
    args = ap.parse_args()

    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = benchmark["run_seconds"]
    declared = {m["name"]: m["better"] for m in benchmark["end_to_end"]}
    sides = {"change": ROOT}
    if args.baseline is not None:
        sides["parent"] = args.baseline.resolve()
    runs = {side: {w: [] for w in WORKLOADS} for side in sides}
    with tempfile.TemporaryDirectory(prefix="bench-pycache-") as pycache:
        env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONPYCACHEPREFIX=pycache)
        # Some standard-library test data does not compile; its warnings and
        # errors, and the exit status they cause, do not matter here.
        subprocess.run([sys.executable, "-m", "compileall", "-qq", "-x", "site-packages",
                        sysconfig.get_path("stdlib")], env=env,
                       stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        for i, seed in enumerate(args.seeds):
            for w in WORKLOADS:
                order = list(sides) if i % 2 == 0 else list(reversed(sides))
                for side in order:
                    r = run_once(sides[side], w, seed, seconds, env)
                    runs[side][w].append(r)
                    print(f"{side:6} {w:13} seed {seed:3}  produce "
                          f"{r['metrics'].get('produce_ops_per_s', float('nan')):9.3f} ops/s  "
                          f"failed {r['failed']}/{r['attempted']}  "
                          f"{(r['fingerprint'] or '?')[:12]}", flush=True)

    doc = {
        "command": "PYTHONDONTWRITEBYTECODE=1 PYTHONPYCACHEPREFIX=<dir holding only "
                   "the standard library's bytecode> "
                   "python3 perfbench/run.py --workload W --seed S "
                   f"--seconds {seconds} --trace 0",
        "seeds": args.seeds,
        "python": platform.python_version(),
        "machine": f"{platform.machine()}, {platform.system()}",
        "sides": {},
    }
    for side, per_workload in runs.items():
        doc["sides"][side] = {
            w: {"medians": medians(rs), "runs": rs} for w, rs in per_workload.items()}
    if "parent" in runs:
        doc["change_better_in"] = {
            w: better_counts(runs["change"][w], runs["parent"][w], declared)
            for w in WORKLOADS}
        doc["fingerprint_differs"] = {
            w: fingerprint_differs(runs["change"][w], runs["parent"][w]) for w in WORKLOADS}
        doc["parent_iqr_over_median"] = {
            w: iqr_over_median(runs["parent"][w]) for w in WORKLOADS}
        doc["median_ratio"] = {
            w: median_ratio(runs["change"][w], runs["parent"][w]) for w in WORKLOADS}
        for w in WORKLOADS:
            print(f"{w}: fingerprints differ on seeds {doc['fingerprint_differs'][w] or 'none'}")
            for name in declared:
                spread = doc["parent_iqr_over_median"][w].get(name)
                ratio = doc["median_ratio"][w].get(name)
                print(f"  {name:18} median change/parent "
                      f"{'n/a' if ratio is None else f'{ratio:.3f}'}  "
                      f"change better in {doc['change_better_in'][w][name]}"
                      f"/{len(runs['change'][w])}  parent IQR/median "
                      f"{'n/a' if spread is None else f'{spread:.1%}'}")
    out = ROOT / f"BENCH_{args.pr}.json"
    out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
