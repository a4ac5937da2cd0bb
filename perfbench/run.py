"""Benchmark entry point: one run of one workload.

    python3 perfbench/run.py --workload cover-matrix|cubic-cuts|subcubic-beta
                             --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the library is imported from
``src/``.  An untraced run times the workload's op list (closed loop, one
client) in several fresh worker processes, one pass each, and verifies the
artifacts in several fresh verifier processes.  Each op's time is scaled
by the host probe around it (see hostprobe.py) and averaged over the
passes.  A traced run makes one traced pass of each, unscaled.  Human-readable
lines come first; the last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0`` the
metrics are the end-to-end ones, with ``--trace 1`` the per-layer ones.
Everything the run writes goes under ``.perfbench/`` in the checkout.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import hostprobe  # perfbench/ is sys.path[0] when run as a script
import layers

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
STATE = ROOT / ".perfbench"
WORKLOADS = ("cover-matrix", "cubic-cuts", "subcubic-beta")
SETUP_SAMPLES = 5
# the host-drift loop timed before and after a run
CALIBRATION_REPS = 1000
RUN_LIMIT_S = 170.0
# An untraced run starts no further pass of a kind it has already run once
# after this many multiples of --seconds, so a slow host cannot stretch it.
PASS_BUDGET = 1.75
TAIL_BEYOND = 10

# name -> unit, in the order they are printed; fail_frac is printed but left
# out of the JSON metrics because it reads 0 on a correct run.
END_TO_END = {
    "produce_ops_per_s": "1/s",
    "produce_p50_s": "s",
    "produce_tail_s": "s",
    "verify_ops_per_s": "1/s",
    "fail_frac": "share",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
REPORTED_END_TO_END = tuple(n for n in END_TO_END if n != "fail_frac")


class RunError(RuntimeError):
    pass


def layer_values(produced: dict, checked: dict, v_spawn: float) -> dict:
    """Every per-layer metric of a traced run: name -> (value, unit)."""
    out = {}
    for name in layers.SPAN_NAMES:
        if name not in layers.VERIFY_ONLY:
            self_s, calls = produced["layers"].get(name, (0.0, 0))
            out[f"{name}.self_s"] = (self_s, "s")
            out[f"{name}.calls"] = (calls, "count")
    counts = produced["counts"]
    for name in layers.COUNTS:
        out[name] = (counts.get(name, 0), "count")
    terms_in = counts.get("decompose.caratheodory_terms_in", 0)
    kept = counts.get("decompose.caratheodory_terms_out", 0) / terms_in if terms_in else 1.0
    out["decompose.caratheodory_kept_ratio"] = (kept, "ratio")
    out["serialize.artifact_bytes"] = (
        sum(r.get("bytes", 0) for r in produced["records"]), "bytes")
    for name in layers.VERIFY_SPAN_NAMES:
        self_s, calls = checked["layers"].get(name, (0.0, 0))
        out[f"{name}.verify_self_s"] = (self_s, "s")
        out[f"{name}.verify_calls"] = (calls, "count")
    for name in layers.VERIFY_COUNTS:
        layer, count = name.split(".")
        out[f"{layer}.verify_{count}"] = (checked["counts"].get(name, 0), "count")
    out["cli.verify_startup_s"] = (checked["t_first"] - v_spawn, "s")
    return out


def per_layer_units() -> dict:
    """Every per-layer metric name -> unit, in report order."""
    produced = {"layers": {}, "counts": {}, "records": []}
    checked = {"layers": {}, "counts": {}, "t_first": 0.0}
    return {name: unit for name, (_, unit) in layer_values(produced, checked, 0.0).items()}


def code_hash() -> str:
    h = hashlib.sha256()
    files = sorted((ROOT / "src" / "unicover").rglob("*.py")) + sorted(HERE.glob("*.py"))
    for path in files:
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


class Runner:
    def __init__(self, args, workdir: Path):
        self.args = args
        self.workdir = workdir
        self.deadline = time.monotonic() + RUN_LIMIT_S

    def spawn(self, script: str, *extra: str) -> tuple:
        """Run a child to completion; returns (its JSON output, spawn stamp, end stamp)."""
        out = self.workdir / f"{script}-{time.monotonic_ns()}.json"
        cmd = [sys.executable, str(HERE / f"{script}.py"), "--workdir", str(self.workdir),
               "--out", str(out), *extra]
        t_spawn = time.monotonic()
        try:
            proc = subprocess.run(cmd, stdin=subprocess.DEVNULL, stdout=sys.stderr,
                                  timeout=max(1.0, self.deadline - t_spawn))
        except subprocess.TimeoutExpired:
            raise RunError(f"{script} did not finish within the run's time limit")
        t_end = time.monotonic()
        if proc.returncode != 0:
            raise RunError(f"{script} exited with code {proc.returncode}")
        return json.loads(out.read_text()), t_spawn, t_end

    def worker(self, *extra: str) -> tuple:
        """Run a worker; returns (its output, its set-up seconds)."""
        a = self.args
        out, t_spawn, _ = self.spawn("worker", "--workload", a.workload, "--seed",
                                     str(a.seed), "--seconds", str(a.seconds),
                                     "--trace", str(a.trace), *extra)
        return out, out["t_ready"] - t_spawn

    def verifier(self, count: int) -> tuple:
        return self.spawn("verifier", "--count", str(count), "--trace", str(self.args.trace))


def tail(durations: list) -> tuple:
    """The highest percentile leaving at least TAIL_BEYOND samples above it:
    (value, percentile); with too few samples, the maximum."""
    ordered = sorted(durations)
    k = len(ordered) - TAIL_BEYOND - 1
    if k < 0:
        return ordered[-1], 100.0
    return ordered[k], 100.0 * (k + 1) / len(ordered)


def fingerprint(args, records: list, counts: dict, digest: str) -> list:
    """Compare this run's artifacts (and traced counts) with earlier runs of the
    same code and seed kept in .perfbench/fingerprints.json; returns flags."""
    path = STATE / "fingerprints.json"
    try:
        store = json.loads(path.read_text())
    except (FileNotFoundError, json.JSONDecodeError):
        store = {}
    code = code_hash()
    mine = store.pop(code, {"ops": {}, "counts": {}})
    flags = []
    key = f"{args.workload}/{args.seed}"
    ops = [r.get("sha256") for r in records]
    seen = mine["ops"].get(key, [])
    common = min(len(seen), len(ops))
    diff = [i for i in range(common) if seen[i] != ops[i]]
    if diff:
        flags.append(f"artifact digests differ from an earlier run of this code at ops {diff[:5]}")
    if len(ops) > len(seen):
        mine["ops"][key] = ops
    if counts:
        ckey = f"{key}/{args.seconds}"
        earlier = mine["counts"].get(ckey)
        if earlier is not None and earlier != counts:
            changed = sorted(k for k in set(earlier) | set(counts)
                             if earlier.get(k) != counts.get(k))
            flags.append(f"traced counts differ from an earlier run of this code: {changed[:5]}")
        mine["counts"][ckey] = counts
    store[code] = mine
    for old in list(store)[:-8]:
        del store[old]
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(store))
    os.replace(tmp, path)
    print(f"fingerprint: sha256 {digest} over {len(ops)} artifacts, code {code[:12]}"
          f"; {common} ops compared with earlier runs")
    return flags


def run(args) -> dict:
    STATE.mkdir(exist_ok=True)
    workdir = STATE / f"work-{os.getpid()}"
    workdir.mkdir()
    try:
        return measure(args, Runner(args, workdir))
    finally:
        for spans in workdir.glob("spans-*.json"):
            keep = STATE / "spans" / f"{args.workload}-{spans.name[len('spans-'):]}"
            keep.parent.mkdir(exist_ok=True)
            os.replace(spans, keep)
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, runner: Runner) -> dict:
    cal_before = hostprobe.fraction_loop(CALIBRATION_REPS)
    if args.trace:
        produced, setup = runner.worker("--write-artifacts")
        checked, v_spawn, v_end = runner.verifier(len(produced["records"]))
        passes, checks = [produced], [checked]
    else:
        passes, checks, setups = run_passes(args, runner)
    cal_after = hostprobe.fraction_loop(CALIBRATION_REPS)

    records = passes[0]["records"]
    n = len(records)
    failures, flags = [], []
    for i, rec in enumerate(records):
        errors = [p["records"][i]["error"] for p in passes if "error" in p["records"][i]]
        bad = [c["results"][i] for c in checks if c["results"][i]["code"] != 0]
        if errors:
            failures.append(f"op {i} {rec['kind']} {rec['label']}: {errors[0]}")
        elif bad:
            failures.append(f"op {i} {rec['kind']} {rec['label']}: verify exit "
                            f"{bad[0]['code']}: {bad[0]['output']}")
        if len({p["records"][i].get("sha256") for p in passes}) > 1:
            flags.append(f"op {i} produced different artifacts in different passes")
    durations = [statistics.mean(p["records"][i]["seconds"] for p in passes)
                 for i in range(n)]
    produce_s = sum(durations)
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  "
          f"trace {args.trace}  ops {n}  produce passes {len(passes)}  "
          f"verify passes {len(checks)}")
    for line in failures:
        print(f"FAILED {line}")
    print(f"host drift: Fraction calibration {cal_before * 1e3:.1f} ms before, "
          f"{cal_after * 1e3:.1f} ms after (after/before {cal_after / cal_before:.3f})")
    counts, problems = {}, []
    if args.trace:
        problems = trace_checks(produced, checked, produce_s, v_end - v_spawn)
        values = layer_values(produced, checked, v_spawn)
        for name, (value, unit) in values.items():
            print(f"  {name:52s} {value:14.6g} {unit}")
        metrics = {name: {"value": v, "unit": u} for name, (v, u) in values.items()}
        counts = {name: v for name, (v, u) in values.items() if u in ("count", "bytes")}
        counts["sha256"] = produced["sha256"]
    else:
        # each op's (and each artifact's verify) time, scaled to the reference
        # host speed and averaged over the passes
        scaled = [statistics.mean(scale(p["records"][i]) for p in passes) for i in range(n)]
        verify_s = sum(statistics.mean(scale(c["results"][i]) for c in checks)
                       for i in range(n))
        tail_s, pct = tail(scaled)
        values = {
            "produce_ops_per_s": n / sum(scaled),
            "produce_p50_s": statistics.median(scaled),
            "produce_tail_s": tail_s,
            "verify_ops_per_s": n / verify_s,
            "fail_frac": len(failures) / n,
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
        }
        raw_verify_s = sum(statistics.mean(c["results"][i]["seconds"] for c in checks)
                           for i in range(n))
        print(f"unscaled: produce {n / produce_s:.4g} ops/s, p50 "
              f"{statistics.median(durations):.4g} s; verify {n / raw_verify_s:.4g} ops/s; "
              f"mean probe {statistics.mean(r['host_s'] for r in records) * 1e3:.2f} ms, "
              f"reference {hostprobe.REFERENCE_S * 1e3:.2f} ms")
        notes = {
            "produce_ops_per_s": f"{n} ops / sum of their times, {len(passes)} pass(es)",
            "produce_tail_s": f"p{pct:.0f} of {n} samples, {TAIL_BEYOND} beyond it"
            if pct < 100 else f"max of {n} samples (fewer than {TAIL_BEYOND + 1})",
            "produce_p50_s": f"median of {n} samples",
            "fail_frac": f"{len(failures)} of {n} ops",
            "verify_ops_per_s": f"{n} artifacts / sum of their verify times, "
                                f"{len(checks)} fresh verifier(s)",
            "setup_s": "median of " + ", ".join(f"{s:.4f}" for s in setups),
        }
        for name, unit in END_TO_END.items():
            print(f"  {name:20s} {values[name]:12.6g} {unit:6s} {notes.get(name, '')}")
        metrics = {name: {"value": values[name], "unit": END_TO_END[name]}
                   for name in REPORTED_END_TO_END}
    flags += fingerprint(args, records, counts, passes[0]["sha256"])
    for flag in flags:
        print(f"FLAG {flag}")
    for problem in problems:
        print(f"HARNESS CHECK FAILED: {problem}")
    return {"correct": not failures and not problems, "attempted": n,
            "failed": len(failures), "metrics": metrics}


def scale(rec: dict) -> float:
    """An op's time on a host that runs the probe in REFERENCE_S."""
    return rec["seconds"] * hostprobe.REFERENCE_S / rec["host_s"]


def run_passes(args, runner: Runner) -> tuple:
    """The untraced run: produce passes in fresh workers (the first writes the
    artifacts) and verify passes in fresh verifiers, each kind spread evenly
    over the run.  Returns (passes, checks, set-up seconds)."""
    import workloads  # imports the library, so only once main has found src/
    n_produce = workloads.PASSES[args.workload]
    n_verify = workloads.VERIFY_PASSES[args.workload]
    setups = [runner.worker("--setup-only")[1]
              for _ in range(SETUP_SAMPLES - n_produce)]
    schedule = sorted([(k / n_produce, "produce") for k in range(n_produce)]
                      + [((j + 0.5) / n_verify, "verify") for j in range(n_verify)])
    passes, checks = [], []
    stop = time.monotonic() + PASS_BUDGET * args.seconds
    for _, kind in schedule:
        if (passes if kind == "produce" else checks) and time.monotonic() > stop:
            continue
        if kind == "produce":
            produced, setup = runner.worker(*() if passes else ("--write-artifacts",))
            passes.append(produced)
            setups.append(setup)
        else:
            checks.append(runner.verifier(len(passes[0]["records"]))[0])
    return passes, checks, setups


def trace_checks(produced: dict, checked: dict, produce_s: float,
                 verify_wall: float) -> list:
    """Print the tracing overhead and check the traced run; returns problems."""
    problems = []
    untraced = produced["untraced_produce_s"]
    print(f"tracing overhead: traced produce {produce_s:.3f} s, untraced "
          f"{untraced:.3f} s, overhead {(produce_s - untraced) / untraced:+.1%}")
    if produced["untraced_sha256"] != produced["sha256"]:
        problems.append("traced and untraced passes produced different artifacts")
    for who, out in (("worker", produced), ("verifier", checked)):
        if out["leftover_wrappers"]:
            problems.append(f"{who} still has wrappers: {out['leftover_wrappers']}")
    print(f"wrappers removed: worker {not produced['leftover_wrappers']}, "
          f"verifier {not checked['leftover_wrappers']}")
    verify_self = sum(s for s, _ in checked["layers"].values())
    print(f"self time: ops {produced['op_self_s']:.3f} s <= produce {produce_s:.3f} s; "
          f"verifier {verify_self:.3f} s <= {verify_wall:.3f} s")
    if produced["op_self_s"] > produce_s:
        problems.append("op self times exceed the produce wall time")
    if verify_self > verify_wall:
        problems.append("verifier self times exceed its wall time")
    return problems


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    if not (ROOT / "src" / "unicover" / "__init__.py").is_file():
        print(f"perfbench: no library source at {ROOT / 'src' / 'unicover'}; "
              "run from a full source checkout", file=sys.stderr)
        return 2
    sys.path.insert(1, str(ROOT / "src"))
    try:
        result = run(args)
    except RunError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 3
    sys.stdout.flush()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
