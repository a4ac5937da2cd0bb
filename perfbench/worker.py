"""The one process that drives a workload: closed loop, single client.

Usage (spawned by run.py):
    python3 perfbench/worker.py --workload W --seed N --seconds S --trace 0|1
                                --workdir DIR --out FILE
                                [--setup-only] [--write-artifacts]

Set-up (imports and instance generation) ends at the stamp ``t_ready``,
taken just before the first timed op.  An untraced worker times one pass
over the run's op list and records the host probe around each op.  Every artifact is re-checked by the harness; with
--write-artifacts each is also written to DIR/art-<i>.json for the verifier
child.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
import time
from pathlib import Path
from typing import Optional

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import hostprobe  # noqa: E402  (perfbench/ is sys.path[0] when run as a script)
import layers  # noqa: E402
import workloads  # noqa: E402


def run_op(i: int, op: workloads.Op, workdir: Optional[Path]) -> dict:
    """Time one op, then (untimed) re-check its artifact and, given a
    directory, write it there."""
    rec = {"i": i, "kind": op.kind, "label": op.label}
    t0 = time.perf_counter()
    try:
        data = workloads.produce(op)
    except Exception as exc:  # an op that raises is counted as failed
        rec.update(seconds=time.perf_counter() - t0,
                   error=f"{type(exc).__name__}: {exc}")
        return rec
    rec["seconds"] = time.perf_counter() - t0
    if workdir is not None:
        (workdir / f"art-{i:05d}.json").write_bytes(data)
    rec["bytes"] = len(data)
    rec["sha256"] = hashlib.sha256(data).hexdigest()
    rec["data"] = data
    try:
        problem = workloads.check(op, data)
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        problem = f"malformed artifact: {type(exc).__name__}: {exc}"
    if problem:
        rec["error"] = f"harness check: {problem}"
    return rec


def digest(records) -> str:
    h = hashlib.sha256()
    for r in records:
        h.update(r.get("data", b""))
    return h.hexdigest()


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--workdir", type=Path, required=True)
    p.add_argument("--out", type=Path, required=True)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--write-artifacts", action="store_true")
    args = p.parse_args(argv)

    # set-up is traced on its own, for the families.* generator spans
    setup_tracer = layers.Tracer() if args.trace else None
    if setup_tracer:
        setup_tracer.install()
    pool = workloads.build(args.workload, args.seed, args.seconds)
    if setup_tracer:
        setup_tracer.uninstall()
    out = {"t_ready": time.monotonic()}
    if args.setup_only:
        args.out.write_text(json.dumps(out))
        return 0

    workdir = args.workdir if args.write_artifacts else None
    if not args.trace:
        probes, records = hostprobe.Probes(), []
        for i, op in enumerate(pool):
            before = probes.before_op()
            records.append({**run_op(i, op, workdir), "probe": before})
        probes.take()
        for r in records:
            r["host_s"] = probes.around(r.pop("probe"))
        out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    else:
        # Each op runs untraced and traced back to back, in alternating order, so
        # host drift and warm-up fall on both sides of the overhead estimate.
        untraced, records = [], []
        tracer = layers.Tracer()
        for i, op in enumerate(pool):
            for traced in ((False, True) if i % 2 == 0 else (True, False)):
                if not traced:
                    untraced.append(run_op(i, op, None))
                    continue
                tracer.op = i
                tracer.install()
                try:
                    records.append(run_op(i, op, workdir))
                finally:
                    tracer.uninstall()
        out["untraced_produce_s"] = sum(r["seconds"] for r in untraced)
        out["untraced_sha256"] = digest(untraced)
        out["leftover_wrappers"] = layers.leftover_wrappers()
        out["layers"] = {**tracer.summary(), **{
            name: v for name, v in setup_tracer.summary().items()
            if name.startswith("families.")}}
        out["op_self_s"] = sum(s for s, _ in tracer.summary().values())
        out["counts"] = dict(tracer.counts)
        (args.workdir / "spans-produce.json").write_text(json.dumps(tracer.spans))
    out["sha256"] = digest(records)
    for r in records:
        r.pop("data", None)
    out["records"] = records
    args.out.write_text(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
