"""Verifier child: a fresh process that re-checks every artifact of one run
through ``unicover.cli.main(["verify", file])``, as ``unicover verify`` would.
Untraced, it records the host probe around each call.

Usage (spawned by run.py):
    python3 perfbench/verifier.py --workdir DIR --count N --trace 0|1 --out FILE
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import hostprobe  # noqa: E402
import layers  # noqa: E402
from unicover import cli  # noqa: E402


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workdir", type=Path, required=True)
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", type=Path, required=True)
    args = p.parse_args(argv)

    tracer = layers.Tracer() if args.trace else None
    if tracer:
        tracer.install()
    probes = None if tracer else hostprobe.Probes()
    results = []
    t_first = time.monotonic()
    for i in range(args.count):
        path = args.workdir / f"art-{i:05d}.json"
        if tracer:
            tracer.op = i
        else:
            before = probes.before_op()
        printed = io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(printed):
                code = cli.main(["verify", str(path)])
        except Exception as exc:  # a crash in verify counts as a failed op
            code, printed = None, io.StringIO(f"{type(exc).__name__}: {exc}")
        results.append({"i": i, "code": code, "seconds": time.perf_counter() - t0,
                        "output": printed.getvalue().strip()})
        if probes:
            results[-1]["probe"] = before
    if probes:
        probes.take()
        for r in results:
            r["host_s"] = probes.around(r.pop("probe"))
    out = {"t_first": t_first, "results": results}
    if tracer:
        tracer.uninstall()
        out["leftover_wrappers"] = layers.leftover_wrappers()
        out["layers"] = tracer.summary()
        out["counts"] = dict(tracer.counts)
        (args.workdir / "spans-verify.json").write_text(json.dumps(tracer.spans))
    args.out.write_text(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
