"""One round of a workload in a fresh interpreter.

Usage: python3 worker.py PLAN ROUND_DIR MODE SPAWNED_AT

PLAN is the JSON list of operations written by run.py, MODE is `setup`
(set up and stop), `plain` (time the operations) or `traced` (time them
with every fprw layer wrapped), and SPAWNED_AT is the time.monotonic()
reading taken just before this process was started.  The round writes its
configs and outputs under ROUND_DIR and its measurements to
ROUND_DIR/round.json.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path


def _cpu_s() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0  # ru_maxrss is in KiB on Linux


def main(argv) -> int:
    plan_path, round_dir, mode, spawned_at = argv[1], Path(argv[2]), argv[3], float(argv[4])
    root = Path(__file__).resolve().parent.parent
    sys.path.insert(0, str(root / "src"))

    import fprw.cli as cli

    tracer = None
    if mode == "traced":
        import fprw.classify, fprw.mc, fprw.phase  # noqa: F401  (load every layer)
        from layertrace import LayerTracer

        tracer = LayerTracer()
        tracer.install()

    with open(plan_path) as fh:
        plan = json.load(fh)
    round_dir.mkdir(parents=True, exist_ok=True)
    jobs = []
    for i, op in enumerate(plan):
        config = round_dir / f"{i:02d}.json"
        config.write_text(json.dumps(op["config"]))
        out = round_dir / f"{i:02d}.out"
        jobs.append((op["argv"] + ["--config", str(config), "--out", str(out)], out))
    setup_s = time.monotonic() - spawned_at

    record = {"setup_s": setup_s, "ops": []}
    if mode != "setup":
        cpu0 = _cpu_s()
        t_window = time.perf_counter()
        for argv_op, out in jobs:
            t0 = time.perf_counter()
            try:
                rc = cli.main(argv_op)
                error = None if rc == 0 else f"exit code {rc}"
            except (Exception, SystemExit) as exc:  # a crash is a failed operation
                error = f"{type(exc).__name__}: {exc}"
            wall = time.perf_counter() - t0
            record["ops"].append({"wall_s": wall, "error": error})
        record["window_s"] = time.perf_counter() - t_window
        record["cpu_s"] = _cpu_s() - cpu0
        if tracer is not None:
            record["layers"] = tracer.layer_metrics()
            record["spans"] = {k: {"calls": v[0], "self_s": v[1], "outer_s": v[2]}
                               for k, v in sorted(tracer.stats.items()) if v[0]}
    record["peak_rss_mb"] = _peak_rss_mb()
    (round_dir / "round.json").write_text(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
