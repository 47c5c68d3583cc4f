"""Benchmark of the fprw CLI: one workload, one seed, one JSON result line.

Usage (from the root of the repository):

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1

A run makes the workload's operations from the seed, then repeats whole
rounds for about S seconds (at least one round).  A round is every
operation once, in order, in a fresh interpreter: each calls
`fprw.cli.main(argv)` in-process, so the program's caches start empty in
every round, as they do for a CLI user.  One client, closed loop,
FPRW_THREADS unset.  After the rounds, every distinct output is checked
(checks.py).  With --trace 0 the last line of standard output holds the
end-to-end metrics; with --trace 1 rounds alternate between plain and
traced, and it holds the per-layer metrics of the traced rounds, with the
wall time of both kinds of round.  Results and traces are also written to
benchmark/out/.
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

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_SAMPLES = 3  # setup_s is the median of at least this many fresh interpreters
WORKER_TIMEOUT_S = 150


def _spawn(plan: Path, round_dir: Path, mode: str) -> dict:
    env = {k: v for k, v in os.environ.items() if k != "FPRW_THREADS"}
    log = round_dir.with_suffix(".log")
    round_dir.parent.mkdir(parents=True, exist_ok=True)
    with open(log, "w") as err:
        started = time.monotonic()
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), str(plan), str(round_dir), mode, repr(started)],
            stdout=subprocess.DEVNULL,
            stderr=err,
            env=env,
            timeout=WORKER_TIMEOUT_S,
        )
    if proc.returncode != 0:
        sys.stderr.write(log.read_text()[-4000:])
        raise SystemExit(f"worker failed with exit code {proc.returncode} ({mode} round)")
    return json.loads((round_dir / "round.json").read_text())


def _rounds(plan: Path, work: Path, seconds: float, trace: bool):
    """Whole rounds for about `seconds`: another starts while it would end no
    later than half a round past the deadline.  With tracing, at least one
    round of each kind."""
    rounds = []
    start = time.monotonic()
    while True:
        elapsed = time.monotonic() - start
        kinds = {r["mode"] for r in rounds}
        complete = kinds == {"plain", "traced"} if trace else bool(kinds)
        if complete and elapsed + 0.5 * elapsed / len(rounds) > seconds:
            return rounds
        mode = "traced" if trace and len(rounds) % 2 == 1 else "plain"
        round_dir = work / f"round{len(rounds):02d}"
        record = _spawn(plan, round_dir, mode)
        record.update(mode=mode, dir=round_dir)
        rounds.append(record)


def _check_outputs(ops, rounds):
    """Mark failed operations; returns (attempted, failed, correct, problems)."""
    import checks

    oracle = checks.Oracle()
    verdicts = {}  # (op index, output digest) -> problems
    attempted = failed = 0
    correct = True
    problems = []
    for r in rounds:
        for i, (op, rec) in enumerate(zip(ops, r["ops"])):
            attempted += 1
            if rec["error"] is not None:
                rec["ok"] = False
                failed += 1
                if not op["meta"].get("expect_failure"):
                    problems.append(f"{op['name']}: {rec['error']}")
                continue
            text = (r["dir"] / f"{i:02d}.out").read_text()
            key = (i, hashlib.sha256(text.encode()).hexdigest())
            if key not in verdicts:
                verdicts[key] = checks.check(op, text, str(r["dir"] / f"{i:02d}.json"), oracle)
            found = verdicts[key]
            rec["ok"] = not found
            if found:
                failed += 1
                correct = False
                problems += [f"{op['name']}: {p}" for p in found[:3]]
    return attempted, failed, correct, problems


def _median(values):
    return statistics.median(values) if values else 0.0


def _end_to_end(rounds, setups):
    ok_walls = [op["wall_s"] for r in rounds for op in r["ops"] if op["ok"]]
    window = sum(r["window_s"] for r in rounds)
    return {
        "setup_s": {"value": _median(setups), "unit": "s"},
        "ops_per_s": {"value": len(ok_walls) / window, "unit": "1/s"},
        "op_p50_s": {"value": _median(ok_walls), "unit": "s"},
        "cpu_s": {"value": _median([r["cpu_s"] for r in rounds]), "unit": "s"},
        "peak_rss_mb": {"value": max(r["peak_rss_mb"] for r in rounds), "unit": "MB"},
    }


def _per_layer(rounds):
    traced = [r for r in rounds if r["mode"] == "traced"]
    plain = [r for r in rounds if r["mode"] == "plain"]
    units = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    units = {m["name"]: m["unit"] for m in units}
    metrics = {}
    for name in traced[0]["layers"]:
        metrics[name] = _median([r["layers"][name] for r in traced])
    metrics["trace.traced_wall_s"] = _median([r["window_s"] for r in traced])
    metrics["trace.untraced_wall_s"] = _median([r["window_s"] for r in plain])
    return {name: {"value": metrics[name], "unit": units[name]} for name in units}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "fprw" / "cli.py").is_file():
        print(f"fprw sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; one of {workloads.WORKLOADS}", file=sys.stderr)
        return 2

    t0 = time.monotonic()
    ops = workloads.build(args.workload, args.seed)
    phases = {"inputs": time.monotonic() - t0}
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = OUT / f"work-{tag}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        plan = work / "plan.json"
        plan.write_text(json.dumps(ops))
        t0 = time.monotonic()
        rounds = _rounds(plan, work, args.seconds, bool(args.trace))
        phases["rounds"] = time.monotonic() - t0
        setups = [r["setup_s"] for r in rounds if r["mode"] == "plain"]
        for k in range(0 if args.trace else SETUP_SAMPLES - len(setups)):
            setups.append(_spawn(plan, work / f"setup{k:02d}", "setup")["setup_s"])
        t0 = time.monotonic()
        attempted, failed, correct, problems = _check_outputs(ops, rounds)
        phases["checks"] = time.monotonic() - t0
        metrics = _end_to_end(rounds, setups) if not args.trace else _per_layer(rounds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for p in problems:
        print(f"check: {p}", file=sys.stderr)
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "operations": [op["name"] for op in ops],
        "rounds": [
            {k: v for k, v in r.items() if k not in ("dir", "layers")} for r in rounds
        ],
        "setup_samples_s": setups,
        "phases_s": phases,
        "problems": problems,
        **result,
    }
    kind = "trace" if args.trace else "result"
    (OUT / f"{kind}-{args.workload}-seed{args.seed}.json").write_text(json.dumps(detail, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
