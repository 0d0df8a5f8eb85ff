"""Benchmark of ttolab: one workload per run, timed or traced.

    python3 ttobench/run.py --workload boundary --seed 1 --seconds 35 --trace 0

Runs the whole number of rounds of the workload's operations that comes
nearest to --seconds (at least one), checks every result, and prints as
its last line one JSON object with `correct`, `attempted`, `failed` and `metrics`:
the end-to-end metrics with --trace 0, the per-layer metrics with
--trace 1.  Failed operations are named on the lines before it.  The
package is imported from src/ next to this directory; without it the run
exits with code 2 and prints no result.  Result and trace files go to
ttobench/results/.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
WORKLOADS = ("boundary", "interior", "nehari")
SETUP_PROBES = 3         # fresh interpreters before the timed rounds, and as many after
BLAS_THREADS = "1"       # one BLAS thread: steadier on a shared 2-core machine
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="set up once, print the set-up seconds and exit")
    return parser.parse_args(argv)


def set_up(workload: str, seed: int):
    """Import ttolab, build the workload's inputs and run one warm-up call."""
    sys.path.insert(0, str(ROOT / "src"))
    import workloads
    wl = workloads.build(workload, seed)
    wl.warmup.run()
    return wl


def setup_probe(workload: str, seed: int) -> float:
    """Set-up seconds measured in a fresh interpreter."""
    out = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
         "--seed", str(seed), "--setup-probe"],
        capture_output=True, text=True, timeout=120, check=True, cwd=ROOT)
    return float(out.stdout.strip().splitlines()[-1])


@dataclass
class Record:
    index: int           # position of the operation in the workload
    label: str
    degree: int
    seconds: float       # time of the operation, also of one that raised
    completed: bool      # the operation returned a result
    problems: list       # why it failed: the exception, or what its check found


def run_rounds(wl, seconds: float, tracer=None) -> list:
    """The whole number of rounds that comes nearest to `seconds`, at least
    one: another round starts while, at the mean round time so far, it
    would end nearer to `seconds` than the run stands.  A list of Records
    per round."""
    rounds = []
    run_start = time.perf_counter()
    while True:
        if tracer is not None:
            tracer.round = len(rounds)
        batch = []
        for index in wl.schedule:
            op = wl.operations[index]
            if tracer is not None:
                tracer.active = True
            start = time.perf_counter()
            try:
                result, completed = op.run(), True
            except Exception as exc:     # a failed operation is counted, not fatal
                completed, problems = False, [f"{type(exc).__name__}: {exc}"]
            finally:
                elapsed = time.perf_counter() - start
                if tracer is not None:
                    tracer.active = False
            if completed:
                try:
                    problems = op.check(result)
                except Exception as exc:     # a result the check cannot read is wrong
                    problems = [f"check raised {type(exc).__name__}: {exc}"]
            batch.append(Record(index, op.label, op.degree, elapsed, completed, problems))
        rounds.append(batch)
        ran = time.perf_counter() - run_start
        if ran + ran / len(rounds) / 2 >= seconds:
            return rounds


def passed(record: Record) -> bool:
    return record.completed and not record.problems


def end_to_end(rounds, setup_samples) -> dict:
    degree_ok = {}
    for r in (r for batch in rounds for r in batch):
        degree_ok[r.degree] = degree_ok.get(r.degree, True) and passed(r)
    # each place in the round's schedule at its best time over the rounds: see README
    places = list(zip(*rounds))
    best = [min(r.seconds for r in runs) for runs in places]
    best_passed = [min(r.seconds for r in runs if passed(r))
                   for runs in places if any(map(passed, runs))]
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": {"value": statistics.median(setup_samples), "unit": "s"},
        "wall_s": {"value": sum(best), "unit": "s"},
        "op_p50_s": {"value": statistics.median(best_passed) if best_passed else 0.0,
                     "unit": "s"},
        "max_degree_ok": {"value": max((d for d, ok in degree_ok.items() if ok), default=0),
                          "unit": "count"},
        "peak_rss_mb": {"value": peak_kib / 1024.0, "unit": "MB"},
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "ttolab" / "__init__.py").is_file():
        print(f"ttobench: no ttolab package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = BLAS_THREADS

    start = time.perf_counter()
    wl = set_up(args.workload, args.seed)
    setup_s = time.perf_counter() - start
    if args.setup_probe:
        print(repr(setup_s))
        return 0

    tracer = None
    setup_samples = [setup_s]
    if args.trace:
        import tracer as tracing
        tracer = tracing.Tracer()
        tracer.install()
    else:
        setup_samples += [setup_probe(args.workload, args.seed)
                          for _ in range(SETUP_PROBES)]
    try:
        rounds = run_rounds(wl, args.seconds, tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()
    if not args.trace:
        # probes on both sides of the rounds do not all fall into one slow stretch
        setup_samples += [setup_probe(args.workload, args.seed)
                          for _ in range(SETUP_PROBES)]

    records = [r for batch in rounds for r in batch]
    failures = {}
    for r in records:
        if r.problems:
            key = (r.label, "; ".join(r.problems))
            failures[key] = failures.get(key, 0) + 1
    for (label, why), times in failures.items():
        print(f"FAILED {args.workload} {label} (x{times}): {why}")
    result = {
        # a wrong result is incorrect; an operation that raised is only failed
        "correct": not any(r.completed and r.problems for r in records),
        "attempted": len(records),
        "failed": sum(1 for r in records if r.problems),
        "metrics": (tracer.layer_metrics(len(rounds)) if tracer
                    else end_to_end(rounds, setup_samples)),
    }

    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    meta = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "rounds": len(rounds), "blas_threads": int(BLAS_THREADS)}
    detail = dict(meta, result=result, setup_samples_s=setup_samples,
                  round_seconds=[sum(r.seconds for r in batch) for batch in rounds],
                  operations=[dataclasses.asdict(r) for r in records])
    (RESULTS / f"{stem}.json").write_text(json.dumps(detail, indent=1))
    if tracer is not None:
        tracer.write(RESULTS / f"trace-{args.workload}-seed{args.seed}.json", meta)
    print(f"{args.workload}: {len(rounds)} round(s) of {len(wl.schedule)} operations")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
