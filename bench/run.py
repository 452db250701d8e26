"""Benchmark for burntrack: four seeded workloads, end-to-end and per-layer metrics.

Run from the root of a burntrack checkout::

    python3 bench/run.py                       # all four workloads, one process each
    python3 bench/run.py --workload orbit_runs --seed 7 --seconds 15 --trace 0

With ``--trace 0`` a run reports the end-to-end metrics; with ``--trace 1``
it reports the per-layer metrics from spans recorded around burntrack's
public functions.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  See
bench/README.md for what each workload and metric means.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("orbit_runs", "red_sweep", "group_orders", "cli_session")
WORKERS = 3  # processes per end-to-end run, with hash seeds 1..WORKERS
QUOTIENT_BUILDS = 3  # cold builds of B(3,3) per worker

END_TO_END_UNITS = {
    "setup_s": "s",
    "questions_per_s": "1/s",
    "question_p50_ms": "ms",
    "question_tail_ms": "ms",
    "peak_rss_mb": "MB",
    "quotient_s": "s",
}


def _src_dir(root: str) -> str:
    return os.path.join(root, "src")


def _locate_checkout() -> str:
    root = os.getcwd()
    if not os.path.isfile(os.path.join(_src_dir(root), "burntrack", "__init__.py")):
        sys.stderr.write(
            "bench/run.py: no burntrack sources under ./src; run it from the root of a checkout\n"
        )
        sys.exit(2)
    return root


def out_dir(root: str) -> str:
    path = os.path.join(root, "bench", "out")
    os.makedirs(path, exist_ok=True)
    return path


def child_env(root: str) -> dict[str, str]:
    env = dict(os.environ)
    src = _src_dir(root)
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(argv: list[str], env: dict[str, str], cwd: str, quiet: bool = True):
    """Run a process to its end: exit code, stdout, wall seconds, peak RSS in MB.

    The child is reaped with wait4, so its own resource usage is read and
    no other child's peak memory is mixed in.  A quiet child's stderr is
    dropped; otherwise it goes to ours.
    """
    start = time.perf_counter()
    proc = subprocess.Popen(
        argv, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL if quiet else None,
        env=env, cwd=cwd,
    )
    try:
        out = proc.stdout.read()
    finally:
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    wall = time.perf_counter() - start
    return proc.returncode, out.decode("utf-8", "replace"), wall, usage.ru_maxrss / 1024.0


def nearest_rank(sorted_values: list[float], pct: float) -> float:
    k = max(1, math.ceil(pct / 100.0 * len(sorted_values)))
    return sorted_values[k - 1]


# ----------------------------------------------------------------- phases


def load_workload(name: str):
    if name not in WORKLOADS:
        raise SystemExit(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
    return importlib.import_module(f"workloads.{name}")


def set_up(name: str, seed: int, root: str):
    """Import, generate the inputs and warm up; returns (workload, seconds)."""
    start = time.perf_counter()
    module = load_workload(name)
    wl = module.Workload(seed, root)
    return wl, time.perf_counter() - start


def build_quotient():
    """One cold build of B(3,3); returns (seconds, quotient, problem or None)."""
    import burntrack
    from reference import burnside_order

    start = time.perf_counter()
    q = burntrack.burnside_oracle(3, 3, cached=False)
    elapsed = time.perf_counter() - start
    problem = None
    if q.order != burnside_order(3, 3):
        problem = f"B(3,3) has order {q.order}, not {burnside_order(3, 3)}"
    elif not q.exponent_certified:
        problem = "B(3,3) is not exponent-certified"
    return elapsed, q, problem


def check_quotient_table(q) -> str | None:
    """The table itself, read row by row, must have exponent 3."""
    from reference import TableGroup

    t = q.table
    rows = [[t.step(c, x) for x in range(6)] for c in range(t.size)]
    group = TableGroup(rows)
    return None if group.has_exponent(3) else "B(3,3) table has an element of order 9"


def timed_rounds(wl, seconds: float, tracer=None):
    """Whole rounds of the question list until ``seconds`` have passed.

    Returns per-question seconds, the distinct digests seen per question
    and the number of rounds.
    """
    questions = wl.questions
    samples: list[float] = []
    seen: list[dict] = [dict() for _ in questions]
    rounds = 0
    start = time.perf_counter()
    clock = time.perf_counter
    while True:
        for qi, q in enumerate(questions):
            t0 = clock()
            try:
                if tracer is None:
                    result = wl.ask(q)
                else:
                    result = tracer.question(qi, wl.ask, q)
            except Exception as exc:  # a question that raises is a failed operation
                dt = clock() - t0
                digest = ("raised", type(exc).__name__, str(exc))
            else:
                dt = clock() - t0
                digest = wl.digest(q, result)
            samples.append(dt)
            seen[qi][digest] = seen[qi].get(digest, 0) + 1
        rounds += 1
        if clock() - start >= seconds:
            break
    return samples, seen, rounds


def verify(wl, seen) -> tuple[int, list[str]]:
    """Check every distinct answer; returns (failed, messages).

    ``failed`` counts every question occurrence whose answer did not pass;
    a message is made for each that is not the workload's one known fault.
    """
    failed = 0
    messages = []
    for qi, digests in enumerate(seen):
        for digest, count in digests.items():
            if digest and digest[0] == "raised":
                verdict = f"raised {digest[1]}: {digest[2]}"
            else:
                verdict = wl.check(wl.questions[qi], digest)
            if verdict is None:
                continue
            failed += count
            if verdict != wl.KNOWN_FAULT:
                messages.append(f"question {qi} ({wl.describe(wl.questions[qi])}): {verdict}")
    return failed, messages


# ------------------------------------------------------------------ runs
#
# A run measures in worker processes.  Python's string hashing is seeded
# per process, and that alone moves the speed of a whole process by up to
# 20% here, so every worker gets a fixed PYTHONHASHSEED: each run sees the
# same few layouts, and the figures average over them.


def spawn_worker(name: str, seed: int, seconds: float, trace: int, root: str, hash_seed: int) -> dict:
    env = child_env(root)
    env["PYTHONHASHSEED"] = str(hash_seed)
    code, out, _, _ = run_child(
        [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", name,
         "--seed", str(seed), "--seconds", repr(seconds), "--trace", str(trace), "--worker"],
        env, root, quiet=False,
    )
    lines = out.strip().splitlines()
    if code != 0 or not lines:
        raise RuntimeError(f"{name} worker (hash seed {hash_seed}) exited with {code}")
    return json.loads(lines[-1])


def worker_end_to_end(name: str, seed: int, seconds: float, root: str) -> dict:
    wl, setup_s = set_up(name, seed, root)
    problems: list[str] = []
    quotient_times: list[float] = []

    def quotient_phase():
        q = None
        for _ in range(QUOTIENT_BUILDS):
            elapsed, q, problem = build_quotient()
            quotient_times.append(elapsed)
            if problem:
                problems.append(problem)
        problem = check_quotient_table(q)
        if problem:
            problems.append(problem)
        return q

    if wl.NEEDS_QUOTIENT:
        wl.use_quotient(quotient_phase())
    samples, seen, rounds = timed_rounds(wl, seconds)
    if wl.CHILD_PROCESSES:
        peak_rss = wl.peak_child_rss_mb
    else:
        peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if not wl.NEEDS_QUOTIENT:
        quotient_phase()
    failed, messages = verify(wl, seen)
    return {
        "setup_s": setup_s, "quotient_s": quotient_times, "samples": samples,
        "rounds": rounds, "questions_per_round": len(wl.questions),
        "per_question": wl.PER_QUESTION, "tail_percentile": wl.TAIL_PERCENTILE,
        "failed": failed,
        "problems": problems + messages, "peak_rss_mb": peak_rss,
    }


def run_end_to_end(name: str, seed: int, seconds: float, root: str) -> dict:
    reports = [
        spawn_worker(name, seed, seconds / WORKERS, 0, root, hash_seed)
        for hash_seed in range(1, WORKERS + 1)
    ]
    samples = [x for r in reports for x in r["samples"]]
    nq = reports[0]["questions_per_round"]
    if reports[0]["per_question"]:
        # every worker asks whole rounds in the same order, so sample i
        # belongs to question i mod nq
        by_question: list[list[float]] = [[] for _ in range(nq)]
        for r in reports:
            for i, x in enumerate(r["samples"]):
                by_question[i % nq].append(x)
        typical = [statistics.median(v) for v in by_question]
        rate = nq / sum(typical)
        ordered = sorted(typical)
        pct = math.floor((1 - 10 / nq) * 1000) / 10
    else:
        rate = len(samples) / sum(samples)
        ordered = sorted(samples)
        pct = reports[0]["tail_percentile"]
    beyond = len(ordered) - math.ceil(pct / 100.0 * len(ordered))
    if beyond < 10:
        sys.stderr.write(f"{name}: only {beyond} samples beyond p{pct}; the run was too short for that tail\n")
    values = {
        "setup_s": statistics.median(r["setup_s"] for r in reports),
        "questions_per_s": rate,
        "question_p50_ms": statistics.median(ordered) * 1e3,
        "question_tail_ms": nearest_rank(ordered, pct) * 1e3,
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reports),
        "quotient_s": statistics.median(x for r in reports for x in r["quotient_s"]),
    }
    info = {
        "workers": WORKERS,
        "rounds": [r["rounds"] for r in reports],
        "questions_per_round": reports[0]["questions_per_round"],
        "samples": len(samples),
        "per_question": reports[0]["per_question"],
        "tail_percentile": pct,
        "samples_beyond_tail": beyond,
        "setup_runs_s": [r["setup_s"] for r in reports],
        "quotient_runs_s": [r["quotient_s"] for r in reports],
        "peak_rss_runs_mb": [r["peak_rss_mb"] for r in reports],
    }
    problems = [p for r in reports for p in r["problems"]]
    failed = sum(r["failed"] for r in reports)
    return finish(name, seed, 0, root, values, END_TO_END_UNITS, len(samples), failed,
                  not problems, problems, info)


def worker_traced(name: str, seed: int, seconds: float, root: str) -> dict:
    from tracing import Tracer, aggregate
    import layers

    wl, _ = set_up(name, seed, root)
    tracer = Tracer()
    problems: list[str] = []
    if wl.NEEDS_QUOTIENT:
        tracer.install()
        try:
            tracer.qid = "quotient"
            _, q, problem = build_quotient()
            if problem:
                problems.append(problem)
            tracer.qid = None
        finally:
            tracer.uninstall()
        wl.use_quotient(q)

    # untraced rounds first: the reference for the tracing overhead
    plain, seen_plain, plain_rounds = timed_rounds(wl, seconds / 3)
    wl.tracer = tracer
    tracer.install()
    try:
        traced, seen_traced, traced_rounds = timed_rounds(wl, seconds * 2 / 3, tracer)
    finally:
        tracer.uninstall()
        wl.tracer = None
    spans = tracer.spans + wl.child_spans()
    once_spans = [s for s in spans if s[6] == "quotient"]
    round_spans = [s for s in spans if s[6] != "quotient"]

    seen = [dict(a) for a in seen_plain]
    for qi, digests in enumerate(seen_traced):
        for digest, count in digests.items():
            seen[qi][digest] = seen[qi].get(digest, 0) + count
    failed, messages = verify(wl, seen)

    values, units = layers.per_layer_metrics(
        once=aggregate(once_spans),
        per_round=aggregate(round_spans),
        rounds=traced_rounds,
        plain_round_s=sum(plain) / plain_rounds,
        traced_round_s=sum(traced) / traced_rounds,
        cli_wall_ms=wl.cli_wall_ms(),
        startup_ms=layers.cli_startup_ms(root, child_env(root), run_child),
    )
    trace_path = os.path.join(out_dir(root), f"trace-{name}-seed{seed}.jsonl")
    tracer.spans = spans
    tracer.write(trace_path)
    return {
        "values": values, "units": units, "attempted": len(plain) + len(traced),
        "failed": failed, "problems": problems + messages,
        "info": {"rounds_untraced": plain_rounds, "rounds_traced": traced_rounds,
                 "spans": len(spans), "trace_file": os.path.relpath(trace_path, root)},
    }


def run_traced(name: str, seed: int, seconds: float, root: str) -> dict:
    r = spawn_worker(name, seed, seconds, 1, root, hash_seed=1)
    return finish(name, seed, 1, root, r["values"], r["units"], r["attempted"], r["failed"],
                  not r["problems"], r["problems"], r["info"])


def finish(name, seed, trace, root, values, units, attempted, failed, correct, problems, info):
    for p in problems:
        sys.stderr.write(f"{name}: {p}\n")
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }
    for k, unit in units.items():
        print(f"{name} {k} {values[k]:.6g} {unit}")
    print(f"{name} attempted {attempted} failed {failed} correct {str(correct).lower()}")
    with open(os.path.join(out_dir(root), f"result-{name}-seed{seed}-trace{trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump({"workload": name, "seed": seed, "trace": trace, **result, "info": info},
                  fh, indent=1)
    return result


def run_all(args, root: str) -> int:
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        code, out, _, _ = run_child(
            [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            dict(os.environ), root, quiet=False,
        )
        lines = out.strip().splitlines()
        for line in lines[:-1]:
            print(line)
        if code != 0 or not lines:
            sys.stderr.write(f"{name} exited with {code}\n")
            return 1
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for k, v in result["metrics"].items():
            combined["metrics"][f"{name}/{k}"] = v
    print(json.dumps(combined))
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", help="one of %s, or all" % ", ".join(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    root = _locate_checkout()
    sys.path.insert(0, _src_dir(root))
    sys.path.insert(0, BENCH_DIR)

    if args.workload == "all":
        return run_all(args, root)
    if args.worker:
        work = worker_traced if args.trace else worker_end_to_end
        print(json.dumps(work(args.workload, args.seed, args.seconds, root)))
        return 0
    if args.trace:
        result = run_traced(args.workload, args.seed, args.seconds, root)
    else:
        result = run_end_to_end(args.workload, args.seed, args.seconds, root)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
