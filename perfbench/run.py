"""roncoalg benchmark: seeded CLI workloads, one cold process per job.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One client runs the workload's fixed job list in a closed loop: each job
is one `roncoalg` CLI call made as `cli.main(argv)` in a fresh Python child
(`child.py`), started only after the previous one has exited.  So every
job pays interpreter start, the package import and cold `functools`
caches, as a real CLI call does.  The list is run again, round after round,
while another round still fits in S seconds, and at least three times
(once with --trace 1).

--trace 0 prints the end-to-end metrics of BENCHMARK.json, with times
scaled to the speed of the host (see REFERENCE_PROGRAM; the unscaled values
are printed too).  --trace 1 alternates untraced and traced rounds and
prints the per-layer metrics, from spans recorded by `spans.Tracer` around
the package's layer entry points (the spans go to
.perfbench_work/WORKLOAD/spans.jsonl).  Either way the last line of stdout
is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  A job fails on a wrong
exit code, a failed invariant, or, for a seed recorded in golden.json, a
stdout digest that differs from the recorded one.
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
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CHILD = HERE / "child.py"
GOLDEN = HERE / "golden.json"
# Every run, untraced or traced, ends within this many seconds of its start.
HARD_LIMIT_S = 170.0
MIN_ROUNDS = 3

# A fixed program that, like a job, starts an interpreter, imports modules
# and does exact rational arithmetic, but shares no code with the package.
# On a shared host the speed of the machine can change by tens of percent
# for minutes at a time; the median time of this program, run between the
# jobs, measures that speed, and end-to-end times are scaled to what they
# would be if it took REFERENCE_NOMINAL_S.
REFERENCE_PROGRAM = """
import argparse, dataclasses, decimal, json, pathlib, random, re, statistics, typing
from fractions import Fraction
x, d = Fraction(0), {}
for i in range(1, 3000):
    x += Fraction(i % 7 + 1, i % 97 + 1)
    d[i % 101] = d.get(i % 101, 0) + i
"""
REFERENCE_EVERY = 3  # jobs between two runs of the reference program
REFERENCE_NOMINAL_S = 0.07


@dataclass
class Result:
    label: str
    rc: int | None
    stdout: bytes
    main_s: float = 0.0
    setup_s: float = 0.0
    rss_mb: float = 0.0
    error: str | None = None
    trace: dict | None = None


@dataclass
class Round:
    wall_s: float
    results: list[Result]


class Runner:
    """Starts job children in a work directory inside the checkout."""

    def __init__(self, work: Path, deadline: float):
        self.work = work
        self.deadline = deadline
        self.report = work / "report.json"
        self.reference: list[float] = []  # seconds per run of REFERENCE_PROGRAM

    def run(self, job: workloads.Job, traced: bool) -> Result:
        self.report.unlink(missing_ok=True)
        env = {k: v for k, v in os.environ.items() if k != "RONCO_MAX_DEGREE"}
        env.update(job.env)
        cmd = [sys.executable, str(CHILD), str(self.report), "1" if traced else "0", str(SRC), "--", *job.argv]
        spawn = time.monotonic()
        if spawn >= self.deadline:
            return Result(job.label, None, b"", error="not started, the run is out of time")
        try:
            proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                  timeout=self.deadline - spawn)
        except subprocess.TimeoutExpired:
            return Result(job.label, None, b"", error="timed out")
        if job.save is not None:
            job.save.write_bytes(proc.stdout)
        if not self.report.exists():
            tail = proc.stderr.decode(errors="replace").strip().splitlines()[-1:]
            return Result(job.label, proc.returncode, proc.stdout, error=f"no report: {' '.join(tail)}")
        report = json.loads(self.report.read_text())
        return Result(job.label, proc.returncode, proc.stdout, main_s=report["main_s"],
                      setup_s=report["ready"] - spawn, rss_mb=report["maxrss_kb"] / 1024,
                      trace=report if traced else None)

    def setup_cli(self, argv: list[str]) -> bytes:
        result = self.run(workloads.Job("setup", argv), traced=False)
        if result.error or result.rc != 0:
            raise RuntimeError(f"set-up call {argv} failed: {result.error or result.rc}")
        return result.stdout

    def measure_reference(self):
        start = time.monotonic()
        subprocess.run([sys.executable, "-c", REFERENCE_PROGRAM], check=True)
        self.reference.append(time.monotonic() - start)

    def round(self, jobs: list[workloads.Job], traced: bool) -> Round:
        results, wall = [], 0.0
        for n, job in enumerate(jobs):
            start = time.perf_counter()
            results.append(self.run(job, traced))
            wall += time.perf_counter() - start
            if not traced and n % REFERENCE_EVERY == 0:
                self.measure_reference()
        return Round(wall, results)


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def failures(jobs: list[workloads.Job], results: list[Result], recorded: dict | None) -> list[tuple[str, str]]:
    """(label, reason) per failed job; `recorded` maps labels to [exit code, stdout sha256]."""
    out = []
    for job, res in zip(jobs, results):
        reason = res.error
        if reason is None and res.rc != job.expect_rc:
            reason = f"exit code {res.rc}, expected {job.expect_rc}"
        if reason is None and job.check is not None:
            try:
                reason = job.check(res.stdout)
            except (ValueError, KeyError, TypeError) as exc:
                reason = f"unreadable stdout: {exc!r}"
        if reason is None and recorded is not None:
            want = recorded.get(job.label)
            if want is None:
                reason = "no recorded digest"
            elif [res.rc, digest(res.stdout)] != want:
                reason = "stdout differs from the recorded digest"
        if reason is not None:
            out.append((job.label, reason))
    return out


# Jobs counted beyond the tail: at least 10 job runs in the three rounds a
# run normally makes.
TAIL_JOBS_BEYOND = 4


def end_to_end(rounds: list[Round], scale: float = 1.0) -> tuple[dict, str]:
    """Each job's time is its median over the rounds, which absorbs a round run
    while the host was slow; the job quantiles are taken over the job list.
    Times are multiplied by `scale`."""
    jobs = len(rounds[0].results)
    per_job = sorted(statistics.median(rnd.results[j].main_s for rnd in rounds) for j in range(jobs))
    rank = max(0, jobs - 1 - TAIL_JOBS_BEYOND)
    metrics = {
        "wall_s": scale * statistics.median(rnd.wall_s for rnd in rounds),
        "job_p50_s": scale * statistics.median(per_job),
        "job_tail_s": scale * per_job[rank],
        "setup_s": scale * statistics.median(r.setup_s for rnd in rounds for r in rnd.results),
        "peak_rss_mb": max(r.rss_mb for rnd in rounds for r in rnd.results),
    }
    note = (f"job_tail_s is p{100 * (rank + 1) / jobs:.1f} of {jobs} jobs, "
            f"{jobs * len(rounds)} job runs")
    return metrics, note


def layer_metrics(results: list[Result]) -> dict:
    """Per-layer numbers of one traced round."""
    out: dict = defaultdict(float)
    counters: dict = defaultdict(float)
    caches: dict = {}
    for res in results:
        trace = res.trace
        for name, stat in spans.summarize(trace["names"], trace["spans"]).items():
            for key, value in stat.items():
                out[f"{name}.{key}"] += value
            out[f"{name.split('.')[0]}.self_s"] += stat["self_s"]
        for key, value in trace["counters"].items():
            counters[key] += value
        for name, info in trace["caches"].items():
            total = caches.setdefault(name, {"hits": 0, "misses": 0, "size": 0})
            total["hits"] += info["hits"]
            total["misses"] += info["misses"]
            total["size"] = max(total["size"], info["size"])
    for key in ("structure.violations", "structure.tuples_visited", "jsonio.bytes_in", "jsonio.bytes_out",
                "homology.chain_dim", "linalg.rank_and_kernel.rows", "linalg.rank_and_kernel.cols",
                "linalg.rank_and_kernel.nnz"):
        out[key] = counters[key]
    out["structure.table_density"] = _ratio(counters["structure.cells"], counters["structure.cells_possible"])
    out["linalg.SpanBuilder.add.useful_ratio"] = _ratio(counters["linalg.SpanBuilder.add.useful"],
                                                        out["linalg.SpanBuilder.add.calls"])
    for name, total in caches.items():
        out[f"{name}.hits"] = total["hits"]
        out[f"{name}.misses"] = total["misses"]
        out[f"{name}.size"] = total["size"]
        out[f"{name}.hit_ratio"] = _ratio(total["hits"], total["hits"] + total["misses"])
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.monotonic()

    if not (SRC / "roncoalg" / "cli.py").is_file():
        print(f"error: no roncoalg sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    golden = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    recorded = golden.get("digests", {}).get(args.workload, {}).get(str(args.seed))

    work = ROOT / ".perfbench_work" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    runner = Runner(work, started + HARD_LIMIT_S)
    jobs = workloads.build(args.workload, args.seed, work, runner.setup_cli, golden.get("homology_dims", {}))

    plain: list[Round] = []
    traced: list[Round] = []
    loop_start = time.monotonic()
    while True:
        plain.append(runner.round(jobs, traced=False))
        if args.trace:
            traced.append(runner.round(jobs, traced=True))
        # Start another round only if the slowest one so far would still fit,
        # but make MIN_ROUNDS untraced ones, so each job's median has a majority.
        cost = max(r.wall_s for r in plain) + max((r.wall_s for r in traced), default=0.0)
        if time.monotonic() + cost > runner.deadline:
            break
        if time.monotonic() - loop_start + cost > args.seconds and (args.trace or len(plain) >= MIN_ROUNDS):
            break

    failed: dict = {}  # (round, label) -> reason, at most one per job run
    untraced = {r.label: digest(r.stdout) for r in plain[0].results}
    for n, rnd in enumerate(plain + traced):
        for label, reason in failures(jobs, rnd.results, recorded):
            failed.setdefault((n, label), reason)
        for r in rnd.results if n >= len(plain) else ():
            if digest(r.stdout) != untraced[r.label]:
                failed.setdefault((n, r.label), "traced stdout differs from untraced")
    attempted = sum(len(rnd.results) for rnd in plain + traced)

    if args.trace:
        with open(work / "spans.jsonl", "w") as f:  # round, job, name, start ns, end ns, parent index
            for n, rnd in enumerate(traced):
                for r in rnd.results:
                    names = r.trace["names"]
                    f.writelines(json.dumps([n, r.label, names[i], start, end, parent]) + "\n"
                                 for i, start, end, parent in r.trace["spans"])
        per_round = [layer_metrics(rnd.results) for rnd in traced]
        values = {key: statistics.median(m.get(key, 0.0) for m in per_round)
                  for key in sorted(set().union(*per_round))}
        values["trace.overhead_s"] = (statistics.median(r.wall_s for r in traced)
                                      - statistics.median(r.wall_s for r in plain))
        wanted = spec["per_layer"]
        note = f"{len(traced)} traced and {len(plain)} untraced round(s)"
    else:
        reference = statistics.median(runner.reference)
        values, note = end_to_end(plain, REFERENCE_NOMINAL_S / reference)
        unscaled, _ = end_to_end(plain)
        note = (f"{len(plain)} round(s); {note}; reference program {reference:.4f} s, times scaled to "
                f"{REFERENCE_NOMINAL_S} s; unscaled " + ", ".join(f"{k} {v:.4g}" for k, v in unscaled.items()))
        wanted = spec["end_to_end"]

    print(f"workload {args.workload}, seed {args.seed}, {len(jobs)} jobs per round, {note}")
    for metric in wanted:
        print(f"  {metric['name']:<44} {values.get(metric['name'], 0.0):>14.6g} {metric['unit']}")
    listed = {m["name"] for m in wanted}
    for key in sorted(set(values) - listed) if args.trace else ():
        print(f"  {key:<44} {values[key]:>14.6g}  (not in BENCHMARK.json)")
    print(f"  failed_share {len(failed) / attempted:.4g} ({len(failed)} of {attempted} jobs)")
    for (n, label), reason in list(failed.items())[:20]:
        print(f"  FAILED round {n + 1}, {label}: {reason}")
    metrics = {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]} for m in wanted}
    print(json.dumps({"correct": not failed, "attempted": attempted, "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
