"""Record the correctness oracle in golden.json.

Usage, from the root of a checkout:

    python3 perfbench/record.py --seeds 0-10

For each workload and seed, runs the job list once and pins every job's
exit code and stdout sha256.  For `homology` it also runs each operation on
the unchanged input algebras and records their dimensions, which the
seeded basis changes must reproduce.  Record only at a commit whose output
is trusted: every later run is compared against these bytes.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import run
import workloads


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def homology_dims(runner: run.Runner) -> dict:
    dims = {}
    for name, (recipe, ops) in workloads.HOMOLOGY_BASES.items():
        dim, table = workloads.base_algebra(recipe, runner.setup_cli)
        path = runner.work / f"{name}.unchanged.json"
        path.write_bytes(workloads.dump_table(dim, table))
        for op in ops:
            dims[f"{name}/{op}"] = json.loads(runner.setup_cli(["homology", "--which", op, str(path)]))["dimension"]
    return dims


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seed_range, required=True, help="N or LO-HI")
    args = parser.parse_args()
    work = run.ROOT / ".perfbench_work" / "record"
    work.mkdir(parents=True, exist_ok=True)
    runner = run.Runner(work, time.monotonic() + 3600)
    golden = json.loads(run.GOLDEN.read_text()) if run.GOLDEN.exists() else {}
    golden["homology_dims"] = dims = homology_dims(runner)
    digests = golden.setdefault("digests", {})
    for workload in workloads.WORKLOADS:
        for seed in args.seeds:
            start = time.monotonic()
            jobs = workloads.build(workload, seed, work, runner.setup_cli, dims)
            results = runner.round(jobs, traced=False).results
            failed = run.failures(jobs, results, None)
            if failed:
                print(f"{workload} seed {seed}: not recorded, {len(failed)} failed, first {failed[0]}", file=sys.stderr)
                return 1
            digests.setdefault(workload, {})[str(seed)] = {
                r.label: [r.rc, run.digest(r.stdout)] for r in results
            }
            print(f"{workload} seed {seed}: {len(jobs)} jobs in {time.monotonic() - start:.1f} s")
    run.GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
