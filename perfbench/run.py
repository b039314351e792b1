"""ccckit benchmark: end-to-end and per-layer metrics for three job workloads.

    python3 perfbench/run.py --workload {matrix,words,rational} --seed N \\
                             --seconds S --trace {0,1}

Run it from the repository root; every metric of all three workloads:

    for w in matrix words rational; do
        python3 perfbench/run.py --workload $w --seed 0 --seconds 30 --trace 0
    done

A pass runs the workload's jobs (see ``workloads.py``) back to back in one
fresh interpreter: one client, a closed loop, no threads.  Each pass
starts cold, as every CLI call does.

Set-up: one import compiles the byte code; then SETUP_PROBES fresh
interpreters before the passes and as many after them time
``import ccckit.cli``, and so does every pass.  Passes run until the next
one would end after ``--seconds``, and at least two run, so that every
report is compared across passes of one seed.  With ``--trace 1`` each
untraced pass is followed by a traced one (see ``tracing.py``).

End-to-end metrics (``--trace 0``): ``setup_s``, the median time of
``import ccckit.cli``; ``wall_s``, the median pass time (the sum of its job
times); ``checks_per_s``, check records in the reports of passing jobs per
second of pass time; ``peak_rss_mb``, the median peak RSS of a pass.

Times are scaled to a nominal machine.  After the import and after every
job a pass times a fixed computation that runs no ccckit code
(``passrun.reference_seconds``); the import and each job are multiplied by
NOMINAL_REFERENCE_S over the reference time next to them.  Neighbours on
a shared machine slow every process alike for minutes at a time: on a
2-vCPU VM the reference read 7.4 to 11.9 ms within an hour, and unscaled
pass times moved with it by up to 60%.  The unscaled times are printed
beside the scaled ones.  Per-layer metrics (``--trace 1``) are unscaled
medians over the traced passes, plus ``trace.overhead_s``, the scaled
median traced pass minus ``wall_s``.

A job fails when it exits nonzero or raises, or when its report bytes
differ between passes.  The output is wrong (``correct: false``) when a
report breaks the report schema or the exit-code contract, a seeded job
does not pass, reports differ between passes, or the traced check count
disagrees with the reports.

The last line of standard output is one JSON object: ``correct``,
``attempted`` and ``failed`` (job runs over all passes) and ``metrics``.
Per-pass results, reports, a summary and the spans of the first traced
pass go under ``.bench_build/perfbench``.
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

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True  # leave no __pycache__ in the benchmark's directory

import workloads  # noqa: E402

SETUP_PROBES = 5
PASS_TIMEOUT_S = 150
# Times are scaled to a nominal machine on which passrun.reference_seconds()
# reads exactly this much.
NOMINAL_REFERENCE_S = 0.010

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "checks_per_s": "1/s",
                    "peak_rss_mb": "MB"}


def layer_unit(name: str) -> str:
    if name.endswith((".s", "self_s", "overhead_s")):
        return "s"
    if name.endswith(("share", "ratio", "per_check")):
        return "ratio"
    return {"cli.report_bytes": "bytes", "matrixring.entry_bits.max": "bits",
            "braid.eq.letters.max": "letters", "perm.support.max": "points"}.get(name, "count")


class BenchError(Exception):
    pass


class Runner:
    def __init__(self, root: str, workload: str, seed: int):
        self.workload, self.seed = workload, seed
        self.out = os.path.join(root, ".bench_build", "perfbench")
        # Byte code is cached under .bench_build, as an installed package
        # keeps it, so set-up times imports rather than compilation.
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"),
                        PYTHONPYCACHEPREFIX=os.path.join(root, ".bench_build", "pycache"))
        for name in ("PYTHONDONTWRITEBYTECODE", "CCCKIT_SEED"):
            self.env.pop(name, None)
        self.root = root
        self.count = 0

    def run_pass(self, trace: bool = False, probe: bool = False, spans: str | None = None):
        self.count += 1
        result = os.path.join(self.out, "passes", f"{self.workload}-{self.seed}.json")
        # -S: ccckit needs only the standard library, and skipping site
        # keeps interpreter start-up, which no metric includes, short.
        cmd = [sys.executable, "-S", os.path.join(HERE, "passrun.py"), "--workload", self.workload,
               "--seed", str(self.seed), "--result", result,
               "--reports", os.path.join(self.out, "reports", f"{self.workload}-{self.seed}")]
        cmd += ["--trace"] * trace + ["--probe"] * probe + (["--spans", spans] if spans else [])
        try:
            proc = subprocess.run(cmd, cwd=self.root, env=self.env, timeout=PASS_TIMEOUT_S,
                                  stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
        except subprocess.TimeoutExpired:
            raise BenchError(f"pass {self.count} ran longer than {PASS_TIMEOUT_S} s") from None
        if proc.returncode != 0:
            tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
            raise BenchError(f"pass {self.count} exited {proc.returncode}: {tail[0]}")
        with open(result) as fh:
            return json.load(fh)


def measure(runner: Runner, seconds: float, trace: bool):
    """Return (set-up probe results, untraced passes, traced passes).

    Set-up probes run before and after the passes, so that the set-up
    samples span the run as the passes do."""
    runner.run_pass(probe=True)  # compiles the byte code; not timed
    setup = [runner.run_pass(probe=True) for _ in range(SETUP_PROBES)]
    untraced, traced, units = [], [], []
    spans = os.path.join(runner.out, "trace", f"{runner.workload}-seed{runner.seed}.spans.tsv")
    t0 = time.monotonic()
    while True:
        start = time.monotonic()
        untraced.append(runner.run_pass())
        if trace:
            traced.append(runner.run_pass(trace=True, spans=None if traced else spans))
        units.append(time.monotonic() - start)
        enough = len(untraced) >= (1 if trace else 2)
        if enough and time.monotonic() - t0 + statistics.median(units) > seconds:
            setup += [runner.run_pass(probe=True) for _ in range(SETUP_PROBES)]
            return setup, untraced, traced


def judge(passes: list, traced: list) -> tuple[bool, list, int, int, list]:
    """Return (correct, problems, attempted, failed, failures)."""
    ref = passes[0]["jobs"]
    problems, failures = [], {}
    attempted = failed = 0
    for p in passes + traced:
        for job, first in zip(p["jobs"], ref):
            attempted += 1
            reason = None
            if job["exit"] != 0:
                reason = f"exit {job['exit']}: {job['stderr'] or job['first_fail']}"
            if job["sha256"] != first["sha256"]:
                reason = "report bytes differ between passes of one seed"
                problems.append(f"{job['label']}: {reason}")
            if reason:
                failed += 1
                failures.setdefault(job["label"], reason)
            problems += [f"{job['label']}: {x}" for x in job["problems"]]
    for p in traced:
        for job in p["jobs"]:
            if job["bytes"] and job["recorded_checks"] != job["checks"]:
                problems.append(f"{job['label']}: traced {job['recorded_checks']} check "
                                f"records, report has {job['checks']}")
        in_reports = sum(j["checks"] for j in p["jobs"])
        if p["layers"]["core.checks"] != in_reports:
            problems.append(f"core.checks {p['layers']['core.checks']} != {in_reports} in reports")
    problems = list(dict.fromkeys(problems))
    return not problems, problems, attempted, failed, sorted(failures.items())


def report_digest(jobs: list) -> str:
    h = hashlib.sha256()
    for job in jobs:
        h.update(f"{job['label']}\0{job['sha256']}\n".encode())
    return h.hexdigest()


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "ccckit", "cli.py")):
        print("perfbench: run from the repository root; src/ccckit is missing", file=sys.stderr)
        return 2
    runner = Runner(root, args.workload, args.seed)
    shutil.rmtree(os.path.join(runner.out, "reports", f"{args.workload}-{args.seed}"),
                  ignore_errors=True)
    for sub in ("passes", "trace"):
        os.makedirs(os.path.join(runner.out, sub), exist_ok=True)

    t_run = time.monotonic()
    try:
        setup, untraced, traced = measure(runner, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    run_s = time.monotonic() - t_run

    correct, problems, attempted, failed, failures = judge(untraced, traced)
    jobs = untraced[0]["jobs"]
    cli_jobs = [j for j in jobs if j["kind"] == "cli"]
    median = statistics.median

    def passing_checks(p):
        return sum(j["checks"] for j in p["jobs"] if j["exit"] == 0)

    def scaled_setup(p):
        return p["setup_s"] * NOMINAL_REFERENCE_S / p["reference_s"][0]

    def scaled_wall(p):
        # each job is scaled by the reference times taken just before and after it
        ref = p["reference_s"]
        return sum(job["seconds"] * NOMINAL_REFERENCE_S * 2 / (ref[k] + ref[k + 1])
                   for k, job in enumerate(p["jobs"]))

    imports = setup + untraced + traced
    walls = [scaled_wall(p) for p in untraced]
    raw_walls = sorted(p["wall_s"] for p in untraced)
    e2e = {
        "setup_s": median(scaled_setup(p) for p in imports),
        "wall_s": median(walls),
        "checks_per_s": median(passing_checks(p) / w for p, w in zip(untraced, walls)),
        "peak_rss_mb": median(p["peak_rss_mb"] for p in untraced),
    }
    n_fail_cli = sum(1 for j in cli_jobs if j["exit"] != 0)
    n_fail = sum(1 for j in jobs if j["exit"] != 0)
    print(f"workload {args.workload}  seed {args.seed}  {len(untraced)} untraced"
          f" + {len(traced)} traced passes in {run_s:.1f} s")
    reference = median(r for p in untraced for r in p["reference_s"])
    print(f"  reference     {reference * 1000:.2f} ms measured, scaled to "
          f"{NOMINAL_REFERENCE_S * 1000:.0f} ms")
    print(f"  setup_s       {e2e['setup_s']:.4f} s   (median of {len(imports)} imports; unscaled "
          f"{median(p['setup_s'] for p in imports):.4f} s)")
    print(f"  wall_s        {e2e['wall_s']:.4f} s   (median of {len(walls)} passes; unscaled "
          f"median {median(raw_walls):.4f} s, fastest {raw_walls[0]:.4f} s)")
    print(f"  checks_per_s  {e2e['checks_per_s']:.1f} 1/s")
    print(f"  fail_ratio    {n_fail}/{len(jobs)} jobs per pass (cli jobs {n_fail_cli}/"
          f"{len(cli_jobs)}, seeded jobs {n_fail - n_fail_cli}/{len(jobs) - len(cli_jobs)});"
          f" {failed}/{attempted} over all passes")
    print(f"  peak_rss_mb   {e2e['peak_rss_mb']:.2f} MB")
    digest = report_digest(jobs)
    print(f"  report_sha256 {digest}")
    for label, reason in failures:
        print(f"  failed job    {label}: {reason}")
    for problem in problems:
        print(f"  WRONG OUTPUT  {problem}")

    summary = {"workload": args.workload, "seed": args.seed, "end_to_end": e2e,
               "report_sha256": digest, "failures": failures,
               "problems": problems, "jobs": jobs, "unscaled_pass_walls": raw_walls,
               "references": [p["reference_s"] for p in untraced],
               "job_seconds": [[p["jobs"][k]["seconds"] for p in untraced]
                               for k in range(len(jobs))]}
    if args.trace:
        layers = {name: median(p["layers"][name] for p in traced)
                  for name in traced[0]["layers"]}
        layers["trace.overhead_s"] = median(scaled_wall(p) for p in traced) - e2e["wall_s"]
        metrics = {name: {"value": v, "unit": layer_unit(name)}
                   for name, v in sorted(layers.items())}
        print(f"  tracing overhead {layers['trace.overhead_s']:.4f} s per pass "
              f"({len(traced)} pairs); spans in .bench_build/perfbench/trace/")
        print("  job                          seconds  checks  matrixring  inv+det  inv calls/distinct")
        for job in traced[0]["jobs"]:
            print(f"  {job['label']:28s} {job['seconds']:8.3f} {job['checks']:7d}"
                  f" {job['matrixring_share']:10.1%} {job['inv_det_share']:8.1%}"
                  f"  {job['inv_calls']}/{job['inv_distinct']}")
        for name, m in metrics.items():
            print(f"  {name:34s} {m['value']:.6g} {m['unit']}")
        summary["per_layer"] = layers
        summary["traced_jobs"] = traced[0]["jobs"]
    else:
        metrics = {name: {"value": v, "unit": END_TO_END_UNITS[name]} for name, v in e2e.items()}
    with open(os.path.join(runner.out, f"summary-{args.workload}-{args.seed}-t{args.trace}.json"),
              "w") as fh:
        json.dump(summary, fh, indent=1)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
