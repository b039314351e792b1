"""One benchmark pass: a fresh interpreter runs a workload's jobs back to back.

    python perfbench/passrun.py --workload W --seed N --reports DIR --result FILE
                                [--trace] [--spans FILE] [--probe]

It times ``import ccckit.cli`` (set-up), then each job, and writes a JSON
result: set-up seconds, pass wall seconds (the sum of the job times), peak
RSS, the reference times taken after the import and after every job, and
per job its exit code, first stderr line, report digest and size, check
counts and any schema problems.  ``--probe`` stops after the import and
the first reference time.  ``--trace`` installs the span tracer after the
import and adds the per-layer metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import resource
import sys
import time

import workloads

REPORT_KEYS = {"family", "params", "checks", "bounded", "seed", "elapsed_ms"}
CHECK_KEYS = {"name", "status", "lhs", "rhs", "detail"}


def reference_seconds() -> float:
    """Time a fixed computation that runs no ccckit code: tuples, a dict and
    Fractions, the kinds of work the jobs do.  The collector is off, so the
    size of the heap the jobs left does not change it."""
    from fractions import Fraction

    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        total, seen, words = Fraction(0), {}, []
        for i in range(1000):
            w = tuple((i * k) % 23 - 11 for k in range(1, 14))
            seen[w] = seen.get(w, 0) + 1
            words.append(tuple(-x for x in reversed(w)))
            total += Fraction(i % 13 + 1, i % 7 + 2)
            if len(words) == 50:  # bounded, so the reference adds nothing to peak RSS
                words.sort()
                words.clear()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def run_cli_job(cli, job: dict, seed: int, out_path: str) -> tuple[int, str, bytes | None]:
    if os.path.exists(out_path):
        os.remove(out_path)
    argv = job["argv"] + ["--seed", str(seed), "--format", "json", "--out", out_path]
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:  # a traceback is a failed job, not a crash of the pass
            code, err = -1, io.StringIO(f"{type(exc).__name__}: {exc}")
    report = None
    if os.path.exists(out_path):
        with open(out_path, "rb") as fh:
            report = fh.read()
    lines = err.getvalue().strip().splitlines()
    return code, lines[0] if lines else "", report


def run_seeded_job(job: dict, seed: int) -> tuple[int, str, bytes | None]:
    try:
        return 0, "", workloads.run_seeded(job, seed)
    except Exception as exc:
        return -1, f"{type(exc).__name__}: {exc}", None


def check_report(job: dict, seed: int, code: int, report: bytes | None) -> dict:
    """Count one job's checks and list what is wrong with its output."""
    out = {"checks": 0, "passing_checks": 0, "first_fail": "", "problems": []}
    if report is None:
        # only usage errors (exit 2) and I/O failures (exit 3) write no report
        if code not in (2, 3):
            out["problems"].append(f"exit {code} without a report")
        return out
    try:
        data = json.loads(report)
    except ValueError as exc:
        out["problems"].append(f"report is not JSON: {exc}")
        return out
    problems = []
    checks = data.get("checks") or []
    if not checks:
        problems.append("report has no checks")
    if any(set(c) != CHECK_KEYS or c["status"] not in ("pass", "fail") for c in checks):
        problems.append("malformed check record")
    n_pass = sum(1 for c in checks if c.get("status") == "pass")
    all_pass = n_pass == len(checks)
    if data.get("seed") != seed:
        problems.append(f"report seed {data.get('seed')} != {seed}")
    if job["kind"] == "cli":
        if set(data) != REPORT_KEYS:
            problems.append(f"report keys {sorted(data)}")
        if data.get("family") != job["argv"][2]:
            problems.append(f"report family {data.get('family')!r}")
        if data.get("elapsed_ms") != 0:
            problems.append("elapsed_ms is not 0")
        if code != (0 if all_pass else 1):
            problems.append(f"exit {code} but {n_pass}/{len(checks)} checks pass")
    else:
        # the shipped witness commutes with every generator built in its block
        if len(checks) != workloads.expected_seeded_checks() or not all_pass:
            problems.append(f"seeded verdict {n_pass}/{len(checks)} "
                            f"(expected {workloads.expected_seeded_checks()} passing)")
    failing = [c.get("name", "") for c in checks if c.get("status") != "pass"]
    out.update(checks=len(checks), passing_checks=n_pass, problems=problems,
               first_fail=f"first failing check {failing[0]!r}" if failing else "")
    return out


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--reports", required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--spans", default=None)
    ap.add_argument("--probe", action="store_true")
    args = ap.parse_args()

    t0 = time.perf_counter()
    import ccckit.cli as cli
    setup_s = time.perf_counter() - t0
    result: dict = {"setup_s": setup_s, "reference_s": [reference_seconds()]}
    if args.probe:
        with open(args.result, "w") as fh:
            json.dump(result, fh)
        return 0

    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.install()

    jobs = workloads.WORKLOADS[args.workload]
    os.makedirs(args.reports, exist_ok=True)
    outputs = []
    job_counts = []
    for k, job in enumerate(jobs):
        start = time.perf_counter()
        if job["kind"] == "cli":
            out_path = os.path.join(args.reports, f"{k:02d}.json")
            call = lambda: run_cli_job(cli, job, args.seed, out_path)
            name = "cli.main"
        else:
            call = lambda: run_seeded_job(job, args.seed)
            name = "job.seeded"
        if tracer is None:
            code, err, report = call()
        else:
            code, err, report = tracer.run_job(name, call)
            job_counts.append(tracer.end_job(report is not None))
        outputs.append((job, code, err, report, time.perf_counter() - start))
        result["reference_s"].append(reference_seconds())
    result["wall_s"] = sum(seconds for *_, seconds in outputs)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    result["jobs"] = []
    for job, code, err, report, seconds in outputs:
        result["jobs"].append({
            "label": job["label"], "kind": job["kind"], "exit": code, "stderr": err,
            "sha256": hashlib.sha256(report or b"").hexdigest(),
            "bytes": len(report or b""), "seconds": seconds,
            **check_report(job, args.seed, code, report),
        })
    if tracer is not None:
        metrics, shares = tracer.metrics()
        metrics["cli.report_bytes"] = sum(j["bytes"] for j in result["jobs"]
                                          if j["kind"] == "cli")
        result["layers"] = metrics
        for j, (job_s, matrix_s, invdet_s), (records, inv_calls, inv_distinct) in zip(
                result["jobs"], shares, job_counts):
            j["matrixring_share"] = matrix_s / job_s
            j["inv_det_share"] = invdet_s / job_s
            j["recorded_checks"] = records
            j["inv_calls"], j["inv_distinct"] = inv_calls, inv_distinct
        if args.spans:
            tracer.write_spans(args.spans)
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
