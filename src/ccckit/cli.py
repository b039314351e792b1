"""Command line interface.

``ccckit run --family iet --seed 7 --format json`` runs one family battery
and prints a deterministic report; ``ccckit list`` enumerates the families.
Exit codes: 0 all checks pass, 1 verification failure, 2 unknown family or
invalid parameters, 3 I/O failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .core import CcckitError
from .suites import FAMILIES, run_family

EXIT_OK = 0
EXIT_VERIFICATION_FAILURE = 1
EXIT_UNKNOWN_FAMILY = 2
EXIT_IO_FAILURE = 3


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="ccckit",
                                     description="exact commutation witness batteries")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one family battery")
    run_p.add_argument("--family", required=True)
    run_p.add_argument("--size", type=int, default=2)
    run_p.add_argument("--depth", type=int, default=2)
    run_p.add_argument("--bound", type=int, default=8)
    run_p.add_argument("--samples", type=int, default=50)
    run_p.add_argument("--seed", type=int, default=None,
                       help="default: CCCKIT_SEED env var, else 0")
    run_p.add_argument("--format", choices=("json", "text"), default="text")
    run_p.add_argument("--out", default=None, help="write the report here instead of stdout")

    sub.add_parser("list", help="list available families")
    return parser


def render_text(report: dict) -> str:
    lines = [f"family: {report['family']}",
             f"params: {json.dumps(report['params'], sort_keys=True)}",
             f"seed: {report['seed']}"]
    n_pass = sum(1 for c in report["checks"] if c["status"] == "pass")
    for c in report["checks"]:
        mark = "ok " if c["status"] == "pass" else "FAIL"
        detail = f"  ({c['detail']})" if c["detail"] else ""
        lines.append(f"  [{mark}] {c['name']}: {c['lhs']} = {c['rhs']}{detail}")
    lines.append(f"{n_pass}/{len(report['checks'])} checks passed"
                 + ("  [bounded]" if report["bounded"] else ""))
    return "\n".join(lines) + "\n"


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)

    if args.command == "list":
        for name, (_, description) in FAMILIES.items():
            print(f"{name:13s} {description}")
        return EXIT_OK

    if args.family not in FAMILIES:
        print(f"unknown family {args.family!r}; run `ccckit list`", file=sys.stderr)
        return EXIT_UNKNOWN_FAMILY

    seed = args.seed
    if seed is None:
        env_seed = os.environ.get("CCCKIT_SEED", "0")
        try:
            seed = int(env_seed)
        except ValueError:
            print(f"cannot run family {args.family!r}: CCCKIT_SEED={env_seed!r} is not an integer",
                  file=sys.stderr)
            return EXIT_UNKNOWN_FAMILY

    try:
        report = run_family(args.family, size=args.size, depth=args.depth,
                            bound=args.bound, samples=args.samples, seed=seed)
    except (ValueError, KeyError, CcckitError) as exc:
        print(f"cannot run family {args.family!r}: {exc}", file=sys.stderr)
        return EXIT_UNKNOWN_FAMILY

    if args.format == "json":
        payload = json.dumps(report, sort_keys=True, indent=2) + "\n"
    else:
        payload = render_text(report)

    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write(payload)
        except OSError as exc:
            print(f"cannot write {args.out!r}: {exc}", file=sys.stderr)
            return EXIT_IO_FAILURE
    else:
        sys.stdout.write(payload)

    ok = all(c["status"] == "pass" for c in report["checks"])
    return EXIT_OK if ok else EXIT_VERIFICATION_FAILURE


if __name__ == "__main__":
    sys.exit(main())
