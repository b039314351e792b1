#!/usr/bin/env python3
"""Run every family battery and print a one-line verdict per family.

Usage: python scripts/run_all_suites.py [--seed N] [--json-dir DIR]
"""

import argparse
import os
import sys

from ccckit.cli import render_json
from ccckit.suites import FAMILIES, run_family


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--json-dir", default=None,
                        help="also write each report as DIR/<family>.json, the bytes "
                             "of `ccckit run --family <family> --format json`")
    args = parser.parse_args()

    failures = 0
    for family in FAMILIES:
        report = run_family(family, seed=args.seed)
        ok = all(c["status"] == "pass" for c in report["checks"])
        failures += 0 if ok else 1
        tag = "PASS" if ok else "FAIL"
        bounded = " [bounded]" if report["bounded"] else ""
        print(f"{tag}  {family:13s} {len(report['checks'])} checks{bounded}")
        if args.json_dir:
            os.makedirs(args.json_dir, exist_ok=True)
            with open(os.path.join(args.json_dir, f"{family}.json"), "w") as fh:
                fh.write(render_json(report))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
