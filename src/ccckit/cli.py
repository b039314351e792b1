"""Command line interface.

``ccckit run --family iet --seed 7 --format json`` runs one family battery
and prints a deterministic report; ``ccckit list`` enumerates the families
and the parameters each declares in ``suites.FAMILIES``, of which only the
flags given are passed on.  ``-h``/``--help`` prints the usage.  A long flag
may be given as a unique prefix and as ``--flag=value``; the last of a
repeated flag wins.
Exit codes: 0 all checks pass, 1 verification failure, 2 unknown family,
invalid parameters (a flag the family does not take, or a value outside its
domain) or a malformed command line (the usage and one ``ccckit: error:``
line on stderr, no report), 3 I/O failure.
"""

from __future__ import annotations

import getopt
import json
import os
import sys
from json.encoder import encode_basestring_ascii

from .core import CcckitError
from .suites import FAMILIES, run_family

EXIT_OK = 0
EXIT_VERIFICATION_FAILURE = 1
EXIT_UNKNOWN_FAMILY = 2  # also invalid parameters and a malformed command line
EXIT_IO_FAILURE = 3

PARAMETERS = dict.fromkeys(name for battery in FAMILIES.values() for name in battery.params)

# each command's long flags; every one takes a value
FLAGS = {"run": ("family", *PARAMETERS, "seed", "format", "out"), "list": ()}

USAGE = f"""usage: ccckit list
       ccckit run --family FAMILY {' '.join(f'[--{p} N]' for p in PARAMETERS)}
                  [--seed N] [--format json|text] [--out FILE]
"""
HELP = USAGE + """
`ccckit list` prints the family parameters.  --seed defaults to the CCCKIT_SEED
env var, else 0; --format to text; --out to stdout.  A long flag may be given
as a unique prefix, and as --flag=value.
"""


def parse_args(argv: list[str]) -> dict | None:
    """The command line as {"command": ..., flag: value}, with only the
    flags given, the last of a repeated one, and the seed and family
    parameters as ints; None for -h/--help.  A malformed line raises
    getopt.GetoptError."""
    opts, rest = getopt.getopt(argv, "h", ["help"])
    if not opts:
        if not rest or rest[0] not in FLAGS:
            raise getopt.GetoptError("expected the command run or list, got "
                                     + (repr(rest[0]) if rest else "none"))
        opts, extra = getopt.getopt(rest[1:], "h", ["help", *(f + "=" for f in FLAGS[rest[0]])])
        if extra:
            raise getopt.GetoptError(f"unrecognized arguments: {' '.join(extra)}")
    for opt, value in opts:
        if value.startswith("-") and value != "-" and not value[1:].isdigit():
            # a flag in a value's place (`--out --seed 3`): the value is missing
            raise getopt.GetoptError(f"argument {opt}: expected one argument")
    args = {opt.lstrip("-"): value for opt, value in opts}
    if args.keys() & {"h", "help"}:
        return None
    args["command"] = rest[0]
    if rest[0] == "run":
        if "family" not in args:
            raise getopt.GetoptError("the following arguments are required: --family")
        for name in ("seed", *PARAMETERS):
            if name in args:
                try:
                    args[name] = int(args[name])
                except ValueError:
                    raise getopt.GetoptError(
                        f"argument --{name}: invalid int value: {args[name]!r}") from None
        if args.get("format", "text") not in ("json", "text"):
            raise getopt.GetoptError(f"argument --format: {args['format']!r} is not json or text")
    return args


# One check record as json.dumps(report, sort_keys=True, indent=2) lays it
# out inside the report: keys sorted, record at depth 2 of the indent.
_CHECK_JSON = ('    {\n      "detail": %s,\n      "lhs": %s,\n      "name": %s,\n'
               '      "rhs": %s,\n      "status": %s\n    }')


def render_json(report: dict) -> str:
    """json.dumps(report, sort_keys=True, indent=2) + "\\n", for a report
    of run_family's shape.

    json's indenting encoder runs in Python, one call per token.  The check
    records are nearly all of a report and have five fixed str fields, so
    each is written from _CHECK_JSON with the C string encoder that
    json.dumps applies to a str; json.dumps writes only the head around
    them."""
    head = json.dumps({**report, "checks": []}, sort_keys=True, indent=2)
    if not report["checks"]:
        return head + "\n"
    body = ",\n".join(
        _CHECK_JSON % (encode_basestring_ascii(c["detail"]), encode_basestring_ascii(c["lhs"]),
                       encode_basestring_ascii(c["name"]), encode_basestring_ascii(c["rhs"]),
                       encode_basestring_ascii(c["status"]))
        for c in report["checks"])
    # a raw newline and two spaces open a top-level key; strings escape
    # their newlines, so this matches the one "checks" key and nothing else
    return head.replace('\n  "checks": []', '\n  "checks": [\n' + body + "\n  ]", 1) + "\n"


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
    try:
        args = parse_args(sys.argv[1:] if argv is None else argv)
    except getopt.GetoptError as exc:
        sys.stderr.write(f"{USAGE}ccckit: error: {exc.msg}\n")
        return EXIT_UNKNOWN_FAMILY
    if args is None:
        sys.stdout.write(HELP)
        return EXIT_OK

    if args["command"] == "list":
        for name, battery in FAMILIES.items():
            params = "  ".join(f"--{p} {default} ({battery.domain(p)})"
                               for p, (default, _, _) in battery.params.items())
            print(f"{name:13s} {battery.description}\n{'':13s} {params}")
        return EXIT_OK

    family = args["family"]
    if family not in FAMILIES:
        print(f"unknown family {family!r}; run `ccckit list`", file=sys.stderr)
        return EXIT_UNKNOWN_FAMILY

    seed = args.get("seed")
    if seed is None:
        env_seed = os.environ.get("CCCKIT_SEED", "0")
        try:
            seed = int(env_seed)
        except ValueError:
            print(f"cannot run family {family!r}: CCCKIT_SEED={env_seed!r} is not an integer",
                  file=sys.stderr)
            return EXIT_UNKNOWN_FAMILY

    try:
        report = run_family(family, seed=seed, **{p: v for p, v in args.items() if p in PARAMETERS})
    except (ValueError, KeyError, CcckitError) as exc:
        print(f"cannot run family {family!r}: {exc}", file=sys.stderr)
        return EXIT_UNKNOWN_FAMILY

    if args.get("format") == "json":
        payload = render_json(report)
    else:
        payload = render_text(report)

    out = args.get("out")
    if out:
        try:
            with open(out, "w") as fh:
                fh.write(payload)
        except OSError as exc:
            print(f"cannot write {out!r}: {exc}", file=sys.stderr)
            return EXIT_IO_FAILURE
    else:
        sys.stdout.write(payload)

    ok = all(c["status"] == "pass" for c in report["checks"])
    return EXIT_OK if ok else EXIT_VERIFICATION_FAILURE


if __name__ == "__main__":
    sys.exit(main())
