import hashlib
import json
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from ccckit import cli
from ccckit.suites import FAMILIES, run_family

SRC = str(Path(__file__).resolve().parent.parent / "src")


def run(capsys, *argv):
    code = cli.main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def test_list(capsys):
    code, out, _ = run(capsys, "list")
    assert code == cli.EXIT_OK
    for family in ("perm", "sp", "iet", "wreath-tower", "closure"):
        assert family in out


def test_list_keeps_its_bytes(capsys):
    _, out, _ = run(capsys, "list")
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "62962192380beacc8856425b3d70fb892391ef5dc63771487a1d1745f0347ac9")


def test_list_parameters_match_readme_table(capsys):
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    _, out, _ = run(capsys, "list")
    lines = out.splitlines()
    assert len(lines) == 2 * len(FAMILIES)  # a description and a parameter line each
    for head, params in zip(lines[::2], lines[1::2]):
        family = head.split()[0]
        assert f"| `{family}` | `{params.strip()}` |" in readme, family


def test_run_text(capsys):
    code, out, _ = run(capsys, "run", "--family", "perm", "--format", "text")
    assert code == cli.EXIT_OK
    assert "checks passed" in out
    assert "FAIL" not in out


def test_run_json_schema(capsys):
    code, out, _ = run(capsys, "run", "--family", "iet", "--format", "json", "--seed", "3")
    assert code == cli.EXIT_OK
    report = json.loads(out)
    assert set(report) == {"family", "params", "checks", "bounded", "seed", "elapsed_ms"}
    assert report["family"] == "iet"
    assert report["seed"] == 3
    assert report["elapsed_ms"] == 0
    for c in report["checks"]:
        assert set(c) == {"name", "status", "lhs", "rhs", "detail"}
        assert c["status"] in ("pass", "fail")


def test_bounded_flag_set_for_zmode_families(capsys):
    _, out, _ = run(capsys, "run", "--family", "pl", "--format", "json")
    assert json.loads(out)["bounded"] is True
    _, out, _ = run(capsys, "run", "--family", "perm", "--format", "json")
    assert json.loads(out)["bounded"] is False


def test_unknown_family(capsys):
    code, _, err = run(capsys, "run", "--family", "nope")
    assert code == cli.EXIT_UNKNOWN_FAMILY
    assert "unknown family" in err


def test_out_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run(capsys, "run", "--family", "perm", "--format", "json",
                       "--out", str(target))
    assert code == cli.EXIT_OK
    assert out == ""
    assert json.loads(target.read_text())["family"] == "perm"


def test_out_io_failure(capsys):
    code, _, err = run(capsys, "run", "--family", "perm", "--out",
                       "/nonexistent-dir/report.json")
    assert code == cli.EXIT_IO_FAILURE
    assert "cannot write" in err


def test_seed_env_var(capsys, monkeypatch):
    monkeypatch.setenv("CCCKIT_SEED", "42")
    _, out, _ = run(capsys, "run", "--family", "perm", "--format", "json")
    assert json.loads(out)["seed"] == 42
    # explicit flag wins
    _, out, _ = run(capsys, "run", "--family", "perm", "--format", "json", "--seed", "7")
    assert json.loads(out)["seed"] == 7


def test_determinism_same_seed(capsys):
    _, a, _ = run(capsys, "run", "--family", "wreath-tower", "--seed", "5",
                  "--format", "json")
    _, b, _ = run(capsys, "run", "--family", "wreath-tower", "--seed", "5",
                  "--format", "json")
    assert a == b


def test_every_family_runs_clean(capsys):
    """Every battery passes, and its JSON report is json.dumps's bytes."""
    for seed in (0, 1):
        for family in FAMILIES:
            code, out, err = run(capsys, "run", "--family", family, "--format", "json",
                                 "--seed", str(seed))
            assert code == cli.EXIT_OK, (family, err)
            assert out == json.dumps(run_family(family, seed=seed), sort_keys=True,
                                     indent=2) + "\n", (family, seed)


# Any str, lone surrogates included, with the characters json escapes drawn often.
TEXT = st.text(st.one_of(st.characters(exclude_categories=()),
                         st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7f\u2028\ud800\udfff'
                                         '\u00e9\U0001f600')))
CHECK = st.fixed_dictionaries({key: TEXT for key in ("name", "status", "lhs", "rhs", "detail")})
REPORT = st.fixed_dictionaries({
    "family": TEXT,
    "params": st.dictionaries(TEXT, st.one_of(st.integers(), st.lists(st.integers(), max_size=3))),
    "checks": st.lists(CHECK, max_size=4),
    "bounded": st.booleans(),
    "seed": st.integers(),
    "elapsed_ms": st.just(0),
})


@settings(max_examples=300, deadline=None)
@given(REPORT)
@example({"family": "closure", "params": {"moduli": [0, 5], "size": 2}, "checks": [],
          "bounded": False, "seed": 0, "elapsed_ms": 0})
@example({"family": "x", "params": {"checks": []},
          "checks": [dict.fromkeys(("name", "status", "lhs", "rhs", "detail"), '\n  "checks": []')],
          "bounded": True, "seed": -1, "elapsed_ms": 0})
def test_render_json_is_json_dumps(report):
    assert cli.render_json(report) == json.dumps(report, sort_keys=True, indent=2) + "\n"


def test_flags_do_not_leak_between_calls(capsys, monkeypatch):
    """Each main call sees only its own flags."""
    monkeypatch.delenv("CCCKIT_SEED", raising=False)
    _, out, _ = run(capsys, "run", "--family", "pl", "--bound", "16", "--seed", "5",
                    "--format", "json")
    first = json.loads(out)
    _, out, _ = run(capsys, "run", "--family", "pl", "--format", "json")
    second = json.loads(out)
    assert (first["params"]["bound"], first["seed"]) == (16, 5)
    assert (second["params"]["bound"], second["seed"]) == (8, 0)


# modules a cold CLI run must not load: fractions pulls in decimal and
# numbers, and argparse's help formatter and gettext pull in shutil, locale,
# bz2 and lzma
COLD_START_UNLOADED = ("fractions", "decimal", "numbers", "argparse", "shutil", "locale",
                       "bz2", "lzma")

# every battery at its defaults, plus the larger pl and wreath-tower runs
BATTERY_PROBE = """
import os, sys
sys.path.insert(0, sys.argv[1])
from ccckit import cli, iet, plhomeo, rational
from ccckit.suites import FAMILIES
exec(sys.argv[2])
runs = [["--family", f] for f in FAMILIES]
runs += [["--family", "pl", "--bound", "16"], ["--family", "wreath-tower", "--samples", "200"]]
codes = {cli.main(["run", *argv, "--out", os.devnull]) for argv in runs}
print(*codes, *(m for m in sys.argv[3:] if m in sys.modules))
"""


def _probe(prelude: str) -> list[str]:
    """The exit codes and the loaded COLD_START_UNLOADED modules of a fresh
    -I -S process that imports ccckit.cli, runs prelude and then every
    battery through cli.main."""
    return subprocess.run([sys.executable, "-I", "-S", "-c", BATTERY_PROBE, SRC, prelude,
                           *COLD_START_UNLOADED],
                          capture_output=True, text=True, check=True).stdout.split()


def test_cli_runs_every_battery_without_fractions_argparse_shutil_or_locale():
    """Neither the import of ccckit.cli nor a run of any battery loads
    fractions (the batteries build their maps from int numerators) or
    argparse and the modules its help formatter pulls in.  The benchmark
    cannot see a battery that loads fractions: its pass imports it for its
    reference timing right after the timed import."""
    assert _probe("") == ["0"]


@pytest.mark.parametrize("prelude", [
    "rational.exact('1/3')",
    "iet.rotation(1, '1/3')",                       # a str argument
    "plhomeo.apply(plhomeo.IDENTITY, 0)",           # a Fraction result
    "iet.block_exchange(1).bound",
])
def test_the_public_boundary_loads_fractions_on_first_use(prelude):
    """The negative control of the probe above: a str argument or a
    Fraction return value loads fractions, and the probe sees it."""
    assert _probe(prelude) == ["0", "fractions", "decimal", "numbers"]


@pytest.mark.parametrize("argv", [
    ("run",),                                      # --family is required
    ("run", "--family", "perm", "--size", "x"),
    ("run", "--family", "perm", "--seed", "1.5"),
    ("run", "--family", "perm", "--nope", "1"),
    ("run", "--family", "perm", "--s", "3"),       # --size, --samples or --seed
    ("run", "--family", "perm", "--format", "xml"),
    ("run", "--family"),                           # no value
    ("run", "--family", "perm", "--out", "--seed"),  # a flag for a value
    ("run", "--family", "perm", "--out", "-h"),
    ("run", "--family", "--out", "x"),
    ("run", "--family", "perm", "extra"),
    ("run", "--family", "perm", "--help=x"),
    (),                                            # no command
    ("bogus",),
    ("--family", "perm"),
    ("list", "extra"),
    ("list", "--size", "3"),
])
def test_malformed_command_line_returns_2_with_usage(capsys, argv):
    """Returned, not raised as SystemExit: the exit-code contract holds for
    callers of main as well as for the console script."""
    code, out, err = run(capsys, *argv)
    assert code == cli.EXIT_UNKNOWN_FAMILY
    assert out == ""
    lines = err.splitlines()
    assert err.startswith(cli.USAGE)
    assert lines[-1].startswith("ccckit: error: ")
    assert sum("error" in line for line in lines) == 1


@pytest.mark.parametrize("argv, expected", [
    (("--fam", "perm"), {"family": "perm"}),
    (("--family", "perm", "--size=3"), {"family": "perm", "size": 3}),
    (("--family=perm", "--size", "3", "--size", "4"), {"family": "perm", "size": 4}),
    (("--family", "perm", "--seed", "-3"), {"family": "perm", "seed": -3}),
    (("--family", "perm", "--se", "2", "--seed=5"), {"family": "perm", "seed": 5}),
    (("--family", "pl", "--b", "16", "--form", "text"), {"family": "pl", "bound": 16}),
])
def test_run_flags_take_prefixes_equals_and_the_last_value(capsys, monkeypatch, argv, expected):
    monkeypatch.delenv("CCCKIT_SEED", raising=False)
    code, out, err = run(capsys, "run", *argv, "--format", "json")
    assert (code, err) == (cli.EXIT_OK, "")
    assert json.loads(out) == run_family(**expected)


@pytest.mark.parametrize("argv", [("-h",), ("--help",), ("--he",), ("run", "-h"),
                                  ("run", "--family", "perm", "--help"), ("list", "--help")])
def test_help_prints_usage_and_returns_0(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, err) == (cli.EXIT_OK, "")
    assert out == cli.HELP
    for flag in ("--family", *cli.PARAMETERS, "--seed", "--format", "--out"):
        assert flag in out


def test_braid_past_the_old_letter_cap_runs_clean(capsys):
    code, out, err = run(capsys, "run", "--family", "braid", "--size", "4", "--format", "json")
    assert code == cli.EXIT_OK, err
    assert json.loads(out)["params"] == {"size": 4}


@pytest.mark.parametrize("argv", [
    ("--family", "pl", "--bound", "0"),     # WitnessModeError
    ("--family", "iet", "--size", "-1"),    # InvalidIetError
    ("--family", "iet", "--size", "0"),     # below the declared domain
    ("--family", "sl", "--size", "1"),      # H would be empty
    ("--family", "e", "--size", "1"),
    ("--family", "pl", "--size", "0"),
    ("--family", "perm", "--size", "1"),
    ("--family", "closure", "--size", "7"),  # one shipped configuration
    ("--family", "wreath-tower", "--size", "9"),  # a flag the family does not take
    ("--family", "wreath-tower", "--depth", "3"),
    ("--family", "iet", "--bound", "3"),
])
def test_invalid_parameters_exit_2_without_report(capsys, argv):
    code, out, err = run(capsys, "run", *argv, "--format", "json")
    assert code == cli.EXIT_UNKNOWN_FAMILY
    assert out == ""
    assert err.startswith("cannot run family ")
    assert len(err.splitlines()) == 1


def test_invalid_seed_env_var_exit_2_without_report(capsys, monkeypatch):
    monkeypatch.setenv("CCCKIT_SEED", "abc")
    code, out, err = run(capsys, "run", "--family", "perm", "--format", "json")
    assert code == cli.EXIT_UNKNOWN_FAMILY
    assert out == ""
    assert err.startswith("cannot run family ") and "CCCKIT_SEED" in err
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("argv", [
    ("--family", "wreath-tower", "--samples", "0"),  # 0/0 checks
    ("--family", "braid", "--size", "1"),            # H has no generators
    ("--family", "pl", "--size", "4"),               # only three pl instances
])
def test_vacuous_runs_rejected_without_report(capsys, argv):
    code, out, err = run(capsys, "run", *argv, "--format", "json")
    assert code == cli.EXIT_UNKNOWN_FAMILY
    assert out == ""
    assert err.startswith("cannot run family ")
    assert len(err.splitlines()) == 1
