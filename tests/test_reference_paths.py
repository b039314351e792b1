"""Every fast path writes the bytes of its general form: each ``CORPUS``
report keeps its bytes with each ``FAST_PATHS`` entry off alone and with
all of them off at once.  A pass writes "e" however it was decided, so the
corpus also holds failing runs, which show a path that certifies a false
pass.  ``python tests/test_reference_paths.py PATH...`` prints the corpus
digests and probes with the named paths off; modes with ``trusted`` off run
so, in a fresh process, since builders keep values built at import."""

import functools
import hashlib
import importlib
import json
import os
import pkgutil
import subprocess
import sys

import pytest

import ccckit
from ccckit import cli, core, matrixring, suites, wreath
from ccckit.core import Finite, GeneratorSet, Witness, verify_ccc

from util import CLOSURE_LABELS, closure_engine_inputs, image_by_definition, oracle_sample


def _family_classes(cls=core.GroupFamily):
    return [cls] + [c for sub in cls.__subclasses__() for c in _family_classes(sub)]


def _trusted_bindings():
    modules = [importlib.import_module(f"ccckit.{m.name}")
               for m in pkgutil.iter_modules(ccckit.__path__)]
    return [m for m in modules if getattr(m, "trusted", None) is core.trusted]


def _checked(cls, *values, trusted=core.trusted):  # the unpatched trusted
    obj = trusted(cls, *values)
    obj.__post_init__()
    return obj


FAST_PATHS = {
    # no support is known, so every pass is decided as ab = ba
    "supports": lambda: [(cls, "support", lambda self, a: None) for cls in _family_classes()],
    # a conjugate's records use its own support, never its claim's (Stable.shift)
    "shift": lambda: [(core, "_conjugate_support", lambda fam, conj, *claim: fam.support(conj))],
    # det and mat_inv eliminate on monomial matrices too
    "monomial": lambda: [(matrixring, "_monomial", lambda a: None)],
    # the p < 0 sweep is built and decided, never copied from its mirrors
    "mirrors": lambda: [(core, "_mirrors", lambda report: False)],
    # every text is rendered where it is asked for
    "render-memos": lambda: [(cls, "text", lambda self, family, value: family.render(value))
                             for cls in (core.VerificationReport, wreath.TowerSamples)],
    # each tower image comes from the definition, with no memo
    "tower-memos": lambda: [(wreath.TowerHom, "_image", lambda self, u, level:
                             image_by_definition(self.chain, self.tower, u, level))],
    # the tower draw takes rng.randint and rng.choice themselves
    "draws": lambda: [(wreath, "_randint", lambda rng, a, b: rng.randint(a, b)),
                      (wreath.Tower, "sample", oracle_sample)],
    # every construction through a module's trusted validates
    "trusted": lambda: [(module, "trusted", _checked) for module in _trusted_bindings()],
}
FRESH = {"trusted"}  # off before any builder runs, so in a fresh process


def turn_off(paths, setattr) -> dict:
    """Set the named paths' general forms through setattr, the builtin or
    a monkeypatch's; return path -> calls of its general form, as they go."""
    probes = dict.fromkeys(paths, 0)

    def counted(name, general):
        def call(*args):
            probes[name] += 1
            return general(*args)
        return call
    for name in paths:
        for obj, attr, general in FAST_PATHS[name]():
            setattr(obj, attr, counted(name, general))
    return probes


def _sized(families, sizes, **params):
    return [(f, {"size": s, **params}, 0) for f in families.split() for s in sizes]


LOW = {f: b.params["size"][1] for f, b in suites.FAMILIES.items() if "size" in b.params}
MATRIX, BRAIDS = "gl sl e sp onn", _sized("braid", (4, 8, 12, 16))
PL = {b: _sized("pl", [3], bound=b) for b in (8, 16, 32, 64, 128)}
# (family, params, seed) of each run_family call, by the grid it came from;
# every run passes.  The certificate and matrix-size grids are in "monomial"
GRIDS = {
    "passing records write e": BRAIDS + _sized("sl", [24]) + _sized("sp gl", [12])
    + _sized("aut-free", [64]) + _sized("perm", [256]) + _sized("iet", [8]),
    "stable, lowest size to 9": [r for f in suites.STABLE for r in _sized(f, range(LOW[f], 10))],
    "monomial": _sized(MATRIX, range(2, 13)) + _sized("aut-free", [64])
    + _sized("perm", [256]) + _sized("iet", [4]) + [("wreath-tower", {"samples": 200}, 0)]
    + BRAIDS + PL[8] + PL[16] + PL[64],
    "trusted": [(f, {}, 0) for f in suites.FAMILIES] + _sized("aut-free", [32])
    + _sized("perm", [256]) + _sized("sl braid", [8]) + PL[16]
    + [("wreath-tower", {"samples": 200}, 0)],
    "aut-free ranks 128 and 256": _sized("aut-free", (64, 128)),
    "pl bounds 32, 64 and 128": PL[32] + PL[64] + PL[128],
    "supports": [r for f in suites.FAMILIES if f not in ("wreath-tower", "closure")
                 for r in _sized(f, range(LOW[f], 4 if f == "pl" else 7))]
    + [(f, {}, seed) for f in ("wreath-tower", "closure") for seed in (0, 1, 7)],
}
# seed None: an engine input at Finite(3), where [h, t^3] = [h, t] fails: the
# stable record's H at that size and ring against its shipped t, of order 2,
# or closure's embedded H against the top shift x of the index-2 wreath
FAILING = [(f, (("size", s), ("ring", ring)), None)
           for f, stable in suites.STABLE.items() for s in (3, 6) for ring in stable.rings]
FAILING += [("closure", (("H", label),), None) for label in CLOSURE_LABELS]
CORPUS = list(dict.fromkeys((f, tuple(params.items()), seed)
                            for grid in GRIDS.values() for f, params, seed in grid)) + FAILING


def report(run) -> str:
    family, params, seed = run
    if seed is not None:
        return cli.render_json(suites.run_family(family, seed=seed, **dict(params)))
    if family == "closure":
        H, x = closure_engine_inputs()[dict(params)["H"]]
        t, suite, shift = x.t, family, None
    else:
        stable, (size, ring) = suites.STABLE[family], dict(params).values()
        ambient, t = stable.level(size, ring)
        H = GeneratorSet(ambient, tuple(stable.embed(g, ambient)
                                        for g in stable.generators(size, ring)))
        suite, shift = stable.name, stable.shift
    checked = verify_ccc(H, Witness(t, Finite(3)), suite=suite, shift=shift)
    return json.dumps(checked.to_dict(), sort_keys=True, indent=2)


def digests() -> list[str]:
    return [hashlib.sha256(report(run).encode()).hexdigest() for run in CORPUS]


@functools.cache
def _fast() -> dict:  # run -> report, every fast path on
    return {run: report(run) for run in CORPUS}


MODES = [(name,) for name in FAST_PATHS] + [tuple(FAST_PATHS)]


@pytest.fixture(scope="module")
def fresh():
    """paths -> the process running each mode that turns a FRESH path off,
    all started at once to run beside the in-process modes."""
    path = [os.path.dirname(ccckit.__path__[0]), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    procs = {paths: subprocess.Popen([sys.executable, __file__, *paths], env=env, text=True,
                                     stdout=subprocess.PIPE, stderr=subprocess.PIPE)
             for paths in MODES if FRESH & set(paths)}
    yield procs
    for proc in procs.values():
        proc.kill()
        proc.wait()


@pytest.mark.parametrize("paths", MODES, ids=[*FAST_PATHS, "all"])
def test_reports_keep_their_bytes_with_fast_paths_off(paths, fresh, monkeypatch):
    fast = [hashlib.sha256(text.encode()).hexdigest() for text in _fast().values()]
    if paths in fresh:
        out, err = fresh[paths].communicate()
        assert fresh[paths].returncode == 0, err
        off, probes = (json.loads(out)[key] for key in ("digests", "probes"))
    else:
        probes = turn_off(paths, monkeypatch.setattr)
        off = digests()
    assert [run for run, a, b in zip(CORPUS, fast, off) if a != b] == []
    assert all(probes.values()), probes


def test_an_unsound_support_fails_the_switchboard(monkeypatch):
    """A support (1, ()) for every element certifies every pair: as the fast
    path it keeps each passing run's bytes, and only the failing runs show it."""
    for cls in _family_classes():
        monkeypatch.setattr(cls, "support", lambda self, a: (1, ()))
    unsound = digests()
    turn_off(["supports"], monkeypatch.setattr)
    assert [run for run, a, b in zip(CORPUS, unsound, digests()) if a != b] == FAILING


def test_what_the_corpus_reports_say():
    # pl's "[a,b]: displacement escalation" records start with "[" too; at
    # bound B, pl's 3 instances write 2B algebraic, B geometric, 2 summaries
    checks = {run: json.loads(text)["checks"] for run, text in _fast().items()}
    assert [all(c["status"] == "pass" for c in cs) for cs in checks.values()] == [
        seed is not None for _, _, seed in CORPUS]
    assert {c["lhs"] for cs in checks.values() for c in cs
            if c["name"].startswith("[h") and c["status"] == "pass"} == {"e"}
    assert len(_fast()[("sl", (("size", 24),), 0)]) < 2_000_000
    assert len(checks[("pl", (("size", 3), ("bound", 128)), 0)]) == 9 * 128 + 6


if __name__ == "__main__":
    probes = turn_off(sys.argv[1:], setattr)
    json.dump({"digests": digests(), "probes": probes}, sys.stdout)
