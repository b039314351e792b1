"""The battery registry: each family's parameters, defaults and domains are
declared once, in ``suites.FAMILIES``, and ``run_family`` enforces them."""

import inspect
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from ccckit import cli
from ccckit.suites import FAMILIES, run_family

from util import replace

# The domains, written out apart from the registry: family -> parameter ->
# (low, high), high None for no upper limit.  H is empty below size 2 for
# perm, sl, e and braid; closure and wreath-tower ship one configuration.
DOMAINS = {
    **{f: {"size": (1, None)} for f in ("gl", "sp", "onn", "aut-free", "iet")},
    **{f: {"size": (2, None)} for f in ("perm", "sl", "e", "braid")},
    "pl": {"size": (1, 3), "bound": (1, None)},
    "wreath-tower": {"depth": (2, 2), "samples": (1, None)},
    "closure": {"size": (2, 2)},
}


def _in_domain(family: str, name: str, value: int) -> bool:
    if name not in DOMAINS[family]:
        return False
    low, high = DOMAINS[family][name]
    return low <= value and (high is None or value <= high)


def test_registry_declares_the_domains():
    declared = {family: {name: (low, high) for name, (_, low, high) in b.params.items()}
                for family, b in FAMILIES.items()}
    assert declared == DOMAINS


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_run_signature_is_declared_parameters_plus_seed(family):
    battery = FAMILIES[family]
    params = inspect.signature(battery.run).parameters
    assert list(params) == [*battery.params, "seed"]
    # defaults live in the record, not in the function
    assert all(p.default is inspect.Parameter.empty for p in params.values())


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_run_family_rejects_exactly_invalid_parameters(data):
    family = data.draw(st.sampled_from(sorted(FAMILIES)))
    battery = FAMILIES[family]
    # mostly the family's own names, sometimes any flag's; values stop at 4
    # so that each run stays a few milliseconds
    own = st.sampled_from(list(battery.params))
    names = st.one_of(own, own, st.sampled_from(list(cli.PARAMETERS)))
    given_params = data.draw(st.dictionaries(names, st.integers(-1, 4), max_size=2))
    calls = []

    def spy(**kwargs):
        calls.append(kwargs)
        return battery.run(**kwargs)

    with mock.patch.dict(FAMILIES, {family: replace(battery, run=spy)}):
        if all(_in_domain(family, name, value) for name, value in given_params.items()):
            report = run_family(family, seed=0, **given_params)
            assert any("[" in c["name"] for c in report["checks"])  # a commutator was checked
            defaults = {name: default for name, (default, _, _) in battery.params.items()}
            assert report["params"] == {**defaults, **given_params, **battery.fixed}
        else:
            with pytest.raises(ValueError):
                run_family(family, seed=0, **given_params)
            assert calls == []  # rejected before the battery ran


@pytest.mark.parametrize("size", [3, 5])
def test_perm_odd_sizes_pass_with_stabilized_witness(size):
    report = run_family("perm", size=size)
    assert report["params"] == {"size": size}
    assert [c["name"] for c in report["checks"] if c["status"] == "fail"] == []
    assert any(c["name"] == "witness parity even" for c in report["checks"])


@pytest.mark.parametrize("family, name", [("gl", "size"), ("pl", "bound"),
                                          ("wreath-tower", "samples")])
def test_run_family_rejects_bool_values(family, name):
    with pytest.raises(ValueError):
        run_family(family, **{name: True})


@pytest.mark.parametrize("family", ["perm", "wreath-tower"])
@pytest.mark.parametrize("seed", [None, 1.5, True, "7"])
def test_run_family_rejects_a_seed_that_is_not_an_int(family, seed):
    """None would seed wreath-tower's draw from the OS, and the report would
    still say "seed": null; the other values would be copied into it."""
    battery = FAMILIES[family]
    with mock.patch.dict(FAMILIES, {family: replace(battery, run=mock.Mock())}):
        with pytest.raises(ValueError, match="seed"):
            run_family(family, seed=seed)
        FAMILIES[family].run.assert_not_called()


def test_run_family_unknown_family_is_key_error():
    with pytest.raises(KeyError):
        run_family("nope")
