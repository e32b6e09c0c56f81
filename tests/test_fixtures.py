"""The fixture checks: each expected value of each worked fixture passes as
given and fails once perturbed, so no check can pass whatever it is given; a
key with no check is a failed check with detail, and the section series and
its singularity analysis are each computed at most once per fixture."""

from fractions import Fraction

import pytest

from wgk import fixtures, sections
from wgk.fixtures import CHECKS, FIXTURES, FixtureRecord, run_all, run_fixture


def perturbed(key, value):
    """``value`` changed so that its check must fail."""
    if key == "rr_kind":
        return {"cy3": "canonical3", "canonical3": "cy3"}[value]
    if key == "reject_sing":
        return [1, value[1]]            # every weight is divisible by 1: the filter accepts
    if key == "series_prefix":          # a shorter prefix is still a prefix: change the last term
        return value[:-1] + [str(int(value[-1]) + 1)]
    if key == "a_top":
        return (str(Fraction(value[0]) + 1), value[1])
    if isinstance(value, dict):         # a numerator: one more at t^0
        return {**value, 0: value.get(0, 0) + 1}
    if isinstance(value, str):          # a degree as a fraction string
        return str(Fraction(value) + 1)
    if isinstance(value, int):
        return value + 1
    return value[:-1]                   # a weight list or a basket, shortened


CASES = [(fix, key) for fix in FIXTURES for key in sorted(fix.expected)]


def one_check(fix, key, value):
    """``fix`` with only the expected value ``key``, set to ``value``."""
    expected = {key: {"value": value, "provenance": fix.expected[key]["provenance"]}}
    return FixtureRecord(fix.name, fix.model, fix.cut, fix.label, expected)


def test_every_fixture_check_passes():
    results = run_all()
    assert len(results) == len(CASES) == 47
    assert all(ok and detail is None for _, ok, detail in results)
    assert {key for _, key in CASES} == set(CHECKS)


@pytest.mark.parametrize("fix, key", [pytest.param(fix, key, id=f"{fix.name}:{key}")
                                      for fix, key in CASES])
def test_a_perturbed_expected_value_fails_its_check(fix, key):
    value = fix.expected[key]["value"]
    assert perturbed(key, value) != value
    assert run_fixture(one_check(fix, key, value)) == [(f"{fix.name}:{key}", True, None)]
    [(name, ok, detail)] = run_fixture(one_check(fix, key, perturbed(key, value)))
    assert name == f"{fix.name}:{key}" and not ok


def test_a_key_with_no_check_is_a_failed_check_with_detail():
    fix = FixtureRecord("straight-plucker", FIXTURES[0].model,
                        expected={"ambient_canonical": fixtures.V(-5, "derived"),
                                  "no_such_check": fixtures.V(1, "derived")})
    assert run_fixture(fix) == [
        ("straight-plucker:ambient_canonical", True, None),
        ("straight-plucker:no_such_check", False,
         "error: unknown fixture check 'no_such_check'")]


def test_the_section_series_is_computed_at_most_once(monkeypatch):
    calls = []
    original = fixtures.section_series

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(fixtures, "section_series", counted)
    cy3 = next(fix for fix in FIXTURES if fix.name == "cy3-spinor")
    assert all(ok for _, ok, _ in run_fixture(cy3))
    assert len(calls) == 1      # a_top and series_prefix share it


def test_run_all_runs_one_singularity_analysis_per_basket_fixture(monkeypatch):
    """Five fixtures check a basket; the two that also round-trip read the same
    analysis, looked up in ``fixtures`` (``sections`` is patched too, where a
    round trip that ran its own analysis would find it)."""
    calls = []
    original = sections.singularity_analysis

    def counted(model, cut):
        calls.append(cut)
        return original(model, cut)

    for module in (fixtures, sections):
        monkeypatch.setattr(module, "singularity_analysis", counted)
    assert all(ok for _, ok, _ in run_all())
    assert len(calls) == 5
