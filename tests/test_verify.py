"""The self-check suites must pass wholesale and stay addressable by name."""

import pytest

from rhiconst.verify import SUITE_NAMES, CheckResult, run_suite


@pytest.fixture(scope="module")
def results():
    return run_suite("all", seed=0)


def test_all_suites_pass(results):
    failed = [r for r in results if not r.passed]
    assert not failed, [f"{r.name}: {r.detail}" for r in failed]
    assert len(results) >= 30


def test_check_names_carry_suite_prefix(results):
    prefixes = {r.name.split(".")[0] for r in results}
    assert prefixes == set(SUITE_NAMES)


@pytest.mark.parametrize("seed", [1, 7])
def test_power_suite_seed_independent(seed):
    results = run_suite("power", seed=seed)
    assert results and all(isinstance(r, CheckResult) for r in results)
    assert all(r.passed for r in results), [r.name for r in results if not r.passed]


def test_unknown_suite_rejected():
    with pytest.raises(KeyError):
        run_suite("spectral")
