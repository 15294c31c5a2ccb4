import numpy as np
import pytest

from pswa.numerics import debug_checks_enabled, set_debug_checks, set_default_dtype

_PACKAGE_DEBUG_CHECKS = debug_checks_enabled()  # read at import, before any test sets it


@pytest.fixture(autouse=True)
def _reset_numerics_state():
    set_default_dtype("f64")
    set_debug_checks(_PACKAGE_DEBUG_CHECKS)
    yield
    set_default_dtype("f64")
    set_debug_checks(_PACKAGE_DEBUG_CHECKS)


@pytest.fixture
def np_rng():
    return np.random.default_rng(1234)


def pytest_runtest_logreport(report):
    # One explicit verdict line per acceptance criterion.
    if report.when == "call" and "test_acceptance" in report.nodeid:
        name = report.nodeid.split("::")[-1]
        print(f"\n[{name}] {'PASS' if report.passed else 'FAIL'}")
