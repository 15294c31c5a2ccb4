import numpy as np
import pytest

from pswa.numerics import debug_checks_enabled, no_grad, ops, set_debug_checks, set_default_dtype

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


class _NoDraws:
    """An Rng stand-in that fails the test on the first stream it is asked for."""

    def split(self, tag):
        raise AssertionError(f"drew from stream {tag!r} before refusing the sizes")


@pytest.fixture
def no_draws():
    return _NoDraws()


@pytest.fixture
def bridge_correlation():
    """[H, W, C] features correlated as the bridge does, with a shared
    [k, k] or per-channel [C, k, k] stencil; off-grid taps are zero.
    Read at a position, this is the alpha-weighted order-K aggregation."""
    def correlate(feats, alpha):
        stencil = np.broadcast_to(alpha, (feats.shape[-1], *alpha.shape[-2:]))
        with no_grad():
            return ops.depthwise_conv2d(feats[None], stencil).data[0]
    return correlate


def pytest_runtest_logreport(report):
    # One explicit verdict line per acceptance criterion.
    if report.when == "call" and "test_acceptance" in report.nodeid:
        name = report.nodeid.split("::")[-1]
        print(f"\n[{name}] {'PASS' if report.passed else 'FAIL'}")
