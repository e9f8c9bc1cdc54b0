"""Shared test set-up.

Property tests run under one ``hypothesis`` profile: examples are derived
from each test's name instead of a random seed, so every run draws the same
inputs, and no per-example deadline applies, since timings swing on a loaded
machine.

The sweep pool of ``tma.cli`` lives for the process: forked workers on
direct pipes, which keep the module state they were forked with.  Each block
goes out with its function by reference, so a patched ``_sweep_block_rows``
reaches any worker, but other patched state reaches only workers forked under
the patch.  A test that patches ``cli`` and starts a pool asks for
``fresh_sweep_pool``, so that it gets workers forked under its patch, and its
workers are stopped and joined before the next test.

``pyproject.toml`` turns every ``DeprecationWarning`` into an error.  While a
report is made, though, they are ignored: when a property test fails,
hypothesis's report hook imports ``libcst`` to suggest a patch, and that
import warns.  As an error, the warning would stop the whole session with an
``INTERNALERROR``, so the failure would go unreported and later tests unrun.
A ``DeprecationWarning`` inside a test still fails it.
"""

import warnings

import pytest

try:
    from hypothesis import settings
except ImportError:  # the property tests skip themselves without hypothesis
    pass
else:
    settings.register_profile("tma", derandomize=True, deadline=None)
    settings.load_profile("tma")


@pytest.hookimpl(hookwrapper=True, tryfirst=True)
def pytest_runtest_makereport():
    """Make the report of each test phase with ``DeprecationWarning`` ignored."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DeprecationWarning)
        yield


@pytest.fixture
def fresh_sweep_pool():
    """Stop and join the process's sweep pool before and after the test."""
    from tma import cli

    cli._shutdown_pool()
    yield
    cli._shutdown_pool()
