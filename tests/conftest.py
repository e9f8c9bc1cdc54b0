"""Shared test set-up.

Property tests run under one ``hypothesis`` profile: examples are derived
from each test's name instead of a random seed, so every run draws the same
inputs, and no per-example deadline applies, since timings swing on a loaded
machine.

The sweep pool of ``tma.cli`` lives for the process, and its workers keep the
module state they were forked with.  A test that patches ``cli`` and starts a
pool asks for ``fresh_sweep_pool``, so that it gets workers forked under its
patch and leaves none of them to later tests.
"""

import pytest

try:
    from hypothesis import settings
except ImportError:  # the property tests skip themselves without hypothesis
    pass
else:
    settings.register_profile("tma", derandomize=True, deadline=None)
    settings.load_profile("tma")


@pytest.fixture
def fresh_sweep_pool():
    """Shut the process's sweep pool down before and after the test."""
    from tma import cli

    cli._shutdown_pool()
    yield
    cli._shutdown_pool()
