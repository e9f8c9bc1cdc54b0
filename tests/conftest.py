"""Shared test set-up.

Property tests run under one ``hypothesis`` profile: examples are derived
from each test's name instead of a random seed, so every run draws the same
inputs, and no per-example deadline applies, since timings swing on a loaded
machine.
"""

try:
    from hypothesis import settings
except ImportError:  # the property tests skip themselves without hypothesis
    pass
else:
    settings.register_profile("tma", derandomize=True, deadline=None)
    settings.load_profile("tma")
