"""Shared test configuration.

Property tests run under one deterministic `hypothesis` profile: examples
are derived from each test's source rather than a random seed, no example
database is kept, and there is no per-example deadline, so the suite gives
the same result on every run and on a loaded machine.
"""

from hypothesis import settings

settings.register_profile(
    "deterministic", derandomize=True, database=None, deadline=None, max_examples=100
)
settings.load_profile("deterministic")
