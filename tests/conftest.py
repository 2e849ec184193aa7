"""Shared test configuration.

Property tests run under one deterministic `hypothesis` profile: examples
are derived from each test's source rather than a random seed, no example
database is kept, and there is no per-example deadline.  Hypothesis also
mixes numeric constants of the loaded non-test modules into its draws, so
the examples depend on which modules are imported.  Every `thermoshield`
module is therefore imported here, also those that `import thermoshield`
leaves out (`cli`): a test then draws the same examples whether it runs
alone or in the full suite, on every run and on a loaded machine.
"""

import importlib
import pkgutil

from hypothesis import settings

import thermoshield

for _module in pkgutil.iter_modules(thermoshield.__path__):
    importlib.import_module(f"thermoshield.{_module.name}")

settings.register_profile(
    "deterministic", derandomize=True, database=None, deadline=None, max_examples=100
)
settings.load_profile("deterministic")
