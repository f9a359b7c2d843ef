"""Test-suite settings.

The property tests draw their examples from a seed derived from each test
function, so every run checks the same examples and a failure reproduces.
Each test keeps its own ``max_examples``.
"""

from hypothesis import settings

settings.register_profile("reproducible", derandomize=True, database=None)
settings.load_profile("reproducible")
