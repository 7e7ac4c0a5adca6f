"""Shared test settings: property tests run the same examples on every run."""

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, deadline=None, database=None)
settings.load_profile("deterministic")
