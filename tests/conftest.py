"""Shared test settings.

Property tests run under one deterministic hypothesis profile: examples
come from a fixed seed and nothing is read from or written to an example
database, so tier-1 gives the same verdict on every run and stays within
its time budget.
"""

from datetime import timedelta

from hypothesis import settings

settings.register_profile(
    "dqdsim", derandomize=True, database=None, max_examples=60, deadline=timedelta(seconds=2)
)
settings.load_profile("dqdsim")
