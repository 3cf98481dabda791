"""Suite-wide settings: every hypothesis test draws the same examples on
every run (no example database, no deadline), so Tier-1 is deterministic;
and the `pytester` fixture, which runs pytest on a test file of its own."""

from hypothesis import settings

pytest_plugins = ["pytester"]

settings.register_profile("wqometer", derandomize=True, deadline=None, max_examples=100)
settings.load_profile("wqometer")
