"""Suite-wide settings: every hypothesis test draws the same examples on
every run (no example database, no deadline), so Tier-1 is deterministic."""

from hypothesis import settings

settings.register_profile("wqometer", derandomize=True, deadline=None, max_examples=100)
settings.load_profile("wqometer")
