"""Test-wide settings: every Hypothesis test draws the same examples on
every run, as the rest of the suite is seeded. A test's own ``@settings``
keep their ``max_examples`` and ``deadline`` and inherit this profile."""

from hypothesis import settings

settings.register_profile("seeded", derandomize=True)
settings.load_profile("seeded")
