"""One Hypothesis profile for every property test: derandomized, with no
deadline and no example database, so each run draws the same examples and
a property test sets only its max_examples."""

from hypothesis import settings

settings.register_profile("navol", derandomize=True, deadline=None, database=None)
settings.load_profile("navol")
