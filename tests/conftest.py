from hypothesis import settings

# Derandomized: every run draws the same examples, so the suite stays deterministic.
settings.register_profile("finslerkit", derandomize=True, deadline=None, database=None, max_examples=40)
settings.load_profile("finslerkit")
