from hypothesis import settings

# Property tests draw the same examples on every run, so a tier-1 result
# does not depend on the run; no example database is written.
settings.register_profile(
    "repo", max_examples=50, derandomize=True, database=None, deadline=None
)
settings.load_profile("repo")
