from hypothesis import settings

# CI runs with --hypothesis-profile=ci: the same examples on every run, and no
# per-example deadline on a shared runner.
settings.register_profile("ci", derandomize=True, deadline=None)
