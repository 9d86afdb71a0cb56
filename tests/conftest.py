"""One Hypothesis profile for every property test: reproducible runs with
no example database and no per-example deadline (the ladders and the CLI
runs are slow on a loaded machine)."""

from hypothesis import settings

settings.register_profile("gausspseudo", deadline=None, derandomize=True, database=None)
settings.load_profile("gausspseudo")
