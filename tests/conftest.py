from hypothesis import settings

# Property tests draw the same examples on every run and keep no example
# database, and slow reference quadratures never count as failures, so
# tier-1 stays deterministic.
settings.register_profile("intop", derandomize=True, deadline=None, database=None)
settings.load_profile("intop")
