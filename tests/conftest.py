"""Hypothesis settings for the test suite.

The default profile makes every ``@given`` test a pure function of the
checkout: examples come from a seed derived from the test itself
(``derandomize``), and no example database is read or written, so a
failure found once is not replayed from ``.hypothesis/`` on later runs.
Random exploration is the ``explore`` profile, for a separate run that
prints its seed::

    python -m pytest tests --hypothesis-profile=explore --hypothesis-seed=N
"""

from hypothesis import settings

settings.register_profile("tier1", derandomize=True, database=None)
settings.register_profile("explore", derandomize=False, database=None)
settings.load_profile("tier1")
