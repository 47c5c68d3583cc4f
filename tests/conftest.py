"""Test-suite setup.

Tier-1 runs under `-W error`.  When a hypothesis test fails, hypothesis'
pytest plugin imports `hypothesis.extra._patching` to write the falsifying
example as a patch, and that import warns (`mypy_extensions.TypedDict` is
deprecated).  Under `-W error` the warning would replace the failure report
with an INTERNALERROR traceback, and an ini `filterwarnings` entry does not
reach the plugin's hook.  So the module is imported here, once, with that
one warning category ignored for this import only.
"""

import warnings

with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    import hypothesis.extra._patching  # noqa: F401
