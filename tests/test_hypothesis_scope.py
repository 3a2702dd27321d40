"""The fuzz suites' hypothesis profiles stay on their own properties.

Collected together with ``tests/sat`` or ``tests/sta``, every other
property must still run under hypothesis' own defaults: a profile
loaded for the whole process would silently change how many examples
``tests/sim`` and ``tests/core`` draw.
"""

from hypothesis import settings


def test_no_profile_loaded_for_the_process():
    default = settings.get_profile("default")
    assert settings.default.max_examples == default.max_examples
    assert settings.default.derandomize == default.derandomize
