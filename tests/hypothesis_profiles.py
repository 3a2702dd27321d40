"""Hypothesis profiles for the fuzzing suites (``tests/sat``, ``tests/sta``).

CI runs the fuzz suites under ``HYPOTHESIS_PROFILE=ci``: at least 200
examples per property, derandomized so a red run reproduces from the
log alone, and no per-example deadline (a CDCL restart storm on a
pathological draw is slow but not wrong — the step-level timeout in
the workflow is the watchdog).  The default ``dev`` profile keeps
local iteration snappy; properties in these packages rely on the
profile instead of per-test ``max_examples`` overrides so one knob
scales the whole layer.

``tests/sat/conftest.py`` loads the profile for the whole process with
:func:`load_profile`.  Other suites apply it to their own properties
only (``@active_profile()``), so collecting them changes no other
suite's defaults.  The module is importable as ``hypothesis_profiles``
because pytest's default import mode puts the root conftest's
directory, ``tests/``, on the path.
"""

import os

from hypothesis import HealthCheck, settings

settings.register_profile(
    "ci",
    max_examples=200,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
settings.register_profile(
    "dev",
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _profile_name() -> str:
    return os.environ.get("HYPOTHESIS_PROFILE", "dev")


def load_profile() -> None:
    """Load the profile ``HYPOTHESIS_PROFILE`` names (default ``dev``)."""
    settings.load_profile(_profile_name())


def active_profile() -> settings:
    """That profile as a decorator for one property."""
    return settings.get_profile(_profile_name())
