"""Hypothesis profiles for the fuzzing suites (``tests/sat``, ``tests/sta``).

CI runs the fuzz suites under ``HYPOTHESIS_PROFILE=ci``: at least 200
examples per property, derandomized so a red run reproduces from the
log alone, and no per-example deadline (a CDCL restart storm on a
pathological draw is slow but not wrong — the step-level timeout in
the workflow is the watchdog).  The default ``dev`` profile keeps
local iteration snappy; properties in these packages rely on the
profile instead of per-test ``max_examples`` overrides so one knob
scales the whole layer.

Each property applies the profile to itself (``@active_profile()``);
none is loaded for the whole process, so collecting a fuzz suite
changes no other suite's hypothesis defaults
(``tests/test_hypothesis_scope.py`` checks this).  The module is
importable as ``hypothesis_profiles`` because pytest's default import
mode puts the root conftest's directory, ``tests/``, on the path.
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


def active_profile(min_examples: int = 0) -> settings:
    """The profile ``HYPOTHESIS_PROFILE`` names (default ``dev``) as a
    decorator for one property, run at least *min_examples* times."""
    profile = settings.get_profile(_profile_name())
    return settings(profile,
                    max_examples=max(profile.max_examples, min_examples))
