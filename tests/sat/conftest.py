"""Hypothesis profiles for the SAT fuzzing layer: see
``tests/hypothesis_profiles.py``."""

from hypothesis_profiles import load_profile

load_profile()
