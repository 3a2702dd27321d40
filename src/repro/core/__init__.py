"""The paper's contribution: Glitch Key-gate logic locking.

* :mod:`repro.core.gk` — the GK structure (Fig. 3) and idealized demos.
* :mod:`repro.core.keygen` — the per-cycle transition generator (Fig. 5).
* :mod:`repro.core.timing_rules` — Eqs. (1)-(6).
* :mod:`repro.core.insertion` — feasible-location analysis (Table I).
* :mod:`repro.core.strategy` — per-GK behaviour configuration.
* :mod:`repro.core.flow` — the full design flow / GkLock scheme.
* :mod:`repro.core.withholding` — the LUT defense of Sec. V-D (Fig. 10).
"""

from .gk import GkStructure, build_gk_demo, ideal_gk_library, insert_gk
from .keygen import KEYGEN_MODES, KeygenStructure, insert_keygen, mode_of_key
from .timing_rules import (
    TriggerWindow,
    glitch_length,
    insertion_valid_off_level,
    insertion_valid_on_level,
    minimum_glitch_length,
    path_delay_bounds,
    trigger_window_off_level,
    trigger_window_on_level,
)
from .insertion import (
    DEFAULT_GLITCH_LENGTH,
    DesignPlan,
    GkPlan,
    available_ffs,
    plan_design,
    plan_gk_insertion,
)
from .strategy import GkConfig, choose_config, expected_capture
from .flow import GkLock, GkRecord, expose_gk_keys
from .withholding import WithholdingError, WithholdingRecord, withhold_gk

__all__ = [
    "GkStructure", "build_gk_demo", "ideal_gk_library", "insert_gk",
    "KEYGEN_MODES", "KeygenStructure", "insert_keygen", "mode_of_key",
    "TriggerWindow", "glitch_length", "insertion_valid_off_level",
    "insertion_valid_on_level", "minimum_glitch_length", "path_delay_bounds",
    "trigger_window_off_level", "trigger_window_on_level",
    "DEFAULT_GLITCH_LENGTH", "DesignPlan", "GkPlan", "available_ffs",
    "plan_design", "plan_gk_insertion",
    "GkConfig", "choose_config", "expected_capture",
    "GkLock", "GkRecord", "expose_gk_keys",
    "WithholdingError", "WithholdingRecord", "withhold_gk",
]
