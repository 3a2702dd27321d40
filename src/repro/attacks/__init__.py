"""Attacks on logic locking: SAT, removal, enhanced removal, TCF, scan.

Every family also registers a normalized runner with
:mod:`repro.attacks.registry`; harnesses that need uniform results
(the campaign, the arena, the CLI) drive attacks through it.
"""

from .outcome import AttackOutcome, recovered_corruption, score_recovery
from .registry import (
    AttackContext,
    AttackInfo,
    attack_info,
    attack_infos,
    attack_names,
    incompatibility,
    register_attack,
    run_attack,
)
from .oracle import (
    CombinationalOracle,
    OracleProtocol,
    TimingOracle,
    TwoVectorOracleProtocol,
    random_pattern,
)
from .sat_attack import SatAttackResult, sat_attack, verify_key_against_oracle
from .removal import RemovalResult, removal_attack, signal_probabilities
from .enhanced_removal import (
    EnhancedRemovalResult,
    LocatedGk,
    enhanced_removal_attack,
    locate_gk_structures,
)
from .tcf import (
    SimulatedTwoVectorOracle,
    find_delay_test,
    tcf_attack,
    two_vector_response,
)
from .scan import ScanAttackResult, ScanChain, insert_scan_chain, scan_attack
from .appsat import AppSatResult, appsat_attack
from .unroll import sequential_sat_attack

__all__ = [
    "AttackOutcome", "recovered_corruption", "score_recovery",
    "AttackContext", "AttackInfo", "attack_info", "attack_infos",
    "attack_names", "incompatibility", "register_attack", "run_attack",
    "CombinationalOracle", "OracleProtocol", "TimingOracle",
    "TwoVectorOracleProtocol", "random_pattern",
    "SatAttackResult", "sat_attack", "verify_key_against_oracle",
    "RemovalResult", "removal_attack", "signal_probabilities",
    "EnhancedRemovalResult", "LocatedGk", "enhanced_removal_attack",
    "locate_gk_structures",
    "SimulatedTwoVectorOracle", "find_delay_test", "tcf_attack",
    "two_vector_response",
    "ScanAttackResult", "ScanChain", "insert_scan_chain", "scan_attack",
    "AppSatResult", "appsat_attack",
    "sequential_sat_attack",
]
