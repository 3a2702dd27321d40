"""Encrypt-Flip-Flop FF-selection algorithm (Karmakar et al. [4]).

Table I's last column reports how many of the GK-available flip-flops
an algorithm from [4] would pick: it "aims at searching for a group of
FFs fanouting to the same set of POs", because encrypting FFs that all
shadow each other's observable outputs defends against scan-based
attacks with higher probability.

We reproduce that selection: group candidate FFs by the *signature* of
primary outputs (and downstream FFs) reachable from their Q pins, and
return the largest group.
"""

from __future__ import annotations

import random
from collections import defaultdict
from typing import Dict, FrozenSet, Iterable, List, Optional

from ..netlist.circuit import Circuit
from .base import LockedCircuit, LockingError, LockingScheme
from .registry import register_scheme

__all__ = [
    "EncryptFF",
    "po_signatures",
    "select_encrypt_ff_group",
    "rank_groups",
]


def po_signatures(
    circuit: Circuit, candidates: Optional[Iterable[str]] = None
) -> Dict[str, FrozenSet[str]]:
    """FF name -> frozenset of observable sinks reachable from its Q.

    Observable sinks are primary outputs (``po:<net>``) and capturing
    flip-flops (``ff:<gate>``), computed through combinational logic
    only — the same notion of "fanouting to the same set of POs" as [4]
    (one pass over the netlist: :meth:`Circuit.transitive_po_sets`).
    """
    signatures = circuit.transitive_po_sets()
    names = sorted(signatures if candidates is None else candidates)
    return {name: signatures[name] for name in names}


def rank_groups(
    circuit: Circuit, candidates: Optional[Iterable[str]] = None
) -> List[List[str]]:
    """Groups of FFs sharing a PO signature, largest first."""
    groups: Dict[FrozenSet[str], List[str]] = defaultdict(list)
    for name, signature in po_signatures(circuit, candidates).items():
        groups[signature].append(name)
    ranked = sorted(groups.values(), key=lambda g: (-len(g), g[0]))
    return [sorted(g) for g in ranked]


def select_encrypt_ff_group(
    circuit: Circuit, candidates: Optional[Iterable[str]] = None
) -> List[str]:
    """The largest same-signature FF group ([4]'s selection pool).

    Restricted to *candidates* when given (Table I intersects with the
    GK-available FFs).  Returns an empty list for FF-free circuits.
    """
    ranked = rank_groups(circuit, candidates)
    return ranked[0] if ranked else []


@register_scheme(
    "encrypt_ff",
    description="Encrypt-Flip-Flop: key-gates on same-PO-signature FFs",
    tags=("sequential-only",),
)
class EncryptFF(LockingScheme):
    """Encrypt-Flip-Flop locking (Karmakar et al. [4]).

    XOR/XNOR key-gates on the Q outputs of flip-flops chosen by the
    same-PO-signature grouping: encrypting FFs that shadow each other's
    observable outputs resists scan-based key pruning.  Groups are
    consumed largest-first until the key width is covered; FFs whose Q
    net is itself a primary output are skipped (splicing would leave
    the PO reading the raw net).
    """

    name = "encrypt_ff"

    def lock(
        self, circuit: Circuit, num_key_bits: int, rng: random.Random
    ) -> LockedCircuit:
        locked = circuit.clone(f"{circuit.name}__encryptff{num_key_bits}")
        po = set(locked.outputs)
        sites: List[str] = []
        for group in rank_groups(locked):
            sites.extend(
                ff for ff in group if locked.gates[ff].output not in po
            )
        if len(sites) < num_key_bits:
            raise LockingError(
                f"only {len(sites)} encryptable flip-flops for "
                f"{num_key_bits} key bits"
            )
        sites = sites[:num_key_bits]

        from .xor_lock import insert_xor_keygate

        key: Dict[str, int] = {}
        gates: List[Dict[str, str]] = []
        for i, ff in enumerate(sites):
            key_net = locked.add_key_input(f"keyin_eff{i}")
            bit = rng.randint(0, 1)
            key[key_net] = bit
            gate_name = insert_xor_keygate(
                locked, locked.gates[ff].output, key_net, bit
            )
            gates.append({"gate": gate_name, "ff": ff, "key": key_net})
        locked.validate()
        return LockedCircuit(
            circuit=locked,
            original=circuit,
            key=key,
            scheme=self.name,
            metadata={"key_gates": gates, "encrypted_ffs": sites},
        )
