"""Warm-started SAT attacks: a clause pool persisted across runs.

A SAT attack's short learned clauses are facts about the attacked
netlist and the oracle.  :func:`warm_solver` keeps them in the
campaign's content-addressed cache, keyed by the netlist, the attack
family, an I/O fingerprint of the oracle and the miter's encoding
version, so the next attack on the same netlist and oracle starts from
them (:meth:`~repro.sat.solver.Solver.seed_clauses`).  The DIP loop is
unchanged; a warm run only has fewer key pairs left to eliminate, and
on s1238 with a 4-bit XOR lock it converges in zero DIP iterations.
Only clauses over the base encoding's variables are persisted
(:meth:`~repro.sat.solver.Solver.persistable_clauses`).
"""

from __future__ import annotations

import random
from contextlib import contextmanager
from io import StringIO
from typing import Iterator, List, Optional, Sequence, Tuple

from ..campaign.cache import content_key
from ..netlist.verilog_io import write_verilog
from ..sat.solver import Solver

__all__ = [
    "load_shared_clauses",
    "oracle_fingerprint",
    "shared_clause_key",
    "store_shared_clauses",
    "warm_solver",
]

#: Cap on the clauses one pool entry stores.
POOL_LIMIT = 4096


def oracle_fingerprint(oracle, patterns: int = 8) -> str:
    """Content fingerprint of an activated chip's I/O behaviour.

    Queries *oracle* on a fixed pseudorandom pattern set and hashes the
    responses: two oracles that agree on the probe set share warm-start
    pools, two that differ (a different correct key, a different
    design) do not.  The probes count as real oracle queries — the
    attacker did spend them.
    """
    rng = random.Random(0xF1DE1)
    inputs = sorted(oracle.inputs)
    probes = [
        {net: rng.randint(0, 1) for net in inputs}
        for _ in range(patterns)
    ]
    responses = oracle.query_batch(probes)
    return content_key(
        kind="oracle-fingerprint",
        inputs=inputs,
        outputs=sorted(oracle.outputs),
        responses=[sorted(response.items()) for response in responses],
    )


def shared_clause_key(
    circuit, attack: str, fingerprint: Optional[str] = None
) -> str:
    """Cache key of one (attacked netlist, attack family, oracle) pool.

    Pools hold clauses by variable number, so the key is salted with the
    miter's encoding version: a pool saved under another numbering
    never reaches this one.
    """
    # Read at call time, so patching sat_attack.MITER_ENCODING_VERSION
    # takes effect here too.
    from .sat_attack import MITER_ENCODING_VERSION

    buffer = StringIO()
    write_verilog(circuit, buffer)
    return content_key(
        kind="sat-shared-clauses",
        attack=attack,
        netlist=buffer.getvalue(),
        oracle=fingerprint,
        encoding=MITER_ENCODING_VERSION,
    )


def load_shared_clauses(cache, key: str) -> List[Tuple[int, ...]]:
    """Pool persisted by a previous run, or ``[]``."""
    payload = cache.get(key)
    if not payload:
        return []
    return [tuple(clause) for clause in payload.get("clauses", [])]


def store_shared_clauses(
    cache, key: str, clauses: Sequence[Sequence[int]]
) -> int:
    """Persist (up to :data:`POOL_LIMIT` of) *clauses* for the next run."""
    kept = [list(clause) for clause in clauses][:POOL_LIMIT]
    cache.put(key, {"clauses": kept})
    return len(kept)


@contextmanager
def warm_solver(cache, circuit, attack: str, oracle) -> Iterator[Solver]:
    """A fresh :class:`Solver` seeded from *cache*'s pool for *attack* on
    *circuit* against *oracle*.

    Pass it to the attack inside the ``with`` block; when the block
    exits normally, the solver's persistable clauses replace the pool.
    """
    key = shared_clause_key(circuit, attack, oracle_fingerprint(oracle))
    solver = Solver()
    solver.seed_clauses(load_shared_clauses(cache, key))
    yield solver
    store_shared_clauses(cache, key, solver.persistable_clauses())
