"""CNF formulas with DIMACS-style signed-integer literals.

A literal is a nonzero int: ``+v`` for variable *v*, ``-v`` for its
negation.  :class:`CNF` is a lightweight container used to stage
problems before loading them into :class:`repro.sat.solver.Solver`, and
to read/write the standard DIMACS format for interchange/debugging.
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, Sequence, TextIO, Tuple

__all__ = ["CNF"]


class CNF:
    """A conjunction of clauses over integer variables 1..num_vars."""

    def __init__(self, num_vars: int = 0) -> None:
        self.num_vars = num_vars
        self.clauses: List[Tuple[int, ...]] = []

    def new_var(self) -> int:
        self.num_vars += 1
        return self.num_vars

    def new_vars(self, count: int) -> List[int]:
        return [self.new_var() for _ in range(count)]

    def add_clause(self, literals: Iterable[int]) -> None:
        clause = tuple(literals)
        for lit in clause:
            if lit == 0:
                raise ValueError("0 is not a literal")
            if abs(lit) > self.num_vars:
                self.num_vars = abs(lit)
        self.clauses.append(clause)

    def extend(self, clauses: Iterable[Iterable[int]]) -> None:
        for clause in clauses:
            self.add_clause(clause)

    def __len__(self) -> int:
        return len(self.clauses)

    def __iter__(self) -> Iterator[Tuple[int, ...]]:
        return iter(self.clauses)

    # -- DIMACS ----------------------------------------------------------

    def write_dimacs(self, stream: TextIO) -> None:
        stream.write(f"p cnf {self.num_vars} {len(self.clauses)}\n")
        for clause in self.clauses:
            stream.write(" ".join(map(str, clause)) + " 0\n")

    @classmethod
    def read_dimacs(cls, stream: TextIO) -> "CNF":
        cnf = cls()
        declared_vars = None
        pending: List[int] = []
        for raw in stream:
            line = raw.strip()
            if not line or line.startswith(("c", "%")):
                continue
            if line.startswith("p"):
                parts = line.split()
                if len(parts) != 4 or parts[1] != "cnf":
                    raise ValueError(f"bad DIMACS header: {line!r}")
                declared_vars = int(parts[2])
                continue
            for token in line.split():
                lit = int(token)
                if lit == 0:
                    cnf.add_clause(pending)
                    pending = []
                else:
                    pending.append(lit)
        if pending:
            cnf.add_clause(pending)
        if declared_vars is not None:
            cnf.num_vars = max(cnf.num_vars, declared_vars)
        return cnf

    # -- convenience encodings -------------------------------------------

    def add_equal(self, a: int, b: int) -> None:
        """a <-> b."""
        self.add_clause([-a, b])
        self.add_clause([a, -b])

    def _cover(self, *lits: int) -> None:
        """Check a gate's literals as :meth:`add_clause` checks each
        clause's, and raise ``num_vars`` over them."""
        if 0 in lits:
            raise ValueError("0 is not a literal")
        top = max(map(abs, lits))
        if top > self.num_vars:
            self.num_vars = top

    # The gate encodings below append their clauses directly, checking
    # the gate's literals once instead of once per clause.

    def add_xor(self, out: int, a: int, b: int) -> None:
        """out <-> a XOR b."""
        self._cover(out, a, b)
        self.clauses += (
            (-out, a, b), (-out, -a, -b), (out, -a, b), (out, a, -b),
        )

    def add_and(self, out: int, operands: Sequence[int]) -> None:
        """out <-> AND(operands)."""
        self._cover(out, *operands)
        self.clauses += [(-out, lit) for lit in operands]
        self.clauses.append((out, *[-lit for lit in operands]))

    def add_or(self, out: int, operands: Sequence[int]) -> None:
        """out <-> OR(operands)."""
        for lit in operands:
            self.add_clause([out, -lit])
        self.add_clause([-out] + list(operands))

    def add_mux(self, out: int, a: int, b: int, sel: int) -> None:
        """out <-> (sel ? b : a)."""
        self._cover(out, a, b, sel)
        self.clauses += (
            (sel, -a, out), (sel, a, -out), (-sel, -b, out), (-sel, b, -out),
        )
