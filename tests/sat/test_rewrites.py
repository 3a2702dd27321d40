"""The node table's two cancellations, and the GK they fold.

:class:`~repro.sat.tseitin.NodeTable` rewrites ``XOR(a, XOR(a, c))`` to
``c`` and ``MUX(s, NOT b, b)`` to ``XNOR(s, b)``.  Together they fold a
GK, ``MUX(k, XNOR(x, k), XOR(x, k))``, to ``NOT x`` (or ``x``), which
is why the SAT attack's first query on a GK lock is UNSAT without any
search (paper Sec. VI).

* A property over random AND/XOR/MUX DAGs on signed literals and the
  constant, drawn so that an XOR with an earlier XOR and one of its
  operands, a MUX with complementary arms and the GK shape (a MUX
  selected by an operand of its XOR arms) are common: every literal the
  table returns equals the DAG's truth table under every input
  assignment.  :func:`test_dags_draw_both_cancellations` checks the
  share of draws in which each rewrite fires.
* GK shape cases: both variants, with and without the pre-inverter,
  spliced by :func:`~repro.core.insert_gk` into a one-flip-flop design.
  The GK's output is ``x``'s literal or its negation in both miter
  copies, every output merges, and the first query of the
  combinational and the unrolled attack is refuted with 0 conflicts.
* A timed copy still sees the key wherever the GK's two arms read
  different ticks: the glitch of :func:`~repro.core.build_gk_demo`.

Example volume comes from the ``tests/hypothesis_profiles.py``
profiles (``HYPOTHESIS_PROFILE=ci`` runs 200+ examples per property).
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st
from hypothesis_profiles import active_profile

from repro.attacks import CombinationalOracle
from repro.attacks.sat_attack import KeyConeMiter, sat_attack
from repro.attacks.unroll import sequential_sat_attack
from repro.core import build_gk_demo, insert_gk
from repro.netlist import Builder
from repro.netlist.transform import (
    combinational_view, key_influence_view, timed_view,
)
from repro.obs import capture
from repro.sat import CNF, CircuitEncoder, Solver
from repro.sat.tseitin import NodeTable

#: An operand index naming the constant-true literal.
TRUE = -1


@st.composite
def dags(draw):
    """``(num_inputs, ops)``: 1-12 ops over 2-4 inputs.  An op is
    ``(kind, operands)`` with kind ``"and"``, ``"xor"`` or ``"mux"``
    (select, else-arm, then-arm); an operand is ``(index, negated)``
    over the inputs and then the earlier ops, or :data:`TRUE`.  Once
    there is an XOR of two distinct nets, most XORs take such an XOR
    and one of its operands; most MUXes get complementary arms, and
    most of those are GKs: such an XOR for the then-arm and one of its
    operands as select.  The other ops draw distinct operands."""
    num_inputs = draw(st.integers(2, 4))
    ops = []
    xors = []  # indices of the XOR ops over two distinct nets

    def operands(count):
        """*count* distinct operands; the index one past the last net
        draws the constant."""
        available = num_inputs + len(ops)
        indices = draw(st.lists(st.integers(0, available), min_size=count,
                                max_size=count, unique=True))
        return [(TRUE if index == available else index, draw(st.booleans()))
                for index in indices]

    def xor_and_operand():
        inner = draw(st.sampled_from(xors))
        shared, _ = draw(st.sampled_from(ops[inner - num_inputs][1]))
        return (inner, draw(st.booleans())), (shared, draw(st.booleans()))

    def often():
        return draw(st.integers(0, 2)) < 2

    for _ in range(draw(st.integers(1, 12))):
        kind = draw(st.sampled_from(("xor", "mux", "and")))
        if kind == "xor" and xors and often():
            drawn = xor_and_operand()
            if draw(st.booleans()):
                drawn = drawn[::-1]
        elif kind == "mux" and often():
            if xors and often():
                arm, select = xor_and_operand()
            else:
                arm, select = operands(2)
            drawn = (select, (arm[0], not arm[1]), arm)
        else:
            drawn = operands(3 if kind == "mux" else 2)
            if kind == "xor" and TRUE not in (drawn[0][0], drawn[1][0]):
                xors.append(num_inputs + len(ops))
        ops.append((kind, tuple(drawn)))
    return num_inputs, ops


def encode(num_inputs, ops):
    """``(cnf, table, input variables, one literal per op)``."""
    cnf, table = CNF(), NodeTable()
    inputs = [cnf.new_var() for _ in range(num_inputs)]
    literals = list(inputs)

    def signed(index, negated):
        lit = table.constant(cnf, 1) if index == TRUE else literals[index]
        return -lit if negated else lit

    for kind, operands in ops:
        lits = [signed(*operand) for operand in operands]
        if kind == "and":
            literals.append(table.and2(cnf, *lits))
        elif kind == "xor":
            literals.append(table.xor2(cnf, *lits))
        else:
            select, else_arm, then_arm = lits
            literals.append(table.mux2(cnf, else_arm, then_arm, select))
    return cnf, table, inputs, literals[num_inputs:]


def truth_tables(num_inputs, ops):
    """Each op's truth table as an int: bit r is its value when input i
    reads bit i of r."""
    rows = 1 << num_inputs
    full = (1 << rows) - 1
    tables = [
        sum(1 << row for row in range(rows) if row >> i & 1)
        for i in range(num_inputs)
    ]

    def signed(index, negated):
        table = full if index == TRUE else tables[index]
        return full ^ table if negated else table

    for kind, operands in ops:
        values = [signed(*operand) for operand in operands]
        if kind == "and":
            tables.append(values[0] & values[1])
        elif kind == "xor":
            tables.append(values[0] ^ values[1])
        else:
            select, else_arm, then_arm = values
            tables.append(select & then_arm | (full ^ select) & else_arm)
    return tables[num_inputs:]


@active_profile()
@given(dag=dags())
def test_cancellations_keep_every_function(dag):
    """Under every input assignment, the clauses force each returned
    literal to its op's truth-table value."""
    num_inputs, ops = dag
    cnf, _table, inputs, literals = encode(num_inputs, ops)
    expected = truth_tables(num_inputs, ops)
    solver = Solver()
    solver.add_cnf(cnf)
    for row in range(1 << num_inputs):
        assert solver.solve([
            var if row >> i & 1 else -var for i, var in enumerate(inputs)
        ])
        for lit, table in zip(literals, expected):
            assert solver.model_lit(lit) == bool(table >> row & 1), row


def test_dags_draw_both_cancellations():
    """Over 200 derandomized draws of :func:`dags`, each cancellation
    fires in at least a third: when this was written the XOR one fired
    in 42.5% and the MUX one in 61.5% (48% and 58% of 2,000 draws)."""
    fired = []

    @settings(database=None, max_examples=200, derandomize=True,
              deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(dag=dags())
    def record(dag):
        _cnf, table, _inputs, _literals = encode(*dag)
        fired.append((table.xor_collapses > 0, table.mux_collapses > 0))

    record()
    assert len(fired) == 200
    for rewrite in (0, 1):
        assert sum(draw[rewrite] for draw in fired) >= len(fired) / 3


#: (variant, pre_invert): both GK variants, with and without the
#: pre-inverter the insertion strategy may add
GK_SHAPES = [
    pytest.param(variant, pre_invert,
                 id=variant + ("-inv" if pre_invert else ""))
    for variant in ("3a", "3b") for pre_invert in (False, True)
]


def gk_host(variant=None, pre_invert=False):
    """A one-flip-flop design, ``y = Q XOR a`` with ``D = a AND c``,
    and (unless *variant* is None) a GK keyed by ``k0`` spliced in
    front of D; returns the netlist and the GK (or None)."""
    b = Builder("gk_host")
    b.clock("clk")
    a, c = b.inputs("a", "c")
    b.dff(b.and2(a, c), name="ff")
    b.po(b.xor(b.circuit.gates["ff"].output, a), "y")
    if variant is None:
        return b.circuit, None
    gk = insert_gk(b.circuit, "ff", b.key_input("k0"), 0.9, 1.4, variant,
                   pre_invert)
    b.circuit.validate()
    return b.circuit, gk


@pytest.mark.parametrize("variant,pre_invert", GK_SHAPES)
def test_gk_folds_to_one_literal(variant, pre_invert):
    """In both copies the GK's output is ``NOT x`` (3a) or ``x`` (3b):
    re-encoding a copy through the miter's table adds nothing, so these
    are the miter's own literals.  Both outputs merge, and the first
    query is refuted without a conflict."""
    netlist, gk = gk_host(variant, pre_invert)
    view = combinational_view(netlist)
    solver = Solver()
    miter = KeyConeMiter(solver, view, {net: net for net in view.outputs})
    assert (miter.table.xor_collapses, miter.table.mux_collapses) == (2, 2)
    base = key_influence_view(view)
    outputs = []
    for key_vars in miter.key_vars:
        cnf = CNF(num_vars=solver.num_vars)
        copy = CircuitEncoder(cnf, base, dict(miter.pi_vars, **key_vars),
                              table=miter.table)
        assert (cnf.clauses, cnf.num_vars) == ([], solver.num_vars)
        x = copy.var_of[gk.x_net]
        assert copy.var_of[gk.output_net] == (-x if variant == "3a" else x)
        raw = copy.var_of[gk.raw_net]
        buffer = gk.constant_behaviour == "buffer"
        assert copy.var_of[gk.output_net] == (raw if buffer else -raw)
        outputs.append(copy.var_of[gk.output_net])
    assert outputs[0] == outputs[1]
    assert miter.merged_outputs == len(view.outputs)
    assert not solver.solve([miter.diff])
    assert solver.num_conflicts == 0


@pytest.mark.parametrize("variant,pre_invert", GK_SHAPES)
def test_gk_attacks_refute_the_first_query_without_search(variant,
                                                          pre_invert):
    """The combinational and the 2-frame unrolled attack both stop at
    the first query with 0 conflicts and 0 decisions; the encode span
    shows why: every output merged, one MUX and one XOR cancellation
    per copy."""
    netlist, _gk = gk_host(variant, pre_invert)
    design, _ = gk_host()
    with capture() as sink:
        result = sat_attack(netlist, CombinationalOracle(design))
    encode = next(span for span in sink.spans
                  if span.name == "attack.sat.encode")
    assert {name: encode.attrs[name] for name in (
        "merged_outputs", "xor_collapses", "mux_collapses")} == {
        "merged_outputs": 2, "xor_collapses": 2, "mux_collapses": 2}
    unrolled = sequential_sat_attack(netlist, design, frames=2)
    for run in (result, unrolled):
        assert run.unsat_at_first_iteration
        assert (run.solver_conflicts, run.solver_decisions) == (0, 0)


@pytest.mark.parametrize("variant", ["3a", "3b"])
def test_timed_copy_keeps_the_glitch(variant):
    """With DA = 2 ns, DB = 3 ns and 0.5-ns ticks, the output sampled at
    tick t reads arm A's fan-ins at tick t - 4 and arm B's at t - 6 (the
    settled first vector before tick 0).  The two copies differ exactly
    where the arms read different vectors, ticks 4 and 5 (t in
    [DA, DB)), and hash together at ticks 0-3 and 6-8."""
    demo = build_gk_demo(da=2.0, db=3.0, variant=variant)
    demo.inputs.remove("key")
    demo.key_inputs.append("key")
    differ = []
    for tick in range(9):
        view = timed_view(demo, tick, dt=0.5)
        miter = KeyConeMiter(Solver(), view,
                             {net: net for net in view.outputs})
        if miter.merged_outputs == 0:
            differ.append(tick)
        else:
            assert miter.merged_outputs == len(view.outputs) == 1
    assert differ == [4, 5]
