"""Property-based validation of the CDCL stable-model solver.

Random small normal logic programs (with negation, choices and positive
recursion) are solved both by the CDCL-based solver and the brute-force
reduct checker; the answer-set *sets* must be identical.  This guards the
completion + loop-nogood machinery, the most subtle part of the engine.
The same oracle pins the ``Control`` query surface under assumptions:
``first_model``/``is_satisfiable`` verdicts and witnesses, and every
assumption core ``unsat_core`` reports.  Programs with ``#count``
aggregates cover both cardinality encodings: ``:- #count{...} > k.``
compiles to the SAT layer's native at-most constraint, every other
``#count`` to a counter circuit.
"""

from hypothesis import given, settings, strategies as st

from repro.asp import Control, atom, parse_program
from repro.asp.grounder import ground_program
from repro.asp.naive import is_stable_model, stable_models
from repro.asp.solver import ProjectionIncomplete, StableModelSolver

ATOMS = ["a", "b", "c", "d"]


@st.composite
def random_programs(draw):
    """Random propositional normal programs over a tiny alphabet."""
    lines = []
    n_rules = draw(st.integers(min_value=1, max_value=7))
    for _ in range(n_rules):
        kind = draw(st.sampled_from(["rule", "rule", "rule", "choice", "constraint"]))
        body_size = draw(st.integers(min_value=0, max_value=3))
        body = []
        for _ in range(body_size):
            negated = draw(st.booleans())
            atom_name = draw(st.sampled_from(ATOMS))
            body.append(("not " if negated else "") + atom_name)
        body_text = ", ".join(body)
        if kind == "constraint":
            if body:
                lines.append(":- %s." % body_text)
        elif kind == "choice":
            element = draw(st.sampled_from(ATOMS))
            lines.append(
                "{ %s }%s." % (element, (" :- " + body_text) if body else "")
            )
        else:
            head = draw(st.sampled_from(ATOMS))
            if body:
                lines.append("%s :- %s." % (head, body_text))
            else:
                lines.append("%s." % head)
    return "\n".join(lines)


def _solve_both(text):
    program = ground_program(parse_program(text))
    cdcl = {
        frozenset(model.atoms)
        for model in StableModelSolver(program).models()
    }
    brute = set(stable_models(program))
    return cdcl, brute


@settings(max_examples=120, deadline=None)
@given(random_programs())
def test_cdcl_matches_bruteforce(text):
    cdcl, brute = _solve_both(text)
    assert cdcl == brute, "program:\n%s\ncdcl=%s brute=%s" % (text, cdcl, brute)


@settings(max_examples=60, deadline=None)
@given(random_programs())
def test_every_cdcl_model_is_stable(text):
    program = ground_program(parse_program(text))
    for model in StableModelSolver(program).models():
        assert is_stable_model(program, set(model.atoms))


#: up to three (atom name, polarity) assumptions per query
assumption_sets = st.lists(
    st.tuples(st.sampled_from(ATOMS), st.booleans()), max_size=3
)


def _consistent(model, assumptions):
    return all((target in model) == value for target, value in assumptions)


@settings(max_examples=120, deadline=None)
@given(
    random_programs(),
    st.lists(assumption_sets, min_size=1, max_size=3),
    st.booleans(),
)
def test_control_queries_match_bruteforce(text, queries, multishot):
    """Successive assumption queries on one control (fresh solver per
    call, or the persistent multishot one) agree with the oracle: a
    witness exactly when one exists, every witness stable and
    consistent, and every reported core itself unsatisfiable."""
    brute = stable_models(ground_program(parse_program(text)))
    control = Control(text, multishot=multishot)
    for names in queries:
        assumptions = [(atom(name), value) for name, value in names]
        expected = {m for m in brute if _consistent(m, assumptions)}
        model = control.first_model(assumptions)
        context = "program:\n%s\nassumptions=%s" % (text, names)
        if model is None:
            assert not expected, context
            core = control.unsat_core
            if core is not None:
                assert not any(_consistent(m, core) for m in brute), (
                    "%s\ncore=%s" % (context, core)
                )
        else:
            assert frozenset(model.atoms) in expected, context
        assert control.is_satisfiable(assumptions) == bool(expected), context


@st.composite
def recursive_programs(draw):
    """Programs biased toward positive recursion (non-tight)."""
    lines = ["{ seed }."]
    edges = draw(
        st.lists(
            st.tuples(st.sampled_from(ATOMS), st.sampled_from(ATOMS)),
            min_size=1,
            max_size=6,
        )
    )
    for head, body in edges:
        lines.append("%s :- %s." % (head, body))
    anchor = draw(st.sampled_from(ATOMS))
    lines.append("%s :- seed." % anchor)
    return "\n".join(lines)


@settings(max_examples=80, deadline=None)
@given(recursive_programs())
def test_nontight_programs_match_bruteforce(text):
    cdcl, brute = _solve_both(text)
    assert cdcl == brute, "program:\n%s" % text


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.integers(min_value=1, max_value=4), min_size=1, max_size=4),
    st.integers(min_value=0, max_value=10),
)
def test_sum_aggregate_matches_semantics(weights, bound):
    """#sum >= bound models equal direct subset enumeration."""
    atoms = ["x%d" % i for i in range(len(weights))]
    choice = "{ %s }." % "; ".join(atoms)
    elements = "; ".join(
        "%d,%s : %s" % (w, a, a) for w, a in zip(weights, atoms)
    )
    text = "%s ok :- #sum { %s } >= %d. :- not ok." % (choice, elements, bound)
    models = Control(text).solve()
    expected = 0
    for mask in range(2 ** len(weights)):
        total = sum(w for i, w in enumerate(weights) if mask >> i & 1)
        if total >= bound:
            expected += 1
    assert len(models) == expected


CHOICE_ATOMS = ["c0", "c1", "c2", "c3"]
DERIVED_ATOMS = ["a", "b", "d"]


@st.composite
def count_aggregates(draw, names):
    """A ``#count`` over conditions on ``names``; terms repeat, so set
    semantics (a tuple counts once) is exercised too."""
    elements = []
    for _ in range(draw(st.integers(min_value=1, max_value=5))):
        term = draw(st.sampled_from(["1", "2", "3", "x", "y"]))
        negated = draw(st.integers(min_value=0, max_value=3)) == 0
        name = draw(st.sampled_from(names))
        elements.append("%s : %s%s" % (term, "not " if negated else "", name))
    return "#count { %s }" % "; ".join(elements)


@st.composite
def cardinality_programs(draw):
    """Unconditional choices over ``c*``, derived atoms defined through
    ``#count`` bodies and normal rules (positive loops included), and
    count bounds in integrity constraints.  Rule-body aggregates range
    over choice atoms only, so no recursion runs through an aggregate."""
    chosen = draw(
        st.lists(st.sampled_from(CHOICE_ATOMS), min_size=1, max_size=4, unique=True)
    )
    lines = ["{ %s }." % "; ".join(chosen)]
    everything = CHOICE_ATOMS + DERIVED_ATOMS
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        aggregate = draw(count_aggregates(everything))
        k = draw(st.integers(min_value=1, max_value=2))
        form = draw(
            st.sampled_from(
                ["native", "native", "native", "geq", "left", "extra", "upper", "not"]
            )
        )
        if form == "native":
            lines.append(":- %s > %d." % (aggregate, k))
        elif form == "geq":
            lines.append(":- %s >= %d." % (aggregate, k))
        elif form == "left":
            lines.append(":- %d < %s." % (k, aggregate))
        elif form == "extra":
            extra = draw(st.sampled_from(everything))
            lines.append(":- %s > %d, not %s." % (aggregate, k, extra))
        elif form == "upper":
            lines.append(":- %s = %d." % (aggregate, k))
        else:
            lines.append(":- not %s > %d." % (aggregate, k))
    for _ in range(draw(st.integers(min_value=0, max_value=4))):
        head = draw(st.sampled_from(DERIVED_ATOMS))
        aggregate = draw(count_aggregates(CHOICE_ATOMS))
        op = draw(st.sampled_from([">", ">=", "<", "<=", "="]))
        body = ["%s %s %d" % (aggregate, op, draw(st.integers(min_value=0, max_value=3)))]
        if draw(st.booleans()):
            negated = draw(st.booleans())
            body.append(("not " if negated else "") + draw(st.sampled_from(everything)))
        lines.append("%s :- %s." % (head, ", ".join(body)))
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        head = draw(st.sampled_from(DERIVED_ATOMS))
        negated = draw(st.booleans())
        body = draw(st.sampled_from(everything))
        lines.append("%s :- %s%s." % (head, "not " if negated else "", body))
    return "\n".join(lines)


@settings(max_examples=120, deadline=None)
@given(cardinality_programs())
def test_cardinality_models_match_bruteforce(text):
    cdcl, brute = _solve_both(text)
    assert cdcl == brute, "program:\n%s\ncdcl=%s brute=%s" % (text, cdcl, brute)


@settings(max_examples=120, deadline=None)
@given(cardinality_programs())
def test_cardinality_projection_matches_bruteforce(text):
    """The propagation DFS over the choice atoms finds exactly the
    oracle's models whenever it can run."""
    program = ground_program(parse_program(text))
    solver = StableModelSolver(program)
    atoms = list(program.possible_atoms)
    found = []

    def on_model(assignment):
        found.append(
            frozenset(
                a for a in atoms
                if solver.atom_var(a) is not None
                and assignment[solver.atom_var(a)] > 0
            )
        )

    project = [atom(name) for name in CHOICE_ATOMS]
    try:
        count = solver.project_models(project, on_model)
    except ProjectionIncomplete:
        return
    assert count == len(found) == len(set(found)), "program:\n%s" % text
    assert set(found) == set(stable_models(program)), "program:\n%s" % text


@settings(max_examples=120, deadline=None)
@given(
    cardinality_programs(),
    st.lists(
        st.lists(
            st.tuples(st.sampled_from(CHOICE_ATOMS + DERIVED_ATOMS), st.booleans()),
            max_size=3,
        ),
        min_size=1,
        max_size=3,
    ),
    st.booleans(),
)
def test_cardinality_queries_match_bruteforce(text, queries, multishot):
    """``first_model``/``is_satisfiable`` verdicts and every
    ``unsat_core`` agree with the oracle on cardinality programs."""
    brute = stable_models(ground_program(parse_program(text)))
    control = Control(text, multishot=multishot)
    for names in queries:
        assumptions = [(atom(name), value) for name, value in names]
        expected = {m for m in brute if _consistent(m, assumptions)}
        model = control.first_model(assumptions)
        context = "program:\n%s\nassumptions=%s" % (text, names)
        if model is None:
            assert not expected, context
            core = control.unsat_core
            if core is not None:
                assert set(core) <= set(assumptions), context
                assert not any(_consistent(m, core) for m in brute), (
                    "%s\ncore=%s" % (context, core)
                )
        else:
            assert frozenset(model.atoms) in expected, context
        assert control.is_satisfiable(assumptions) == bool(expected), context
