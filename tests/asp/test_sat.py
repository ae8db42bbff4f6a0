"""Unit tests for the CDCL SAT backend."""

import itertools
import random
import sys

import pytest

from repro.asp.sat import SatError, Solver, WeightedCounter, _luby


class TestBasics:
    def test_empty_formula_sat(self):
        assert Solver().solve() is not None

    def test_unit_clause(self):
        solver = Solver()
        v = solver.new_var()
        solver.add_clause([v])
        model = solver.solve()
        assert model[v] is True

    def test_contradictory_units_unsat(self):
        solver = Solver()
        v = solver.new_var()
        assert solver.add_clause([v])
        assert not solver.add_clause([-v])
        assert solver.solve() is None

    def test_zero_literal_rejected(self):
        with pytest.raises(SatError):
            Solver().add_clause([0])

    def test_tautology_ignored(self):
        solver = Solver()
        v = solver.new_var()
        assert solver.add_clause([v, -v])
        assert solver.solve() is not None

    def test_implication_chain(self):
        solver = Solver()
        vs = [solver.new_var() for _ in range(10)]
        solver.add_clause([vs[0]])
        for a, b in zip(vs, vs[1:]):
            solver.add_clause([-a, b])
        model = solver.solve()
        assert all(model[v] for v in vs)


class TestSearch:
    def test_simple_backtracking(self):
        solver = Solver()
        a, b, c = (solver.new_var() for _ in range(3))
        solver.add_clause([a, b])
        solver.add_clause([-a, c])
        solver.add_clause([-b, c])
        model = solver.solve()
        assert model[c] is True

    def test_pigeonhole_3_into_2_unsat(self):
        solver = Solver()
        # pigeon p in hole h: var[p][h]
        var = [[solver.new_var() for _ in range(2)] for _ in range(3)]
        for p in range(3):
            solver.add_clause([var[p][0], var[p][1]])
        for h in range(2):
            for p1 in range(3):
                for p2 in range(p1 + 1, 3):
                    solver.add_clause([-var[p1][h], -var[p2][h]])
        assert solver.solve() is None

    def test_random_3sat_satisfiable(self):
        import random

        rng = random.Random(7)
        solver = Solver()
        n = 20
        variables = [solver.new_var() for _ in range(n)]
        hidden = {v: rng.random() < 0.5 for v in variables}
        for _ in range(60):
            clause = []
            chosen = rng.sample(variables, 3)
            for v in chosen:
                clause.append(v if hidden[v] else -v)
            # flip some literals but keep at least one satisfied
            clause[1] = -clause[1] if rng.random() < 0.5 else clause[1]
            clause[2] = -clause[2] if rng.random() < 0.5 else clause[2]
            solver.add_clause(clause)
        assert solver.solve() is not None


class TestAssumptions:
    def test_assumption_fixes_literal(self):
        solver = Solver()
        v = solver.new_var()
        model = solver.solve(assumptions=[-v])
        assert model[v] is False

    def test_unsat_under_assumption_but_sat_globally(self):
        solver = Solver()
        a, b = solver.new_var(), solver.new_var()
        solver.add_clause([a, b])
        assert solver.solve(assumptions=[-a, -b]) is None
        assert solver.solve() is not None

    def test_conflicting_assumptions(self):
        solver = Solver()
        v = solver.new_var()
        assert solver.solve(assumptions=[v, -v]) is None


class TestIncremental:
    def test_add_clause_after_solve(self):
        solver = Solver()
        a = solver.new_var()
        model = solver.solve()
        assert model is not None
        solver.add_clause([a])
        model = solver.solve()
        assert model[a] is True

    def test_blocking_models_enumerates(self):
        solver = Solver()
        a, b = solver.new_var(), solver.new_var()
        count = 0
        while True:
            model = solver.solve()
            if model is None:
                break
            count += 1
            solver.add_clause(
                [-v if model[v] else v for v in (a, b)]
            )
        assert count == 4


class TestEncodingHelpers:
    def test_iff_and(self):
        solver = Solver()
        a, b, t = (solver.new_var() for _ in range(3))
        solver.add_iff_and(t, [a, b])
        solver.add_clause([t])
        model = solver.solve()
        assert model[a] and model[b]

    def test_iff_and_reverse(self):
        solver = Solver()
        a, b, t = (solver.new_var() for _ in range(3))
        solver.add_iff_and(t, [a, b])
        solver.add_clause([a])
        solver.add_clause([b])
        model = solver.solve()
        assert model[t]

    def test_iff_or(self):
        solver = Solver()
        a, b, t = (solver.new_var() for _ in range(3))
        solver.add_iff_or(t, [a, b])
        solver.add_clause([-a])
        solver.add_clause([-b])
        model = solver.solve()
        assert not model[t]


class TestWeightedCounter:
    def _count_models(self, n, weights, bound, polarity):
        solver = Solver()
        variables = [solver.new_var() for _ in range(n)]
        counter = WeightedCounter(solver, list(zip(variables, weights)))
        literal = counter.geq(bound)
        solver.add_clause([literal if polarity else -literal])
        count = 0
        while True:
            model = solver.solve()
            if model is None:
                return count
            count += 1
            solver.add_clause([-v if model[v] else v for v in variables])

    def test_geq_counts_subsets(self):
        # 4 unit weights, sum >= 2: C(4,2)+C(4,3)+C(4,4) = 11
        assert self._count_models(4, [1, 1, 1, 1], 2, True) == 11

    def test_negated_threshold(self):
        # sum < 2: C(4,0)+C(4,1) = 5
        assert self._count_models(4, [1, 1, 1, 1], 2, False) == 5

    def test_weighted(self):
        # weights 2,3,4; sum >= 5: {2,3},{2,4},{3,4},{2,3,4},{4}? no 4<5 -> 4 subsets
        assert self._count_models(3, [2, 3, 4], 5, True) == 4

    def test_trivial_bounds(self):
        solver = Solver()
        v = solver.new_var()
        counter = WeightedCounter(solver, [(v, 1)])
        always = counter.geq(0)
        never = counter.geq(2)
        solver.add_clause([always])
        solver.add_clause([-never])
        assert solver.solve() is not None

    def test_nonpositive_weight_rejected(self):
        solver = Solver()
        v = solver.new_var()
        with pytest.raises(SatError):
            WeightedCounter(solver, [(v, 0)])

    def test_long_counter_under_default_recursion_limit(self):
        """Building needs no Python stack proportional to the item
        count (budgeted plans sum over thousands of scenarios)."""
        assert sys.getrecursionlimit() <= 3000
        solver = Solver()
        variables = [solver.new_var() for _ in range(3000)]
        counter = WeightedCounter(solver, [(v, 1) for v in variables])
        at_least_two = counter.geq(2)
        assert solver.propagate_top()
        assert solver.push_level(variables[0]) is None
        assert solver.push_level(variables[-1]) is None
        assert solver.assignment_view()[at_least_two] == 1
        solver.pop_to_level(0)
        assert solver.push_level(at_least_two) is None
        for v in variables[:-2]:
            assert solver.push_level(-v) is None
        view = solver.assignment_view()
        assert view[variables[-2]] == 1 and view[variables[-1]] == 1

    def test_encoding_matches_recursive_construction(self):
        """Variables and clauses come out in the order of the textbook
        recursion ``node(j, k) = node(j-1, k) OR (x_j AND node(j-1, k-w_j))``."""

        def reference(solver, items, bounds):
            layers = {}
            constant = []

            def true_var():
                if not constant:
                    constant.append(solver.new_var())
                    solver.add_clause([constant[0]])
                return constant[0]

            def node(j, k):
                if k <= 0:
                    return true_var()
                if j == 0:
                    return -true_var()
                if (j, k) in layers:
                    return layers[j, k]
                literal, weight = items[j - 1]
                without = node(j - 1, k)
                var = solver.new_var()
                if k - weight <= 0:
                    solver.add_iff_or(var, [without, literal])
                else:
                    with_item = node(j - 1, k - weight)
                    both = solver.new_var()
                    solver.add_iff_and(both, [literal, with_item])
                    solver.add_iff_or(var, [without, both])
                layers[j, k] = var
                return var

            total = sum(weight for _, weight in items)
            return [
                true_var() if b <= 0 else -true_var() if b > total else node(len(items), b)
                for b in bounds
            ]

        rng = random.Random(3)
        for _ in range(200):
            n = rng.randint(0, 10)
            items = [(rng.choice([1, -1]) * (i + 1), rng.randint(1, 4)) for i in range(n)]
            bounds = [rng.randint(-1, 4 * n + 2) for _ in range(rng.randint(1, 4))]
            built = []

            def counter(solver):
                circuit = WeightedCounter(solver, items)
                return [circuit.geq(b) for b in bounds]

            for build in (counter, lambda solver: reference(solver, items, bounds)):
                solver = Solver()
                for _ in range(n):
                    solver.new_var()
                literals = build(solver)
                built.append((literals, solver.num_vars, solver._clauses, solver._trail))
            assert built[0] == built[1], (items, bounds)


def _holds(literal, bits):
    return bits[abs(literal) - 1] == (literal > 0)


def _brute_models(n, clauses, constraints, assumptions=()):
    """All total assignments (as bool tuples) meeting every clause,
    at-most constraint and assumption."""
    models = []
    for bits in itertools.product((False, True), repeat=n):
        if not all(_holds(l, bits) for l in assumptions):
            continue
        if not all(any(_holds(l, bits) for l in clause) for clause in clauses):
            continue
        if all(
            sum(_holds(l, bits) for l in literals) <= bound
            for literals, bound in constraints
        ):
            models.append(bits)
    return models


class TestAtMost:
    def test_bound_reached_falsifies_the_rest(self):
        solver = Solver()
        xs = [solver.new_var() for _ in range(4)]
        assert solver.add_at_most(xs, 2)
        assert solver.push_level(xs[0]) is None
        assert solver.assignment_view()[xs[3]] == 0
        assert solver.push_level(xs[1]) is None
        view = solver.assignment_view()
        assert view[xs[2]] == -1 and view[xs[3]] == -1

    def test_overflow_conflicts_with_core(self):
        solver = Solver()
        xs = [solver.new_var() for _ in range(3)]
        extra = solver.new_var()
        assert solver.add_at_most(xs, 1)
        assert solver.solve(assumptions=[extra, xs[0], xs[2]]) is None
        assert sorted(solver.last_core()) == sorted([xs[0], xs[2]])
        assert solver.solve(assumptions=[xs[1]]) is not None

    def test_top_level_items_fold_into_the_bound(self):
        solver = Solver()
        xs = [solver.new_var() for _ in range(3)]
        solver.add_clause([xs[0]])
        assert solver.add_at_most(xs, 1)
        assert solver.fixed_at_top(xs[1]) and solver.fixed_at_top(xs[2])
        assert solver.solve() == {xs[0]: True, xs[1]: False, xs[2]: False}

    def test_negative_literals_and_multiplicity(self):
        solver = Solver()
        a, b = solver.new_var(), solver.new_var()
        # a counts twice: a true alone already exceeds 1
        assert solver.add_at_most([a, a, -b], 1)
        assert solver.solve(assumptions=[a]) is None
        model = solver.solve(assumptions=[b])
        assert model is not None and model[b]

    def test_unsatisfiable_bounds(self):
        solver = Solver()
        a = solver.new_var()
        assert not solver.add_at_most([a], -1)
        assert solver.solve() is None
        solver = Solver()
        assert not solver.add_at_most([a, -a], 0)
        assert solver.solve() is None

    def test_complementary_pair_lowers_the_bound(self):
        # a and -a always add exactly one true item: at most 1 of
        # (a, -a, b) is "b is false"
        solver = Solver()
        a, b = solver.new_var(), solver.new_var()
        assert solver.add_at_most([a, -a, b], 1)
        assert solver.fixed_at_top(b)
        assert solver.solve(assumptions=[b]) is None
        assert solver.last_core() == [b]
        assert solver.push_level(b) is not None
        solver.pop_to_level(0)
        assert solver.solve() is not None

    def test_complementary_pair_under_search(self):
        """The bound is met by a decided item while its variable's two
        polarities are both still unassigned, and the conflict that
        follows goes through analysis over native reasons."""
        solver = Solver()
        b, a = solver.new_var(), solver.new_var()
        # b is decided first (lowest variable, negative phase): -b true
        assert solver.add_at_most([a, -a, -b], 1)
        assert solver.solve() == {b: True, a: False}
        solver = Solver()
        a, b, c, d, e = (solver.new_var() for _ in range(5))
        for clause in ([b, d], [b, -d], [c, e], [c, -e]):
            solver.add_clause(clause)
        assert solver.add_at_most([a, -a, b, c], 2)
        assert solver.solve() is None
        assert solver.statistics["conflicts"] > 0

    def test_trivial_bound_stores_nothing(self):
        solver = Solver()
        xs = [solver.new_var() for _ in range(3)]
        assert solver.add_at_most(xs, 3)
        assert solver.solve(assumptions=xs) is not None

    def test_random_formulas_match_brute_force(self, monkeypatch):
        """Random CNF plus at-most constraints: verdicts, models, the
        number of models (enumerated through blocking clauses, which
        drives conflict analysis) and every assumption core agree with
        brute force, while native reasons feed analysis, minimization
        and core extraction."""
        native_reasons = []
        accessor = Solver._reason_literals

        def counting(self, reason):
            if reason < 0:
                native_reasons.append(reason)
            return accessor(self, reason)

        monkeypatch.setattr(Solver, "_reason_literals", counting)
        rng = random.Random(11)
        conflicts = learnt = cores = 0
        for trial in range(250):
            n = rng.randint(3, 8)
            clauses = [
                [rng.choice([1, -1]) * rng.randint(1, n) for _ in range(rng.randint(2, 3))]
                for _ in range(rng.randint(0, 2 * n))
            ]
            constraints = []
            for _ in range(rng.randint(1, 3)):
                # variables may repeat, in either polarity
                literals = [
                    rng.choice([1, 1, 1, -1]) * rng.randint(1, n)
                    for _ in range(rng.randint(2, n))
                ]
                constraints.append((literals, rng.randint(0, len(literals) - 1)))
            solver = Solver(restart_base=1, reduce_base=1)
            for _ in range(n):
                solver.new_var()
            for clause in clauses:
                solver.add_clause(clause)
            for literals, bound in constraints:
                solver.add_at_most(literals, bound)
            context = (trial, clauses, constraints)
            for _ in range(3):
                assumptions = [
                    rng.choice([1, -1]) * v
                    for v in rng.sample(range(1, n + 1), rng.randint(0, min(3, n)))
                ]
                expected = _brute_models(n, clauses, constraints, assumptions)
                model = solver.solve(assumptions=assumptions)
                if model is None:
                    assert not expected, context
                    core = solver.last_core()
                    assert set(core) <= set(assumptions), context
                    assert not _brute_models(n, clauses, constraints, core), context
                    cores += 1
                else:
                    bits = tuple(model[v] for v in range(1, n + 1))
                    assert bits in expected, context
            count = 0
            while True:
                model = solver.solve()
                if model is None:
                    break
                count += 1
                solver.add_clause([-v if model[v] else v for v in range(1, n + 1)])
            assert count == len(_brute_models(n, clauses, constraints)), context
            conflicts += solver.statistics["conflicts"]
            learnt += solver.statistics["learnt"]
        assert conflicts and learnt and cores and native_reasons


class TestLuby:
    def test_prefix(self):
        assert [_luby(i) for i in range(1, 16)] == [
            1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8,
        ]
