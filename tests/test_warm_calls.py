"""Structure calls on an algebra that has already been used.

Whatever a structure call keeps on an algebra, a later call on the same
algebra must give what a call on a freshly built one gives: the same
flags, weights, certified columns, chains, eigenvectors, ideals and
series, and the same errors, messages, flag depths and witnesses, in
any order of calls, hypotheses checked or not, whatever ``nil_policy``
and ``seed`` each call passes.  What is kept is built once: one walk
over the structure table gives [L, L] to every call, and a second call
builds no map, yet still runs the Engel phase and the certificate."""

import collections
import contextlib
import io
import random
from pathlib import Path

import colorlie.structure as structure
from colorlie import (
    ColorAlgebra,
    ColorLieError,
    HypothesisFailed,
    bracket_closure,
    codim_one_ideal,
    color_flag,
    common_homogeneous_eigenvector,
    derived_series,
    ideal_chain,
    load_problem,
    lower_central_series,
    z3_counterexample,
)
from colorlie.cli import main as cli_main
from corpus import BOREL_GRADINGS, all_configs, borel_generators, random_solvable_instance, \
    rational_conjugated_borel

PROBLEMS = Path(__file__).resolve().parent.parent / "problems"


def _flag(L, **kw):
    flag = color_flag(L, **kw)
    return (flag.ordered_basis, tuple(w.values for w in flag.weights), flag.columns,
            tuple(flag.matrix(f) for f in L.basis))


def _chain(L, **kw):
    return tuple(tuple(m.elements()) for m in ideal_chain(L, **kw).chain)


def _eigenvector(L, **kw):
    v, w = common_homogeneous_eigenvector(L, **kw)
    return v, w.values


def _codim_one(L, check_hypotheses, **_):
    k, z = codim_one_ideal(L, check_hypotheses=check_hypotheses)
    return tuple(k.elements()), z


def _series(series):
    return lambda L, **_: tuple(tuple(s.elements()) for s in series(L))


CALLS = {
    "color_flag": _flag,
    "ideal_chain": _chain,
    "eigenvector": _eigenvector,
    "codim_one_ideal": _codim_one,
    "derived_series": _series(derived_series),
    "lower_central_series": _series(lower_central_series),
}


def _outcome(L, name, check, policy="auto", seed=0):
    """The call's value, or its error: kind, message, flag depth, witness
    and characteristic factor."""
    try:
        return CALLS[name](L, check_hypotheses=check, nil_policy=policy, seed=seed)
    except ColorLieError as e:
        witness = e.witness if isinstance(e, HypothesisFailed) else None
        return (type(e).__name__, str(e), getattr(e, "flag_depth", None), witness,
                str(getattr(e, "char_poly", None)))


def _assert_warm_matches_cold(make, steps, rounds=2):
    """Each step (name, check, policy, seed) run ``rounds`` times on one
    algebra from ``make``, in the given order, equals the step on a
    fresh algebra."""
    cold = {step: _outcome(make(), *step) for step in steps}
    L = make()
    for _ in range(rounds):
        for step in steps:
            assert _outcome(L, *step) == cold[step], step


def _interleaved(rng):
    steps = [(name, check, "auto", 0) for name in CALLS for check in (True, False)]
    rng.shuffle(steps)
    return steps


def test_warm_calls_match_cold_ones_on_planted_algebras():
    rng = random.Random(3201)
    for _, group, r in all_configs():
        for seed in range(3):
            def make(seed=seed, group=group, r=r):
                return random_solvable_instance(random.Random(seed), group, r)
            steps = _interleaved(rng)
            if not group.is_torsion_free():
                steps = [s for s in steps if not s[1]]
            _assert_warm_matches_cold(make, steps)


def test_warm_calls_match_cold_ones_on_borel_algebras():
    rng = random.Random(3202)
    for grading in BOREL_GRADINGS:
        for n in (3, 4):
            def conjugated(n=n, grading=grading):
                return bracket_closure(*rational_conjugated_borel(random.Random(n), n, grading))

            def plain(n=n, grading=grading):
                return bracket_closure(*borel_generators(n, grading))
            for make in (conjugated, plain):
                _assert_warm_matches_cold(make, _interleaved(rng))


def _problem(name):
    def make():
        problem = load_problem(PROBLEMS / name)
        return bracket_closure(problem.space, problem.bicharacter, problem.generators)
    return make


def test_failing_calls_do_not_poison_the_algebra():
    structure_calls = ("color_flag", "ideal_chain", "eigenvector", "codim_one_ideal")
    for name in ("sl2.json", "rotation.json", "z3_torsion.json"):
        steps = [(call, check, "auto", 0) for check in (True, False) for call in structure_calls]
        # checked after unchecked, and back
        steps += [(call, True, "auto", 0) for call in structure_calls]
        _assert_warm_matches_cold(_problem(name), steps)


def test_hypothesis_witness_follows_each_calls_policy_and_seed():
    make = _problem("nonnil_derived.json")
    policies = (("deterministic", 0), ("probabilistic", 7), ("probabilistic", 11), ("auto", 3))
    for call in ("color_flag", "ideal_chain", "eigenvector"):
        steps = [(call, True, p, s) for p, s in policies]
        steps.append((call, False, "auto", 0))
        _assert_warm_matches_cold(make, steps + steps[::-1], rounds=1)
        outcomes = [_outcome(make(), *step) for step in steps[:-1]]
        assert all(o[0] == "HypothesisFailed" and o[3] is not None for o in outcomes)
        # the policies find different points, so a kept witness would show
        assert len({o[3] for o in outcomes}) > 1


class _Table(list):
    """A structure table that counts the walks over it; the calls read
    its rows by index, and only [L, L] (``algebra._square``) walks it."""

    walks = 0

    def __iter__(self):
        self.walks += 1
        return super().__iter__()


def _counted_tables(monkeypatch) -> list:
    """Every table built from now on, each a ``_Table``."""
    tables = []
    real = ColorAlgebra._structure

    def structure_table(L):
        table = real(L)
        if type(table) is not _Table:
            L._table = table = _Table(table)
            tables.append(table)
        return table

    monkeypatch.setattr(ColorAlgebra, "_structure", structure_table)
    return tables


def test_one_table_walk_serves_every_structure_call(monkeypatch):
    tables = _counted_tables(monkeypatch)
    for grading in BOREL_GRADINGS:
        L = bracket_closure(*borel_generators(4, grading))
        for check in (True, False):
            derived_series(L)
            lower_central_series(L)
            codim_one_ideal(L, check_hypotheses=check)
            color_flag(L, check_hypotheses=check)
            ideal_chain(L, check_hypotheses=check)
            common_homogeneous_eigenvector(L, check_hypotheses=check)
    z3_counterexample()
    # the CLI's series: the derived and the lower central series
    with contextlib.redirect_stdout(io.StringIO()):
        for argv in (["series", str(PROBLEMS / "heisenberg.json")],
                     ["series", "--json", str(PROBLEMS / "sl2.json")]):
            assert cli_main(argv) == 0
    assert len(tables) == len(BOREL_GRADINGS) + 3
    assert [t.walks for t in tables] == [1] * len(tables)


def test_warm_calls_build_nothing_and_still_check(monkeypatch):
    calls = collections.Counter()

    def count(name):
        real = getattr(structure, name)
        monkeypatch.setattr(structure, name, lambda *a: calls.update([name]) or real(*a))

    names = ("_engel_phase", "_certify", "_derived_coords", "_sparse_elements", "_sparse_ads")
    for name in names:
        count(name)
    tables = _counted_tables(monkeypatch)
    for grading in BOREL_GRADINGS:
        L = bracket_closure(*rational_conjugated_borel(random.Random(4), 4, grading))
        color_flag(L)
        ideal_chain(L)
        assert calls["_derived_coords"] == 1 and calls["_sparse_ads"] == 1
        for check in (True, False):
            calls.clear()
            color_flag(L, check_hypotheses=check)
            assert calls == {"_engel_phase": 1, "_certify": 1}
            calls.clear()
            # checked, the chain runs the Engel phase on V too
            ideal_chain(L, check_hypotheses=check)
            assert calls == {"_engel_phase": 1 + check, "_certify": 1}
            calls.clear()
            common_homogeneous_eigenvector(L, check_hypotheses=check)
            codim_one_ideal(L, check_hypotheses=check)
            # unchecked, the eigenvector runs the filtration by itself
            assert calls == ({"_engel_phase": 1} if check else {})
        assert tables[-1].walks == 1
