import random

import pytest

from kgreason.rules import (
    Atom,
    HornRule,
    Term,
    canonicalize,
    check_rule_shape,
    classify_rule,
    rule_from_json,
    rule_to_json,
    signature,
    signature_key,
)

from oracles import permutation_canonicalize

X, Y, Z, W = Term.var("X"), Term.var("Y"), Term.var("Z"), Term.var("W")


def test_disconnected_rule():
    # diedIn(x,y) => wasBornIn(w,z): no shared terms at all
    rule = HornRule(Atom("wasBornIn", W, Z), (Atom("diedIn", X, Y),))
    shape = check_rule_shape(rule)
    assert not shape.connected
    assert not shape.safe


def test_uncle_composition_is_fully_valid():
    rule = HornRule(
        Atom("hasUncle", X, Z), (Atom("hasParent", X, Y), Atom("hasSibling", Y, Z))
    )
    assert check_rule_shape(rule) == (True, True, True)


def test_unsafe_head_variable():
    # r(X,Y) => s(X,Z): Z never appears in the body
    rule = HornRule(Atom("s", X, Z), (Atom("r", X, Y),))
    shape = check_rule_shape(rule)
    assert not shape.safe
    assert not shape.closed  # Z and Y appear once each


def test_open_rule_not_closed():
    rule = HornRule(Atom("r", X, Y), (Atom("q", X, Z),))
    assert not check_rule_shape(rule).closed


def test_shape_check_requires_body():
    with pytest.raises(ValueError):
        check_rule_shape(HornRule(Atom("r", X, Y)))


def test_constants_connect_atoms():
    c = Term.const("paris")
    rule = HornRule(Atom("r", X, c), (Atom("q", X, Y), Atom("s", c, Y)))
    assert check_rule_shape(rule).connected


class TestCanonicalization:
    def test_variable_renaming_collapses_duplicates(self):
        a = HornRule(Atom("r", X, Y), (Atom("q", X, Z), Atom("q", Z, Y)))
        b = HornRule(Atom("r", X, Y), (Atom("q", X, W), Atom("q", W, Y)))
        assert canonicalize(a).key() == canonicalize(b).key()

    def test_body_order_collapses(self):
        a = HornRule(Atom("r", X, Y), (Atom("q", X, Z), Atom("s", Z, Y)))
        b = HornRule(Atom("r", X, Y), (Atom("s", Z, Y), Atom("q", X, Z)))
        assert canonicalize(a).key() == canonicalize(b).key()

    def test_head_variables_named_first(self):
        rule = HornRule(Atom("r", Term.var("A"), Term.var("B")), (Atom("q", Term.var("B"), Term.var("A")),))
        canon = canonicalize(rule)
        assert canon.head.arg1.name == "X"
        assert canon.head.arg2.name == "Y"

    def test_distinct_rules_stay_distinct(self):
        a = HornRule(Atom("r", X, Y), (Atom("q", X, Y),))
        b = HornRule(Atom("r", X, Y), (Atom("q", Y, X),))
        assert canonicalize(a).key() != canonicalize(b).key()

    def test_idempotent(self):
        rule = HornRule(Atom("r", X, Y), (Atom("q", Z, Y), Atom("q", X, Z)))
        once = canonicalize(rule)
        assert canonicalize(once) == once

    @staticmethod
    def _oracle_corpus():
        """Seeded rules with 0-4 body atoms over few predicates (so predicates
        repeat), non-canonical variable names, and constants, some named like
        variables or tags; plus wide rules with 11 and 12 variables."""
        rng = random.Random(20240611)
        names = ["A", "B", "Y", "X", "foo", "V1", "v0", "X2", "S", "q"]
        consts = ["X", "v1", "c:a", "paris", "e10"]

        def term():
            if rng.random() < 0.15:
                return Term.const(rng.choice(consts))
            return Term.var(rng.choice(names[: rng.randint(2, len(names))]))

        rules = []
        for _ in range(2400):
            body = tuple(
                Atom(rng.choice("pqr"), term(), term()) for _ in range(rng.randint(0, 4))
            )
            rules.append(HornRule(Atom(rng.choice("pqr"), term(), term()), body))
        wide = [Term.var(f"w{i}") for i in range(12)]
        rules.append(HornRule(
            Atom("p", wide[0], wide[1]),
            tuple(Atom(rng.choice("pq"), wide[i], wide[i + 1]) for i in range(1, 11)[::2]),
        ))
        rules.append(HornRule(
            Atom("p", wide[11], wide[0]),
            tuple(Atom("q", wide[i], wide[i - 1]) for i in range(11, 0, -2)),
        ))
        return rules

    def test_matches_permutation_oracle(self):
        rules = self._oracle_corpus()
        assert max(len(r.variables()) for r in rules) >= 11
        for rule in rules:
            want = permutation_canonicalize(rule)
            got = canonicalize(rule)
            assert got == want, rule
            assert got.key() == want.key()
            atoms = [(a.predicate, a.arg1, a.arg2) for a in rule.atoms()]
            assert signature_key(signature(atoms)) == want.key()


class TestClassification:
    def test_symmetry(self):
        rule = HornRule(Atom("r", X, Y), (Atom("r", Y, X),))
        assert classify_rule(rule) == "symmetry"

    def test_inversion(self):
        rule = HornRule(Atom("r2", X, Y), (Atom("r1", Y, X),))
        assert classify_rule(rule) == "inversion"

    def test_hierarchy(self):
        rule = HornRule(Atom("r2", X, Y), (Atom("r1", X, Y),))
        assert classify_rule(rule) == "hierarchy"

    def test_composition(self):
        rule = HornRule(Atom("r3", X, Z), (Atom("r1", X, Y), Atom("r2", Y, Z)))
        assert classify_rule(rule) == "composition"

    def test_longer_chain_is_other(self):
        rule = HornRule(
            Atom("r4", X, W),
            (Atom("r1", X, Y), Atom("r2", Y, Z), Atom("r3", Z, W)),
        )
        assert classify_rule(rule) == "other"

    def test_intersection_is_other(self):
        rule = HornRule(Atom("r3", X, Y), (Atom("r1", X, Y), Atom("r2", X, Y)))
        assert classify_rule(rule) == "other"

    def test_triangle_is_other(self):
        rule = HornRule(Atom("r3", Y, Z), (Atom("r1", X, Y), Atom("r2", X, Z)))
        assert classify_rule(rule) == "other"

    def test_every_rule_gets_exactly_one_class(self):
        import itertools

        preds = ["p", "q"]
        vars_ = [X, Y, Z]
        count = 0
        for hp in preds:
            for n_body in (1, 2):
                for body_preds in itertools.product(preds, repeat=n_body):
                    for args in itertools.product(vars_, repeat=2 * n_body):
                        body = tuple(
                            Atom(bp, args[2 * i], args[2 * i + 1])
                            for i, bp in enumerate(body_preds)
                        )
                        rule = HornRule(Atom(hp, X, Y), body)
                        kind = classify_rule(rule)
                        assert kind in ("symmetry", "inversion", "hierarchy", "composition", "other")
                        count += 1
        assert count > 100


def test_json_roundtrip():
    rule = HornRule(
        Atom("r", X, Term.const("paris")), (Atom("q", X, Y), Atom("s", Y, Term.const("paris")))
    )
    assert rule_from_json(rule_to_json(rule)) == rule
