import functools
import hashlib
import json
import logging
import random
import re
from dataclasses import replace

import pytest

from kgreason import mining
from kgreason.kg import KnowledgeGraph
from kgreason.mining import (
    MinerConfig,
    compute_metrics,
    enumerate_groundings,
    head_binding_check,
    mine,
    refine,
    rule_type_histogram,
    read_rules_jsonl,
    write_rules_jsonl,
    _compile,
    _make_plan,
    _project,
)
from kgreason.rules import (
    Atom,
    HornRule,
    Term,
    canonicalize,
    check_rule_shape,
    rule_from_signature,
    signature,
)

from conftest import random_graph
from oracles import (
    closed_signature,
    exhaustive_groundings,
    exhaustive_holding_heads,
    exhaustive_metrics,
    permutation_refine,
    reference_mine,
    walk_exists,
    walk_groundings,
    walk_project,
)

X, Y, Z = Term.var("X"), Term.var("Y"), Term.var("Z")


class TestGroundings:
    def test_toy_single_grounding(self, toy_family, composition_rule):
        # derived by exhaustive join over the 4-triple toy
        result = enumerate_groundings(toy_family, composition_rule)
        assert list(result) == [{"X": "justin", "Z": "jaxon", "Y": "jeremy"}]

    def test_absent_predicate_gives_empty(self, toy_family):
        rule = HornRule(Atom("hasSibling", X, Y), (Atom("noSuchPred", X, Y),))
        assert list(enumerate_groundings(toy_family, rule)) == []

    def test_matches_exhaustive_oracle(self):
        rng = random.Random(42)
        rules = [
            HornRule(Atom("p0", X, Z), (Atom("p1", X, Y), Atom("p1", Y, Z))),
            HornRule(Atom("p1", X, Y), (Atom("p0", Y, X),)),
            HornRule(Atom("p2", X, Y), (Atom("p0", X, Y), Atom("p1", X, Y))),
        ]
        for _ in range(10):
            g = random_graph(rng, 8, 3, 40)
            for rule in rules:
                got = enumerate_groundings(g, rule)
                expected = [sigma for sigma, present in exhaustive_groundings(g, rule) if present]
                assert list(got) == expected

    def test_reads_like_a_list(self):
        g = random_graph(random.Random(7), 6, 2, 24)
        rule = HornRule(Atom("p0", X, Y), (Atom("p1", X, Z), Atom("p0", Z, Y)))
        got = enumerate_groundings(g, rule)
        items = list(got)
        assert len(got) == len(items) > 3
        assert [got[i] for i in range(-len(got), len(got))] == items + items
        with pytest.raises(IndexError):
            got[len(got)]
        # each read builds a new dict: a caller's edits stay its own
        edited = got[0]
        edited["X"] = "edited"
        assert got[0] == items[0] != edited


class TestMetrics:
    def test_toy_composition(self, toy_family, composition_rule):
        m = compute_metrics(toy_family, composition_rule)
        assert m.support == 1
        assert m.head_coverage == 0.5
        assert m.confidence == 1.0
        assert m.pca_confidence == 1.0

    def test_body_never_grounds(self, toy_family):
        rule = HornRule(Atom("hasSibling", X, Y), (Atom("hasSpouse", X, Y),))
        m = compute_metrics(toy_family, rule)
        assert m.support == 0
        assert m.confidence == 0.0
        assert m.pca_confidence == 0.0

    def test_extra_son_halves_confidence(self, toy_family, composition_rule):
        g = KnowledgeGraph(list(toy_family.triples()) + [("jeremy", "hasSon", "erin")])
        m = compute_metrics(g, composition_rule)
        assert m.support == 1
        assert m.confidence == 0.5
        # justin has a known hasSibling fact, so the pair still counts
        assert m.pca_confidence == 0.5

    def test_support_fast_path_agrees(self):
        # refine's count query gates a rule by its exact support: a head
        # coverage threshold of support / heads keeps it, (support + 1) / heads
        # drops it
        rng = random.Random(7)
        rules = [
            HornRule(Atom("p0", X, Z), (Atom("p1", X, Y), Atom("p2", Y, Z))),
            HornRule(Atom("p2", X, Y), (Atom("p2", Y, X),)),
            HornRule(Atom("p1", X, Y), (Atom("p0", X, Y), Atom("p2", X, Y))),
        ]
        checked = 0
        for _ in range(20):
            g = random_graph(rng, 10, 3, 60)
            for rule in rules:
                parent = HornRule(rule.head, rule.body[:-1])
                support = compute_metrics(g, rule).support
                heads = sum(p == rule.head.predicate for _, p, _ in g.triples())
                for needed in (support, support + 1):
                    if 0 < needed <= heads:
                        cfg = MinerConfig(min_head_coverage=needed / heads)
                        keys = [k for k, _ in refine(parent, g, cfg)]
                        assert (canonicalize(rule).key() in keys) == (needed == support), rule
                        checked += 1
        assert checked > 100

    def test_matches_exhaustive_oracle_small(self):
        rng = random.Random(3)
        e1, ghost = Term.const("e1"), Term.const("ghost")
        shapes = [
            (Atom("HP", X, Y), (Atom("BP", Y, X),)),
            (Atom("HP", X, Y), (Atom("BP", X, Y),)),
            (Atom("HP", X, Z), (Atom("BP", X, Y), Atom("BQ", Y, Z))),
            (Atom("HP", X, Y), (Atom("BP", X, Z), Atom("BQ", Y, Z))),
            (Atom("HP", X, Y), (Atom("BP", X, X), Atom("BQ", X, Y))),
            # heads the miner never builds: a constant, a constant absent
            # from the graph, a repeated variable
            (Atom("HP", X, e1), (Atom("BP", X, Y), Atom("BQ", Y, Z))),
            (Atom("HP", e1, Y), (Atom("BP", Y, Z),)),
            (Atom("HP", X, ghost), (Atom("BP", X, Y),)),
            (Atom("HP", ghost, Y), (Atom("BP", X, Y), Atom("BQ", X, Z))),
            (Atom("HP", X, X), (Atom("BP", X, Y), Atom("BQ", Y, X))),
            (Atom("HP", X, X), (Atom("BP", Y, X),)),
        ]
        for _ in range(15):
            g = random_graph(rng, 7, 3, 35)
            preds = g.predicates
            for head, body in shapes:
                rule = HornRule(
                    Atom(rng.choice(preds), head.arg1, head.arg2),
                    tuple(Atom(rng.choice(preds), a.arg1, a.arg2) for a in body),
                )
                m = compute_metrics(g, rule)
                support, hc, conf, pca = exhaustive_metrics(g, rule)
                assert m.support == support
                assert abs(m.head_coverage - hc) <= 1e-12
                assert abs(m.confidence - conf) <= 1e-12
                assert abs(m.pca_confidence - pca) <= 1e-12

    def test_body_less_rules_match_exhaustive_oracle(self):
        # the mined metrics of each p(X,Y) seed rule decide whether it is refined
        rng = random.Random(19)
        cases = 0
        for _ in range(20):
            g = random_graph(rng, 6, 3, 14)
            consts = [Term.const(e) for e in g.entities] + [Term.const("ghost")]
            for p in g.predicates:
                heads = [(X, Y), (X, X)]
                heads += [(X, c) for c in consts] + [(c, Y) for c in consts]
                heads += [(rng.choice(consts), rng.choice(consts)) for _ in range(4)]
                for a1, a2 in heads:
                    rule = HornRule(Atom(p, a1, a2))
                    m = compute_metrics(g, rule)
                    assert (
                        m.support, m.head_coverage, m.confidence, m.pca_confidence
                    ) == pytest.approx(exhaustive_metrics(g, rule), abs=1e-12), rule
                    cases += 1
        assert cases > 1000

    def test_invariant_confidence_le_pca(self):
        rng = random.Random(11)
        for _ in range(20):
            g = random_graph(rng, 9, 4, 50)
            rule = HornRule(
                Atom("p0", X, Z), (Atom("p1", X, Y), Atom("p2", Y, Z))
            )
            m = compute_metrics(g, rule)
            if m.confidence > 0 and m.pca_confidence > 0:
                assert m.confidence <= m.pca_confidence <= 1.0


def _rules(refined):
    return [rule_from_signature(sig) for _, sig in refined]


def _signature(rule):
    return signature([(a.predicate, a.arg1, a.arg2) for a in rule.atoms()])


@functools.cache
def _corpus_graph(seed, n_ents, n_preds, n_triples):
    return random_graph(random.Random(seed), n_ents, n_preds, n_triples)


@functools.cache
def _all_candidates(entry, inst) -> tuple:
    """Every candidate the refinement operators reach from the body-less
    rules of a corpus entry's graph, ungated, with instantiated atoms iff
    inst, as (signature, canonical rule) pairs: the permutation oracle's,
    built once per session."""
    g = _corpus_graph(*entry[:4])
    cfg = MinerConfig(max_rule_length=entry[4], allow_instantiated_atoms=inst)
    found = {}
    frontier = [HornRule(Atom(p, X, Y)) for p in g.predicates]
    while frontier:
        nxt = []
        for rule in frontier:
            for cand in permutation_refine(rule, g, cfg):
                if cand.key() not in found:
                    found[cand.key()] = (_signature(cand), cand)
                    nxt.append(cand)
        frontier = nxt
    return tuple(found.values())


@functools.cache
def _head_coverage(entry, sig) -> float:
    """The exhaustive oracle's head coverage of the canonical candidate sig
    on a corpus entry's graph, computed once per session."""
    return exhaustive_metrics(_corpus_graph(*entry[:4]), rule_from_signature(sig))[1]


def _ghost_rules(g):
    """Candidates with a constant that is absent from the graph."""
    ghost = Term.const("ghost")
    p, q = g.predicates[0], g.predicates[-1]
    e = Term.const(g.entities[0])
    bodies = [
        (Atom(q, X, ghost),),
        (Atom(p, X, Y), Atom(q, ghost, Y)),
        (Atom(p, X, Z), Atom(q, Y, ghost)),
        (Atom(p, e, Y), Atom(q, X, ghost)),
    ]
    return [canonicalize(HornRule(Atom(h, X, Y), b)) for h in g.predicates for b in bodies]


class TestHeadCoverageGate:
    # (seed, entities, predicates, triples, max rule length, instantiated atoms)
    CORPUS = [
        (1, 6, 2, 16, 3, False),
        (2, 6, 3, 18, 3, False),
        (3, 7, 2, 22, 3, False),
        (4, 4, 2, 8, 3, True),
        (5, 3, 2, 7, 4, False),
        (6, 3, 2, 6, 4, False),
    ]

    @staticmethod
    @functools.cache
    def corpus() -> tuple:
        """(graph, ((signature, rule), ...)) per corpus entry: every ungated
        candidate, then the rules with an absent constant; built once per
        session."""
        corpus = []
        for entry in TestHeadCoverageGate.CORPUS:
            g = _corpus_graph(*entry[:4])
            ghosts = tuple((_signature(r), r) for r in _ghost_rules(g))
            corpus.append((g, _all_candidates(entry, entry[5]) + ghosts))
        return tuple(corpus)

    def test_gate_matches_exhaustive_head_coverage(self):
        # refine against the permutation oracle's candidates filtered two
        # ways: closed candidates only at the cap, and head coverage by the
        # exhaustive oracle, from the lowest gate (a support of one) up;
        # parents with and without constants, each refined with and without
        # them, the body-less and absent-constant rules too
        shapes = {"disconnected": 0, "no Y in body": 0, "no X in body": 0, "ghost": 0}
        outcomes = dict.fromkeys(
            ["open at the cap", "gated out", "kept", "open, kept below the cap"], 0
        )
        for entry in self.CORPUS:
            g, max_len = _corpus_graph(*entry[:4]), entry[4]
            plain = MinerConfig(max_rule_length=max_len)
            consts = replace(plain, allow_instantiated_atoms=True)
            parents = [HornRule(Atom(p, X, Y)) for p in g.predicates] + _ghost_rules(g)
            parents += [rule for _, rule in _all_candidates(entry, max_len == 3)]
            hc = {}
            for cfg in (plain, consts):
                for parent in parents:
                    full = [(c.key(), _signature(c), c) for c in permutation_refine(parent, g, cfg)]
                    closed = full
                    if parent.length + 1 == max_len:
                        closed = [c for c in full if closed_signature(c[1])]
                    outcomes["open at the cap"] += len(full) - len(closed)
                    for key, sig, rule in closed:
                        if key not in hc:
                            hc[key] = _head_coverage(entry, sig)
                            body_vars = {v for a in rule.body for v in a.variables()}
                            shapes["disconnected"] += len(rule.body) > 1 and not check_rule_shape(
                                HornRule(rule.body[0], rule.body[1:])
                            ).connected
                            shapes["no Y in body"] += "Y" not in body_vars
                            shapes["no X in body"] += "X" not in body_vars
                            shapes["ghost"] += any(
                                t.name == "ghost" for a in rule.body for t in a.args if not t.is_var
                            )
                    for threshold in (1e-9, 0.1, 0.34, 0.5, 1.0):
                        want = [c for c in closed if hc[c[0]] >= threshold]
                        gated = replace(cfg, min_head_coverage=threshold)
                        got = [
                            (key, sig, rule_from_signature(sig))
                            for key, sig in refine(parent, g, gated)
                        ]
                        assert got == want, (parent, threshold)
                        outcomes["gated out"] += len(closed) - len(want)
                        outcomes["kept"] += len(want)
                        if parent.length + 1 < max_len:
                            outcomes["open, kept below the cap"] += sum(
                                not closed_signature(sig) for _, sig, _ in want
                            )
        assert all(shapes.values()), shapes
        assert all(outcomes.values()), outcomes

    @pytest.mark.parametrize(
        "seed, n_ents, n_preds, n_triples, cfg, digest",
        [
            (
                2024, 10, 3, 60,
                dict(max_rule_length=3, min_head_coverage=0.05, min_confidence=0.1,
                     pca_threshold=0.2),
                "fb67dad8848aa4898b5c97777680756428b8a5be8c6cf2210dfc733cb039dea7",
            ),
            (
                7, 8, 3, 30,
                dict(max_rule_length=3, allow_instantiated_atoms=True, min_confidence=0.1,
                     pca_threshold=0.2),
                "ea00704d8fe1d3b788dcc7f3a313caa3f749c370c1ab7698dadbc4bcdfaf54f8",
            ),
            (
                12, 10, 3, 40,
                dict(max_rule_length=4, min_head_coverage=0.05, min_confidence=0.1,
                     pca_threshold=0.2),
                "4668812ae27f3dff773a8c818abcb47626838cf3ff7db05a176ca0084c7e63cf",
            ),
            (
                16, 5, 2, 10,
                dict(max_rule_length=4, allow_instantiated_atoms=True, min_confidence=0.1,
                     pca_threshold=0.2),
                "c63d74d746249f6f183c28d8fa8a53d7d53e542c3caab6e774eaec4c752cad68",
            ),
        ],
    )
    def test_mined_rules_golden_digest(
        self, tmp_path, seed, n_ents, n_preds, n_triples, cfg, digest
    ):
        # the length-3 digests were recorded from the per-head-predicate gate
        # this one replaced; the length-4 ones (565 and 2,384 rules, most of
        # them at the cap) before refine stopped building open candidates there
        g = random_graph(random.Random(seed), n_ents, n_preds, n_triples)
        path = tmp_path / "rules.jsonl"
        write_rules_jsonl(mine(g, MinerConfig(**cfg)), path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


def _connects(body, v, w):
    """Whether variables v and w are joined through the body's atoms."""
    reach = {v}
    while True:
        grown = reach.union(*(a.variables() for a in body if reach & set(a.variables())))
        if grown == reach:
            return w in reach
        reach = grown


class TestJoinConsumers:
    """The join consumers the gate test does not reach, on the gate corpus:
    open bodies, disconnected bodies, bodies lacking X or Y, constants
    absent from the graph."""

    def test_body_holds_matches_exhaustive_oracle(self):
        for g, rules in TestHeadCoverageGate.corpus():
            ents = g.entities
            rules = [rule for _, rule in rules]
            ghost = Term.const("ghost")
            # heads the miner never builds, a repeated variable, a constant
            # and a constant absent from the graph, over every fourth body
            rules += [
                HornRule(Atom(r.head.predicate, *args), r.body)
                for r in rules[::4]
                for args in ((X, X), (X, Term.const(ents[0])), (X, ghost), (ghost, Y))
            ]
            for rule in rules:
                p = rule.head.predicate
                absent = next((s, p, o) for s in ents for o in ents if (s, p, o) not in g)
                # triples naming entities absent from the graph: the absent
                # head constant, and other ids that must not match it
                facts = [t for t in g.triples() if t[1] == p]
                s0, _, o0 = facts[0]
                unknown = [(s0, p, "ghost"), (s0, p, "other"), ("ghost", p, o0), ("nobody", p, o0)]
                holds, oracle = head_binding_check(g, rule), exhaustive_holding_heads(g, rule)
                for triple in facts + [absent] + unknown:
                    assert holds(triple) == (triple in oracle), (rule, triple)

    def test_metrics_match_exhaustive_oracle(self):
        shapes = dict.fromkeys(
            ["joined, PCA 1", "joined, PCA < 1", "separate, PCA 1", "separate, PCA < 1",
             "no grounding", "no X or Y"], 0
        )
        for g, rules in TestHeadCoverageGate.corpus():
            for _, rule in rules:
                m = compute_metrics(g, rule)
                support, hc, conf, pca = exhaustive_metrics(g, rule)
                if {"X", "Y"} <= {v for a in rule.body for v in a.variables()}:
                    assert m.support == support, rule
                    assert abs(m.head_coverage - hc) <= 1e-12, rule
                    assert abs(m.confidence - conf) <= 1e-12, rule
                    assert abs(m.pca_confidence - pca) <= 1e-12, rule
                    if not walk_groundings(g, rule):
                        shapes["no grounding"] += 1
                    else:
                        joined = "joined" if _connects(rule.body, "X", "Y") else "separate"
                        shapes[f"{joined}, PCA {'< 1' if pca < 1.0 else '1'}"] += 1
                else:
                    # the miner's metrics count head pairs projected from body
                    # groundings, and a body lacking X or Y projects none:
                    # every metric 0, PCA confidence included, where the
                    # oracle lets the missing variable range over every entity
                    shapes["no X or Y"] += 1
                    assert m == mining.RuleMetrics(0, 0.0, 0.0, 0.0), rule
        assert all(shapes.values()), shapes


class TestProjectionEngine:
    """The set-at-a-time _project and enumerate_groundings against the
    walk-based versions they replaced, on the gate corpus plus a reflexive
    variant of every fourth rule."""

    @staticmethod
    def rules():
        for g, rules in TestHeadCoverageGate.corpus():
            rules = [rule for _, rule in rules]
            rules += [
                HornRule(r.head, (Atom(r.body[0].predicate, r.body[0].arg1, r.body[0].arg1),)
                         + r.body[1:])
                for r in rules[::4]
                if r.body and r.body[0].arg1.is_var
            ]
            yield g, rules

    def test_project_matches_walk_oracle(self):
        shapes = dict.fromkeys(
            ["reflexive", "constant", "absent constant", "disconnected", "no X", "no Y", "holds",
             "holds nowhere"], 0
        )
        for g, rules in self.rules():
            for rule in rules:
                atoms = rule.body
                consts = [t.name for a in atoms for t in a.args if not t.is_var]
                body_vars = {v for a in atoms for v in a.variables()}
                shapes["reflexive"] += any(a.arg1 == a.arg2 for a in atoms)
                shapes["constant"] += any(c in g.eid for c in consts)
                shapes["absent constant"] += any(c not in g.eid for c in consts)
                shapes["disconnected"] += len(atoms) > 1 and not check_rule_shape(
                    HornRule(atoms[0], atoms[1:])
                ).connected
                shapes["no X"] += "X" not in body_vars
                shapes["no Y"] += "Y" not in body_vars
                c = _compile(g, rule)
                plan = _make_plan(c.body)
                _, hx, hy = c.head
                # a constant in the key, as in a head p(X, c); -2 is absent
                projections = (hx, hy), (hy, hx), (hx,), (hy,), (hx, (False, 0)), ((False, -2), hy)
                for proj in projections:
                    assert _project(g, plan, proj) == walk_project(
                        g, plan, c.nvars, proj
                    ), (rule, proj)
                holds = walk_exists(g, plan, c.nvars)
                assert _project(g, plan, ()) == ({()} if holds else set()), rule
                shapes["holds" if holds else "holds nowhere"] += 1
        assert all(shapes.values()), shapes

    def test_enumerate_groundings_matches_walk_oracle(self):
        for g, rules in self.rules():
            for rule in rules:
                expected = [sigma for sigma, present in walk_groundings(g, rule) if present]
                assert list(enumerate_groundings(g, rule)) == expected, rule


class TestJoinsBuildOnlyWhatTheyRead:
    """The joins read the graph's own indices, each built on first read:
    grounding enumeration and the head-binding check build only what
    _project reads, never the edge lists out and inc, which only the
    miner's count query reads."""

    def test_groundings_and_head_binding_build_no_edge_lists(self, uncle_world):
        g = uncle_world
        triples = list(g.triples())
        before = set(vars(g))
        mary, ghost = Term.const("mary"), Term.const("ghost")
        uncle = Atom("hasUncle", X, Y)
        rules = [
            HornRule(uncle, (Atom("hasParent", X, Z), Atom("hasSibling", Z, Y))),
            HornRule(uncle, (Atom("hasParent", X, mary), Atom("hasSibling", mary, Y))),
            HornRule(uncle, (Atom("hasParent", X, Y),)),
            HornRule(uncle, (Atom("hasSibling", Z, Y), Atom("hasParent", X, ghost))),
            HornRule(Atom("hasSibling", mary, Y), (Atom("hasUncle", Z, Y),)),
        ]
        for rule in rules:
            enumerate_groundings(g, rule)
            holds = head_binding_check(g, rule)
            for t in triples + [("mary", rule.head.predicate, "nobody")]:
                holds(t)
        built = set(vars(g)) - before
        assert built and built <= {"tri", "sp", "op", "byp"}, built

    def test_mine_builds_the_edge_lists(self, uncle_world):
        mine(uncle_world, MinerConfig(max_rule_length=3))
        assert {"out", "inc"} <= set(vars(uncle_world))


class TestRefine:
    def test_candidates_from_empty_body(self, toy_family):
        base = HornRule(Atom("hasSibling", X, Y))
        keys = {k for k, _ in refine(base, toy_family, MinerConfig(max_rule_length=3))}
        assert "hasParent(X,Z) => hasSibling(X,Y)" in keys
        assert "hasSibling(Y,X) => hasSibling(X,Y)" in keys
        # a closing atom that no head fact supports fails the gate
        assert "hasParent(X,Y) => hasSibling(X,Y)" not in keys

    def test_at_max_length_no_candidates(self, toy_family, composition_rule):
        cfg = MinerConfig(max_rule_length=3)
        assert refine(composition_rule, toy_family, cfg) == []

    def test_variable_renamings_collapse(self):
        g = KnowledgeGraph([("a", "p", "b"), ("b", "q", "c")])
        base = HornRule(Atom("p", X, Y))
        cands = refine(base, g, MinerConfig(max_rule_length=4))
        keys = [k for k, _ in cands]
        assert len(keys) == len(set(keys))
        # a dangling atom q(Y,Z) and q(Y,W) describe the same candidate
        assert sum(1 for k in keys if k == "q(Y,Z) => p(X,Y)") == 1

    def test_trivial_self_rule_excluded(self):
        g = KnowledgeGraph([("a", "p", "b")])
        base = HornRule(Atom("p", X, Y))
        keys = {k for k, _ in refine(base, g, MinerConfig(max_rule_length=3))}
        assert "p(X,Y) => p(X,Y)" not in keys

    def test_only_graph_predicates_used(self, toy_family):
        base = HornRule(Atom("hasSibling", X, Y))
        for _, sig in refine(base, toy_family, MinerConfig(max_rule_length=3)):
            cand = rule_from_signature(sig)
            assert all(a.predicate in toy_family.predicates for a in cand.body)

    def test_instantiated_operator_off_by_default(self, toy_family):
        base = HornRule(Atom("hasSibling", X, Y))
        cands = _rules(refine(base, toy_family, MinerConfig(max_rule_length=3)))
        assert all(t.is_var for c in cands for a in c.body for t in a.args)
        with_consts = _rules(refine(
            base, toy_family, MinerConfig(max_rule_length=3, allow_instantiated_atoms=True)
        ))
        assert any(
            not t.is_var for c in with_consts for a in c.body for t in a.args
        )

    def test_matches_permutation_oracle(self):
        # the gate corpus's parents, refined with and without constants, at
        # the lowest gate (a support of one): every (key, signature) decodes to
        # the permutation oracle's canonical candidate, in the oracle's order,
        # and those refine leaves out are the unsupported or open-at-the-cap ones
        for entry in TestHeadCoverageGate.CORPUS:
            g, max_len = _corpus_graph(*entry[:4]), entry[4]
            plain = MinerConfig(max_rule_length=max_len, min_head_coverage=1e-9)
            consts = replace(plain, allow_instantiated_atoms=True)
            parents = [HornRule(Atom(p, X, Y)) for p in g.predicates]
            parents += [rule for _, rule in _all_candidates(entry, max_len == 3)]
            for cfg in (plain, consts):
                for parent in parents:
                    got = [(key, sig, rule_from_signature(sig)) for key, sig in refine(parent, g, cfg)]
                    want = [(c.key(), _signature(c), c) for c in permutation_refine(parent, g, cfg)]
                    kept = set(got)
                    assert [w for w in want if w in kept] == got, parent
                    at_cap = parent.length + 1 == max_len
                    for key, sig, rule in want:
                        if (key, sig, rule) not in kept and not (at_cap and not closed_signature(sig)):
                            assert _head_coverage(entry, sig) == 0, (parent, key)

    def test_closed_at_cap_matches_closed_filter(self):
        # the same parents as above, with the gate at its lowest (a support
        # of one): refine then only drops the open candidates at the cap and
        # those no head fact supports, and leaves shorter open ones alone
        dropped = kept = open_kept = 0
        for entry in TestHeadCoverageGate.CORPUS:
            g, max_len = _corpus_graph(*entry[:4]), entry[4]
            plain = MinerConfig(max_rule_length=max_len, min_head_coverage=1e-9)
            consts = replace(plain, allow_instantiated_atoms=True)
            parents = [HornRule(Atom(p, X, Y)) for p in g.predicates]
            parents += [rule for _, rule in _all_candidates(entry, max_len == 3)]
            for cfg in (plain, consts):
                for parent in parents:
                    full = [(c.key(), _signature(c)) for c in permutation_refine(parent, g, cfg)]
                    want = [c for c in full if _head_coverage(entry, c[1]) > 0]
                    if parent.length + 1 == max_len:
                        closed = [c for c in want if closed_signature(c[1])]
                        dropped += len(want) - len(closed)
                        kept += len(closed)
                        want = closed
                    else:
                        open_kept += sum(not closed_signature(sig) for _, sig in want)
                    assert refine(parent, g, cfg) == want, parent
        assert dropped and kept and open_kept

    def test_closed_candidates_pass_the_shape_check(self):
        # mine() tests a dequeued rule for closedness alone: refinement keeps
        # rules connected, and with a p(X,Y) head a closed rule is safe
        closed = opened = 0
        for entry in TestHeadCoverageGate.CORPUS:
            g, max_len = _corpus_graph(*entry[:4]), entry[4]
            plain = MinerConfig(max_rule_length=max_len, min_head_coverage=1e-9)
            consts = replace(plain, allow_instantiated_atoms=True)
            parents = [HornRule(Atom(p, X, Y)) for p in g.predicates]
            parents += [rule for _, rule in _all_candidates(entry, max_len == 3)]
            for cfg in (plain, consts):
                for parent in parents:
                    for rule in _rules(refine(parent, g, cfg)):
                        shape = check_rule_shape(rule)
                        assert mining._closed(rule) == shape.closed, rule
                        if shape.closed:
                            assert shape.all_ok(), rule
                            closed += 1
                        else:
                            opened += 1
        assert closed and opened



class TestMine:
    def test_toy_includes_composition(self, toy_family):
        cfg = MinerConfig(min_confidence=0.3, min_head_coverage=0.1, pca_threshold=0.4, max_rule_length=3)
        mined = mine(toy_family, cfg)
        keys = {mr.rule.key() for mr in mined}
        # canonical form of hasParent(X,Y) & hasSon(Y,Z) => hasSibling(X,Z)
        assert "hasParent(X,Z) & hasSon(Z,Y) => hasSibling(X,Y)" in keys

    def test_symmetric_pair_graph(self):
        g = KnowledgeGraph([("a", "p", "b"), ("b", "p", "a")])
        mined = mine(g, MinerConfig(max_rule_length=3))
        assert len(mined) == 1
        mr = mined[0]
        assert mr.rule.key() == "p(Y,X) => p(X,Y)"
        assert mr.metrics.confidence == 1.0
        assert mr.rule_type == "symmetry"

    def test_empty_graph_rejected(self):
        with pytest.raises(ValueError, match="empty graph"):
            mine(KnowledgeGraph([]), MinerConfig())

    def test_deterministic_byte_for_byte(self, uncle_world, tmp_path):
        cfg = MinerConfig(max_rule_length=3)
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        write_rules_jsonl(mine(uncle_world, cfg), a)
        write_rules_jsonl(mine(uncle_world, cfg), b)
        assert a.read_bytes() == b.read_bytes()

    def test_emitted_rules_satisfy_thresholds_and_shape(self):
        rng = random.Random(5)
        cfg = MinerConfig(
            min_confidence=0.3, min_head_coverage=0.1, pca_threshold=0.4, max_rule_length=3
        )
        for _ in range(15):
            g = random_graph(rng, 10, 4, 70)
            for mr in mine(g, cfg):
                assert check_rule_shape(mr.rule) == (True, True, True)
                m = mr.metrics
                assert m.head_coverage >= cfg.min_head_coverage
                assert m.confidence >= cfg.min_confidence
                assert m.pca_confidence > cfg.pca_threshold
                assert mr.rule.length <= cfg.max_rule_length

    def test_refinement_never_increases_support(self):
        rng = random.Random(9)
        cfg = MinerConfig(max_rule_length=3)
        for _ in range(8):
            g = random_graph(rng, 8, 3, 45)
            base = HornRule(Atom(g.predicates[0], X, Y), (Atom(g.predicates[-1], X, Y),))
            parent = compute_metrics(g, base)
            for _, sig in refine(base, g, cfg):
                child = rule_from_signature(sig)
                assert compute_metrics(g, child).support <= parent.support

    def test_debug_log_one_line_per_head(self, uncle_world, caplog, monkeypatch):
        # every rule a head's search enqueues, and its seed p(X, Y), has its
        # metrics computed once; every candidate refine returns is built
        spied = dict.fromkeys(["metrics", "counted", "built"], 0)
        real_metrics, real_refine = mining.compute_metrics, mining.refine

        def metrics_spy(g, rule):
            spied["metrics"] += 1
            return real_metrics(g, rule)

        def refine_spy(rule, g, cfg):
            found = real_refine(rule, g, cfg)
            spied["counted"] += found.counted
            spied["built"] += len(found)
            return found

        monkeypatch.setattr(mining, "compute_metrics", metrics_spy)
        monkeypatch.setattr(mining, "refine", refine_spy)
        with caplog.at_level(logging.DEBUG, logger="kgreason.mining"):
            mine(uncle_world, MinerConfig(max_rule_length=3))
        lines = [r.getMessage() for r in caplog.records if r.name == "kgreason.mining"]
        heads = [re.match(r"head (\S+): ", line)[1] for line in lines]
        assert heads == list(uncle_world.predicates)
        counts = [
            tuple(map(int, re.findall(r"(\d+) (?:refinements|candidates|enqueued)", line)))
            for line in lines
        ]
        assert all(len(c) == 3 for c in counts)
        assert sum(c[0] for c in counts) == spied["counted"]
        assert sum(c[1] for c in counts) == spied["built"] > 0
        assert sum(c[2] + 1 for c in counts) == spied["metrics"]

    def test_matches_the_global_queue_oracle(self):
        # the per-head searches, concatenated and sorted, against the one
        # queue all heads shared: criterion 3's corpus, then the gate corpus
        # at each entry's length, with and without constants
        rng = random.Random(303)
        cases = [
            (random_graph(rng, rng.randint(8, 14), rng.randint(3, 6), rng.randint(30, 120)),
             MinerConfig(max_rule_length=3))
            for _ in range(60)
        ]
        cases += [
            (_corpus_graph(*entry[:4]),
             MinerConfig(max_rule_length=entry[4], allow_instantiated_atoms=entry[5]))
            for entry in TestHeadCoverageGate.CORPUS
        ]
        emitted = 0
        for g, cfg in cases:
            got = mine(g, cfg)
            assert got == reference_mine(g, cfg), (g.predicates, cfg)
            emitted += len(got)
        assert emitted > 50

    def test_no_open_rule_enqueued_at_the_cap(self, uncle_world, monkeypatch):
        checked = []

        real = mining._closed

        def spy(rule):
            checked.append(rule)
            return real(rule)

        monkeypatch.setattr(mining, "_closed", spy)
        g = random_graph(random.Random(5), 10, 4, 70)
        for kg in (uncle_world, g):
            mine(kg, MinerConfig(max_rule_length=3))
        assert any(r.length == 3 for r in checked)
        assert any(not check_rule_shape(r).closed for r in checked if r.length < 3)
        assert all(check_rule_shape(r).closed for r in checked if r.length == 3)

    def test_refines_an_open_rule_iff_its_pca_is_below_one(self, monkeypatch):
        # on the gate corpus: every open rule mine() dequeues below the cap
        # is refined iff its body lacks X or Y (PCA confidence 0 in the
        # miner) or the exhaustive oracle's PCA confidence is below 1
        refined, enqueued = set(), {}
        real = mining.refine

        def spy(rule, g, cfg):
            refined.add(rule.key())
            found = real(rule, g, cfg)
            enqueued.update(found)
            return found

        monkeypatch.setattr(mining, "refine", spy)
        left = dict.fromkeys(["joined", "separate"], 0)
        checked = 0
        for entry in TestHeadCoverageGate.CORPUS:
            g, max_len = _corpus_graph(*entry[:4]), entry[4]
            refined.clear()
            enqueued.clear()
            mine(g, MinerConfig(max_rule_length=max_len, allow_instantiated_atoms=entry[5]))
            for key, sig in enqueued.items():
                rule = rule_from_signature(sig)
                if rule.length == max_len or closed_signature(sig):
                    continue
                body_vars = {v for a in rule.body for v in a.variables()}
                below = not {"X", "Y"} <= body_vars or exhaustive_metrics(g, rule)[3] < 1.0
                assert (key in refined) == below, rule
                checked += 1
                if not below:
                    left["joined" if _connects(rule.body, "X", "Y") else "separate"] += 1
        assert checked and all(left.values()), (checked, left)

    def test_histogram_partitions_output(self, uncle_world):
        mined = mine(uncle_world, MinerConfig(max_rule_length=3))
        hist = rule_type_histogram(mined)
        assert hist["total"] == len(mined)
        assert sum(v for k, v in hist.items() if k != "total") == len(mined)

    def test_rules_jsonl_roundtrip(self, uncle_world, tmp_path):
        mined = mine(uncle_world, MinerConfig(max_rule_length=3))
        path = tmp_path / "rules.jsonl"
        write_rules_jsonl(mined, path)
        again = read_rules_jsonl(path)
        assert again == mined
        row = json.loads(path.read_text().splitlines()[0])
        assert set(row) == {"id", "head", "body", "metrics", "type"}
        assert set(row["metrics"]) == {"support", "hc", "conf", "pca_conf"}
