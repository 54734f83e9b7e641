import hashlib
import json
import logging
import random
import re

import pytest

from kgreason.kg import KnowledgeGraph
from kgreason.mining import (
    MinerConfig,
    compute_metrics,
    enumerate_groundings,
    mine,
    refine,
    rule_type_histogram,
    read_rules_jsonl,
    write_rules_jsonl,
    _compile,
    _head_supports,
    _HeadCoverageGate,
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
from oracles import exhaustive_groundings, exhaustive_metrics, permutation_refine

X, Y, Z = Term.var("X"), Term.var("Y"), Term.var("Z")


class TestGroundings:
    def test_toy_single_grounding(self, toy_family, composition_rule):
        # derived by exhaustive join over the 4-triple toy
        result = enumerate_groundings(toy_family, composition_rule)
        assert result == [({"X": "justin", "Z": "jaxon", "Y": "jeremy"}, True)]

    def test_cap_zero(self, toy_family, composition_rule):
        assert enumerate_groundings(toy_family, composition_rule, cap=0) == []

    def test_absent_predicate_gives_empty(self, toy_family):
        rule = HornRule(Atom("hasSibling", X, Y), (Atom("noSuchPred", X, Y),))
        assert enumerate_groundings(toy_family, rule) == []

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
                expected = exhaustive_groundings(g, rule)
                assert got == expected

    def test_cap_is_prefix_of_full_enumeration(self, uncle_world):
        rule = HornRule(
            Atom("hasUncle", X, Z), (Atom("hasParent", X, Y), Atom("hasSibling", Y, Z))
        )
        full = enumerate_groundings(uncle_world, rule)
        capped = enumerate_groundings(uncle_world, rule, cap=3)
        assert capped == full[:3]


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
        rng = random.Random(7)
        rules = [
            HornRule(Atom("p0", X, Z), (Atom("p1", X, Y), Atom("p2", Y, Z))),
            HornRule(Atom("p2", X, Y), (Atom("p2", Y, X),)),
            HornRule(Atom("p1", X, Y), (Atom("p0", X, Y), Atom("p2", X, Y))),
        ]
        for _ in range(20):
            g = random_graph(rng, 10, 3, 60)
            gv = g.handles
            for rule in rules:
                c = _compile(gv, rule)
                supports = _head_supports(gv, g.pair_predicates, c)
                assert supports.get(c.head[0], 0) == compute_metrics(g, rule).support

    def test_matches_exhaustive_oracle_small(self):
        rng = random.Random(3)
        shapes = [
            (Atom("HP", X, Y), (Atom("BP", Y, X),)),
            (Atom("HP", X, Y), (Atom("BP", X, Y),)),
            (Atom("HP", X, Z), (Atom("BP", X, Y), Atom("BQ", Y, Z))),
            (Atom("HP", X, Y), (Atom("BP", X, Z), Atom("BQ", Y, Z))),
            (Atom("HP", X, Y), (Atom("BP", X, X), Atom("BQ", X, Y))),
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


def _all_candidates(g, cfg):
    """Every refine() candidate reachable from the body-less rules, ungated,
    as (signature, canonical rule) pairs."""
    found = {}
    frontier = [HornRule(Atom(p, X, Y)) for p in g.predicates]
    while frontier:
        nxt = []
        for rule in frontier:
            for key, sig in refine(rule, g, cfg):
                if key not in found:
                    found[key] = (sig, rule_from_signature(sig))
                    nxt.append(found[key][1])
        frontier = nxt
    return list(found.values())


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

    def test_gate_matches_exhaustive_head_coverage(self):
        shapes = {"disconnected": 0, "no Y in body": 0, "no X in body": 0, "ghost": 0}
        for seed, n_ents, n_preds, n_triples, max_len, inst in self.CORPUS:
            g = random_graph(random.Random(seed), n_ents, n_preds, n_triples)
            cfg = MinerConfig(max_rule_length=max_len, allow_instantiated_atoms=inst)
            rules = _all_candidates(g, cfg) + [(_signature(r), r) for r in _ghost_rules(g)]
            gates = [_HeadCoverageGate(g, hc) for hc in (0.1, 0.34, 0.5, 1.0)]
            for sig, rule in rules:
                body_vars = {v for a in rule.body for v in a.variables()}
                shapes["disconnected"] += len(rule.body) > 1 and not check_rule_shape(
                    HornRule(rule.body[0], rule.body[1:])
                ).connected
                shapes["no Y in body"] += "Y" not in body_vars
                shapes["no X in body"] += "X" not in body_vars
                shapes["ghost"] += any(
                    t.name == "ghost" for a in rule.body for t in a.args if not t.is_var
                )
                _, hc, _, _ = exhaustive_metrics(g, rule)
                for gate in gates:
                    assert gate(sig, rule.key()) == (hc >= gate.min_head_coverage), (rule, hc)
        assert all(shapes.values()), shapes

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
        ],
    )
    def test_mined_rules_golden_digest(
        self, tmp_path, seed, n_ents, n_preds, n_triples, cfg, digest
    ):
        # digests recorded from the per-head-predicate gate this one replaced
        g = random_graph(random.Random(seed), n_ents, n_preds, n_triples)
        path = tmp_path / "rules.jsonl"
        write_rules_jsonl(mine(g, MinerConfig(**cfg)), path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


class TestRefine:
    def test_candidates_from_empty_body(self, toy_family):
        base = HornRule(Atom("hasSibling", X, Y))
        keys = {k for k, _ in refine(base, toy_family, MinerConfig(max_rule_length=3))}
        assert "hasParent(X,Z) => hasSibling(X,Y)" in keys
        assert "hasParent(X,Y) => hasSibling(X,Y)" in keys

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
        # the gate corpus's parents, refined with and without constants; on
        # the length-4 graphs the parents themselves stay constant-free
        for seed, n_ents, n_preds, n_triples, max_len, _ in TestHeadCoverageGate.CORPUS:
            g = random_graph(random.Random(seed), n_ents, n_preds, n_triples)
            plain = MinerConfig(max_rule_length=max_len)
            consts = MinerConfig(max_rule_length=max_len, allow_instantiated_atoms=True)
            parents = [HornRule(Atom(p, X, Y)) for p in g.predicates]
            parents += [rule for _, rule in _all_candidates(g, consts if max_len == 3 else plain)]
            for cfg in (plain, consts):
                for parent in parents:
                    got = [(key, rule_from_signature(sig)) for key, sig in refine(parent, g, cfg)]
                    want = [(c.key(), c) for c in permutation_refine(parent, g, cfg)]
                    assert got == want, parent


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

    def test_debug_log_one_line_per_length(self, uncle_world, caplog):
        with caplog.at_level(logging.DEBUG, logger="kgreason.mining"):
            mine(uncle_world, MinerConfig(max_rule_length=3))
        counts = [
            tuple(map(int, re.findall(r"(\d+) (?:rules|candidates|enqueued)", r.getMessage())))
            for r in caplog.records
            if r.name == "kgreason.mining"
        ]
        assert len(counts) == 3
        # what one length enqueues is what the next dequeues; the last refines nothing
        assert counts[0][0] == len(uncle_world.predicates)
        assert [c[2] for c in counts[:-1]] == [c[0] for c in counts[1:]]
        assert counts[-1][1:] == (0, 0)

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
