"""Acceptance suite: one test per criterion, each printing a PASS line with
its measured numbers (run with -s to see them live).

Criteria 4 and the Family half of criterion 5 need the public Family triple
file; point FAMILY_KG at it to enable them, otherwise they skip.
"""

import itertools
import json
import os
import random
import time

import pytest

from kgreason.bench import GenConfig, load_bundle, plan_removals, verify_bundle
from kgreason.cli import main
from kgreason.env import EnvConfig, explore, ground
from kgreason.evaluate import compute_report
from kgreason.kg import KnowledgeGraph
from kgreason.mining import MinerConfig, compute_metrics, mine, read_rules_jsonl
from kgreason.rules import Atom, HornRule, Term, canonicalize, check_rule_shape

from conftest import random_graph
from oracles import (
    enumerate_walks,
    exhaustive_body_pairs,
    exhaustive_relation_paths,
    metrics_from_body_pairs,
    naive_report,
)

FAMILY_KG = os.environ.get("FAMILY_KG")
family_needed = pytest.mark.skipif(
    not FAMILY_KG,
    reason="set FAMILY_KG to the Family facts TSV to run the reproduction checks",
)

X, Y, Z = Term.var("X"), Term.var("Y"), Term.var("Z")


def report(name, detail):
    print(f"ACCEPTANCE {name}: PASS ({detail})")


def test_criterion_1_metric_oracle_equivalence():
    rng = random.Random(101)
    pool = [f"ent{i}" for i in range(60)]
    started = time.time()
    checked = 0
    for _ in range(1000):
        n_gold = rng.randint(1, 20)
        n_pred = rng.randint(0, 20)
        answers = rng.sample(pool, n_gold)
        predicted = rng.sample(pool, n_pred)
        hard = rng.choice(answers)
        gold = [{"id": "q0", "answers": answers, "hard_answer": hard}]
        preds = [{"id": "q0", "prediction": predicted}]
        got = compute_report(gold, preds)
        expected = naive_report([set(answers)], [set(predicted)], [hard])
        for key, value in expected.items():
            assert abs(getattr(got, key) - value) <= 1e-12, (key, value)
        checked += 1
    elapsed = time.time() - started
    assert elapsed < 5.0, f"criterion 1 took {elapsed:.2f}s (budget 5s)"
    report("1 metric-oracle-equivalence", f"{checked} cases, {elapsed:.2f}s")


def _all_shape_valid_rules(preds):
    """Canonical connected/closed/safe rules up to 3 atoms over the predicates."""
    pool = {}
    for hp, bp in itertools.product(preds, repeat=2):
        for a1, a2 in itertools.product((X, Y), repeat=2):
            rule = HornRule(Atom(hp, X, Y), (Atom(bp, a1, a2),))
            if check_rule_shape(rule).all_ok():
                c = canonicalize(rule)
                pool[c.key()] = c
    for hp, b1, b2 in itertools.product(preds, repeat=3):
        for args in itertools.product((X, Y, Z), repeat=4):
            rule = HornRule(
                Atom(hp, X, Y), (Atom(b1, args[0], args[1]), Atom(b2, args[2], args[3]))
            )
            if check_rule_shape(rule).all_ok():
                c = canonicalize(rule)
                pool[c.key()] = c
    return list(pool.values())


def _metric_corpus(seed=202, n_graphs=200):
    rng = random.Random(seed)
    for _ in range(n_graphs):
        yield random_graph(
            rng, rng.randint(6, 9), rng.randint(3, 4), rng.randint(20, 80)
        )


def test_criterion_2_rule_metric_oracle_equivalence():
    started = time.time()
    graphs = 0
    evaluations = 0
    rules_cache = {}
    for g in _metric_corpus():
        graphs += 1
        assert len(g) <= 200 and len(g.predicates) <= 8
        key = g.predicates
        if key not in rules_cache:
            rules_cache[key] = _all_shape_valid_rules(key)
        # rules that differ only in the head predicate share one body walk
        body_pairs = {}
        for rule in rules_cache[key]:
            got = compute_metrics(g, rule)
            shape = (rule.body, rule.head.arg1, rule.head.arg2)
            if shape not in body_pairs:
                body_pairs[shape] = exhaustive_body_pairs(g, rule)
            support, hc, conf, pca = metrics_from_body_pairs(g, rule.head, body_pairs[shape])
            assert got.support == support
            assert abs(got.head_coverage - hc) <= 1e-12
            assert abs(got.confidence - conf) <= 1e-12
            assert abs(got.pca_confidence - pca) <= 1e-12
            evaluations += 1
    elapsed = time.time() - started
    assert graphs == 200
    assert elapsed < 120.0, f"criterion 2 took {elapsed:.1f}s (budget 120s)"
    report("2 rule-metric-oracle-equivalence", f"{graphs} graphs, {evaluations} rule evals, {elapsed:.1f}s")


def test_criterion_3_miner_shape_and_threshold_soundness():
    rng = random.Random(303)
    cfg = MinerConfig(
        min_confidence=0.3, min_head_coverage=0.1, pca_threshold=0.4, max_rule_length=3
    )
    violations = 0
    emitted = 0
    for _ in range(60):
        g = random_graph(rng, rng.randint(8, 14), rng.randint(3, 6), rng.randint(30, 120))
        for mr in mine(g, cfg):
            emitted += 1
            shape = check_rule_shape(mr.rule)
            ok = (
                shape.all_ok()
                and mr.metrics.head_coverage >= cfg.min_head_coverage
                and mr.metrics.confidence >= cfg.min_confidence
                and mr.metrics.pca_confidence > cfg.pca_threshold
                and mr.rule.length <= cfg.max_rule_length
            )
            if not ok:
                violations += 1
    assert violations == 0
    assert emitted > 50, "corpus too sparse to be meaningful"
    report("3 miner-soundness", f"{emitted} emitted rules, {violations} violations")


@family_needed
def test_criterion_4_family_rule_reproduction():
    started = time.time()
    g = KnowledgeGraph.load(FAMILY_KG)
    cfg = MinerConfig(
        min_confidence=0.3, min_head_coverage=0.1, pca_threshold=0.4, max_rule_length=3
    )
    mined = mine(g, cfg)
    total = len(mined)
    composition = sum(1 for mr in mined if mr.rule_type == "composition")
    elapsed = time.time() - started
    assert elapsed < 600.0, f"criterion 4 took {elapsed:.0f}s (budget 600s)"
    assert 145 * 0.8 <= total <= 145 * 1.2, f"total {total} outside 145 +/- 20%"
    assert 56 * 0.8 <= composition <= 56 * 1.2, f"composition {composition} outside 56 +/- 20%"
    report("4 family-rule-reproduction", f"total {total}, composition {composition}, {elapsed:.0f}s")


def test_criterion_5_answerability_invariant_toy(tmp_path, uncle_world_file):
    rules_path = tmp_path / "rules.jsonl"
    bundle_dir = tmp_path / "bundle"
    assert main(["mine", "--kg", str(uncle_world_file), "--out", str(rules_path),
                 "--max-len", "3"]) == 0
    assert main(["bench", "--kg", str(uncle_world_file), "--rules", str(rules_path),
                 "--out-dir", str(bundle_dir), "--seed", "5"]) == 0
    result = verify_bundle(bundle_dir)
    assert result["ok"], result["violations"]
    bundle = load_bundle(bundle_dir)
    for q in bundle.questions:
        assert q.removed_triple not in bundle.incomplete
    report(
        "5 answerability-toy",
        f"{result['questions']} questions, {result['removals']} removals, 0 violations",
    )


@family_needed
def test_criterion_5_family_removal_count(tmp_path):
    g = KnowledgeGraph.load(FAMILY_KG)
    cfg = MinerConfig(
        min_confidence=0.3, min_head_coverage=0.1, pca_threshold=0.4, max_rule_length=3
    )
    mined = mine(g, cfg)
    plan = plan_removals(g, mined, GenConfig(seed=0, groundings_per_rule=30))
    removed = len(plan.entries)
    assert 1830 * 0.8 <= removed <= 1830 * 1.2, f"removals {removed} outside 1830 +/- 20%"
    incomplete = g.remove(plan.removed_triples)
    for entry in plan.entries:
        assert all(t in incomplete for t in entry.witness)
    report("5 family-removals", f"{removed} removals within 1830 +/- 20%")


def test_criterion_6_environment_completeness():
    rng = random.Random(606)
    uncapped = EnvConfig(max_relation_paths_per_explore=None, max_groundings_per_path=None)
    started = time.time()
    graphs = 0
    walks_checked = 0
    for _ in range(100):
        g = random_graph(rng, rng.randint(25, 55), rng.randint(3, 8), rng.randint(120, 500))
        assert len(g) <= 500
        graphs += 1
        for e in g.entities[:2]:
            for hops in (1, 2, 3):
                expected_paths = exhaustive_relation_paths(g, e, hops)
                assert set(explore(g, e, hops, uncapped)) == expected_paths
                walks = enumerate_walks(g, e, hops)
                chains, frontier = ground(g, e, explore(g, e, hops, uncapped), uncapped)
                assert set(chains) == set(walks)
                in_chains = {ent for c in chains for t in c for ent in (t[0], t[2])}
                assert set(frontier) == in_chains - {e}
                walks_checked += len(walks)
    elapsed = time.time() - started
    assert elapsed < 120.0, f"criterion 6 took {elapsed:.1f}s (budget 120s)"
    report("6 environment-completeness", f"{graphs} graphs, {walks_checked} walks, {elapsed:.1f}s")


def test_criterion_7_fixture_traces(celebrity_family):
    from kgreason.agent import HeuristicPolicy, run_episode

    paths = explore(celebrity_family, "Justin Bieber", 2, EnvConfig())
    assert set(paths) == {
        ("hasParent",),
        ("hasSibling",),
        ("hasParent", "hasSon"),
        ("hasSibling", "hasSibling"),
        ("hasParent", "hasSpouse"),
    }

    calvados = KnowledgeGraph(
        [
            ("Calvados", "capital", "Caen"),
            ("Caen", "capitalOf", "Calvados"),
            ("France", "contains", "Calvados"),
            ("Calvados", "administrativeParent", "LowerNormandy"),
            ("Calvados", "contains", "Caen"),
        ]
    )
    q1 = {
        "id": "calvados",
        "question": "What is the country of the administrative division Calvados?",
        "topic": "Calvados",
    }
    policy = HeuristicPolicy(
        q1["question"], "Calvados",
        synonyms={"country": ["capital", "capitalOf", "inv_contains"]}, max_hops=3,
    )
    t1 = run_episode(calvados, q1, policy, cfg=EnvConfig(include_inverse=True))
    assert t1.prediction == ["France"]
    assert t1.termination == "synthesized"

    ian = KnowledgeGraph(
        [
            ("Ian Holm", "spouse", "Penelope Wilton"),
            ("Ian Holm", "awardNominee", "Cate Blanchett"),
            ("Cate Blanchett", "typeOfUnion", "Marriage"),
            ("Ian Holm", "awardNominee", "Kate Beckinsale"),
            ("Kate Beckinsale", "typeOfUnion", "Domestic Partnership"),
        ]
    )
    q2 = {"id": "ian", "question": "Who is Ian Holm's spouse?", "topic": "Ian Holm"}
    policy = HeuristicPolicy(q2["question"], "Ian Holm", max_hops=3)
    t2 = run_episode(ian, q2, policy)
    assert t2.prediction == ["Penelope Wilton"]
    assert t2.termination == "synthesized"
    report("7 fixture-traces", "explore set exact; answers [France] and [Penelope Wilton]")


def test_criterion_8_end_to_end_smoke(tmp_path, uncle_world_file):
    started = time.time()
    rules_path = tmp_path / "rules.jsonl"
    bundle_dir = tmp_path / "bundle"
    preds_path = tmp_path / "predictions.jsonl"
    report_path = tmp_path / "report.json"
    synonyms = tmp_path / "synonyms.json"
    synonyms.write_text(json.dumps({"uncle": ["hasParent", "hasSibling"]}))

    assert main(["mine", "--kg", str(uncle_world_file), "--out", str(rules_path),
                 "--min-conf", "0.9", "--max-len", "3"]) == 0
    mined = read_rules_jsonl(rules_path)
    assert len(mined) == 1 and mined[0].rule_type == "composition"

    assert main(["bench", "--kg", str(uncle_world_file), "--rules", str(rules_path),
                 "--out-dir", str(bundle_dir), "--seed", "13",
                 "--groundings-per-rule", "1", "--topic-side", "subject"]) == 0
    bundle = load_bundle(bundle_dir)
    assert len(bundle.questions) == 1  # single-question bundle

    assert main(["run", "--bundle", str(bundle_dir), "--policy", "heuristic",
                 "--split", "test", "--out", str(preds_path),
                 "--synonyms", str(synonyms)]) == 0
    assert main(["eval", "--bundle", str(bundle_dir), "--predictions", str(preds_path),
                 "--split", "test", "--out", str(report_path)]) == 0

    metrics = json.loads(report_path.read_text())["metrics"]
    assert metrics["hhr"] == 1.0, metrics

    # independent oracle on the raw files
    question = bundle.questions[0]
    predicted = json.loads(preds_path.read_text())["prediction"]
    expected = naive_report(
        [{a.lower() for a in question.answers}],
        [{p.lower() for p in predicted}],
        [question.hard_answer.lower()],
    )
    assert expected["hhr"] == 1.0
    assert metrics["hits_any"] == expected["hits_any"]

    elapsed = time.time() - started
    assert elapsed < 30.0, f"criterion 8 took {elapsed:.1f}s (budget 30s)"
    report("8 end-to-end-smoke", f"HHR 1.0 on the single-question bundle, {elapsed:.1f}s")


def test_criterion_9_out_of_scope_documented():
    # model-dependent baseline scores cannot be reproduced at desk scale; the
    # deterministic criteria above stand in for them
    report(
        "9 out-of-scope",
        "proprietary-model baseline scores are not reproduced; criteria 1-8 substitute",
    )
