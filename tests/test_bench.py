import json
import logging
import math
import random
import re
import weakref
from pathlib import Path

import pytest

from kgreason import bench
from kgreason.bench import (
    GenConfig,
    QAInstance,
    RemovalEntry,
    RemovalPlan,
    build_bundle,
    check_answerability,
    downsample,
    draft_questions,
    generate_question,
    generate_questions,
    load_bundle,
    plan_removals,
    split_dataset,
    template_question,
    verify_bundle,
)
from kgreason.kg import STRING, KnowledgeGraph, read_triples
from kgreason.mining import (
    MinedRule,
    MinerConfig,
    RuleMetrics,
    enumerate_groundings,
    mine,
    write_rules_jsonl,
)
from kgreason.rules import Atom, HornRule, Term

import test_mining
from conftest import UNCLE_WORLD
from oracles import reference_plan_removals

X, Y, Z = Term.var("X"), Term.var("Y"), Term.var("Z")


def mined(rule, rule_id="r0000", pca=1.0):
    return MinedRule(rule_id, rule, RuleMetrics(1, 1.0, 1.0, pca), "composition")


class TestPlanRemovals:
    def test_toy_removes_head_and_keeps_witness(self, toy_family, composition_rule):
        plan = plan_removals(toy_family, [mined(composition_rule)], GenConfig(seed=1))
        assert len(plan.entries) == 1
        entry = plan.entries[0]
        assert entry.removed == ("justin", "hasSibling", "jaxon")
        assert set(entry.witness) == {
            ("justin", "hasParent", "jeremy"),
            ("jeremy", "hasSon", "jaxon"),
        }
        incomplete = toy_family.remove(plan.removed_triples)
        assert all(t in incomplete for t in entry.witness)

    def test_head_that_is_witness_of_earlier_entry_is_skipped(self):
        # rule A removes t2 with witness {t1}; rule B would remove t1 (a used
        # witness) and must be skipped
        g = KnowledgeGraph([("a", "p", "b"), ("a", "q", "b"), ("c", "r", "d"), ("c", "q", "d")])
        rule_a = HornRule(Atom("p", X, Y), (Atom("q", X, Y),))
        rule_b = HornRule(Atom("q", X, Y), (Atom("r", X, Y),))
        plan = plan_removals(
            g,
            [mined(rule_a, "rA", pca=1.0), mined(rule_b, "rB", pca=0.9)],
            GenConfig(seed=0),
        )
        removed = plan.removed_triples
        assert ("a", "p", "b") in removed
        assert ("a", "q", "b") not in removed  # witness of the rule A entry
        assert ("c", "q", "d") in removed      # rule B's other grounding is fine

    def test_own_witness_never_destroyed(self, uncle_world):
        rules = mine(uncle_world, MinerConfig(max_rule_length=3))
        plan = plan_removals(uncle_world, rules, GenConfig(seed=3))
        incomplete = uncle_world.remove(plan.removed_triples)
        for entry in plan.entries:
            assert entry.removed not in incomplete
            assert all(t in incomplete for t in entry.witness)
            assert entry.removed not in entry.witness

    def test_removed_triples_pairwise_distinct(self, uncle_world):
        rules = mine(uncle_world, MinerConfig(max_rule_length=3))
        plan = plan_removals(uncle_world, rules, GenConfig(seed=5))
        removed = [e.removed for e in plan.entries]
        assert len(removed) == len(set(removed))

    def test_groundings_cap(self, uncle_world):
        rules = mine(
            uncle_world,
            MinerConfig(min_confidence=0.9, max_rule_length=3),
        )
        plan1 = plan_removals(uncle_world, rules, GenConfig(seed=1, groundings_per_rule=1))
        assert len(plan1.entries) == 1
        plan30 = plan_removals(uncle_world, rules, GenConfig(seed=1, groundings_per_rule=30))
        assert len(plan30.entries) > 1

    def test_deterministic(self, uncle_world):
        rules = mine(uncle_world, MinerConfig(max_rule_length=3))
        p1 = plan_removals(uncle_world, rules, GenConfig(seed=9))
        p2 = plan_removals(uncle_world, rules, GenConfig(seed=9))
        assert p1.entries == p2.entries

    def test_debug_line_counts_add_up(self, uncle_world, caplog):
        rules = mine(uncle_world, MinerConfig(max_rule_length=3))
        with caplog.at_level(logging.DEBUG, logger="kgreason.bench"):
            plan = plan_removals(uncle_world, rules, GenConfig(seed=3))
        lines = [r.getMessage() for r in caplog.records]
        lines = [m for m in lines if m.startswith("removal plan")]
        assert len(lines) == 1
        n_rules, supported, sampled, removals, *skips = map(int, re.findall(r"\d+", lines[0]))
        assert len(skips) == 4 and sum(skips) > 0
        assert n_rules == len(rules)
        assert removals == len(plan.entries) == sum(plan.per_rule.values())
        assert sampled == removals + sum(skips) <= supported


class TestRemovalPlanOracle:
    """plan_removals, which samples support groundings and decodes the drawn
    ones, against the reference that sampled the walk oracle's head-present
    body groundings."""

    KS = (1, 3, 30)

    @staticmethod
    def corpus():
        g = KnowledgeGraph(UNCLE_WORLD)
        yield g, mine(g, MinerConfig(max_rule_length=3))
        # reflexive atoms, constants, absent constants, bodies without X or Y;
        # the PCA values interleave rules of every shape in the plan order
        for g, rules in test_mining.TestProjectionEngine.rules():
            yield g, [
                mined(rule, f"r{i:04d}", pca=(i * 7 % 10) / 10) for i, rule in enumerate(rules)
            ]

    def test_plans_match_reference(self):
        sizes = set()
        for g, rules in self.corpus():
            sizes.update(len(enumerate_groundings(g, mr.rule)) for mr in rules)
            for seed in range(3):
                for k in self.KS:
                    cfg = GenConfig(seed=seed, groundings_per_rule=k)
                    got, want = plan_removals(g, rules, cfg), reference_plan_removals(g, rules, cfg)
                    assert got.entries == want.entries, (seed, k)
                    assert got.per_rule == want.per_rule, (seed, k)
        # random.sample copies a population of at most 21 items (for k <= 5)
        # and indexes a larger one directly: both ways, and short populations
        for k in (k for k in self.KS if k <= 5):
            assert any(n < k for n in sizes), k
            assert any(k <= n <= 21 for n in sizes), k
            assert any(n > 21 for n in sizes), k


class TestQuestionGeneration:
    def test_template_mentions_topic_and_predicate_not_answer(self):
        q, topic, prov = generate_question(("139", "brotherOf", "205"), "subject")
        assert topic == "139"
        assert "139" in q and "brotherOf" in q
        assert "205" not in q
        assert prov["backend"] == "template"

    def test_template_direction_annotated(self):
        q_subj, _, _ = generate_question(("s", "likes", "o"), "subject")
        q_obj, _, _ = generate_question(("s", "likes", "o"), "object")
        assert q_subj != q_obj
        assert "[topic is subject]" in q_subj
        assert "[topic is object]" in q_obj

    def test_object_side_topic(self):
        q, topic, _ = generate_question(("alice", "wife_of", "carol"), "object")
        assert topic == "carol"
        assert "carol" in q
        assert "alice" not in q

    def test_template_text_shape(self):
        assert template_question("brotherOf", "139", "topic-is-subject") == (
            "Which entity has relation brotherOf with 139? [topic is subject]"
        )


def drafted(g, removed, topic_side):
    """The one question drafted from a plan that removes `removed`."""
    plan = RemovalPlan([RemovalEntry("r0000", {}, removed, ())], {"r0000": 1})
    [q] = draft_questions(g, plan, GenConfig(topic_side=topic_side))
    return q


class TestAnswerCompletion:
    def test_multiple_answers_with_hard(self):
        g = KnowledgeGraph(
            [
                ("139", "brotherOf", "205"),
                ("139", "brotherOf", "138"),
                ("139", "brotherOf", "2973"),
                ("139", "brotherOf", "2974"),
            ]
        )
        q = drafted(g, ("139", "brotherOf", "205"), "subject")
        assert set(q.answers) == {"205", "138", "2973", "2974"}
        assert q.hard_answer == "205"
        assert list(q.answers) == sorted(q.answers)

    def test_singleton(self):
        g = KnowledgeGraph([("t", "p", "h")])
        q = drafted(g, ("t", "p", "h"), "subject")
        assert q.answers == ("h",)
        assert q.hard_answer == "h"

    def test_object_direction(self):
        g = KnowledgeGraph([("a", "p", "t"), ("b", "p", "t")])
        q = drafted(g, ("a", "p", "t"), "object")
        assert (q.topic, q.direction) == ("t", "topic-is-object")
        assert set(q.answers) == {"a", "b"}
        assert q.hard_answer == "a"

    def test_currency_style_singleton(self):
        # anonymized-index ids; the removed fact is the only budget-currency
        # edge, so the answer set collapses to the hard answer
        g = KnowledgeGraph(
            [
                ("5297", "filmEstimatedBudgetCurrency", "1109"),
                ("5297", "filmCountry", "2896"),
                ("2896", "locationContains", "9397"),
                ("9397", "statisticalRegionGdpNominalCurrency", "1109"),
            ]
        )
        q = drafted(g, ("5297", "filmEstimatedBudgetCurrency", "1109"), "subject")
        assert q.answers == ("1109",)
        assert q.hard_answer == "1109"


def make_questions(counts, n_start=0):
    """counts: {hard_answer: how many questions}"""
    qs = []
    i = n_start
    for hard, k in counts.items():
        for _ in range(k):
            qs.append(
                QAInstance(
                    id=f"q{i:05d}",
                    question=f"who relates to {i}?",
                    topic=f"t{i}",
                    direction="topic-is-subject",
                    predicate="p",
                    answers=(hard,),
                    hard_answer=hard,
                    removed_triple=(f"t{i}", "p", hard),
                    rule_id="r0000",
                )
            )
            i += 1
    return qs


class TestDownsample:
    def test_tau_one_is_identity(self):
        qs = make_questions({"a1": 30, "a2": 5})
        assert downsample(qs, 1.0, seed=0) == qs

    def test_exact_cap(self):
        qs = make_questions({"big": 30, **{f"s{i}": 1 for i in range(70)}})
        assert len(qs) == 100
        out = downsample(qs, 0.1, seed=1)
        big = [q for q in out if q.hard_answer == "big"]
        assert len(big) == 10

    def test_histogram_never_grows_and_classes_survive(self):
        rng = random.Random(4)
        for _ in range(20):
            counts = {f"a{i}": rng.randint(1, 15) for i in range(rng.randint(2, 8))}
            qs = make_questions(counts)
            tau = rng.choice([0.05, 0.1, 0.3, 1.0])
            out = downsample(qs, tau, seed=7)
            hist_before, hist_after = {}, {}
            for q in qs:
                hist_before[q.hard_answer] = hist_before.get(q.hard_answer, 0) + 1
            for q in out:
                hist_after[q.hard_answer] = hist_after.get(q.hard_answer, 0) + 1
            for a, before in hist_before.items():
                after = hist_after.get(a, 0)
                assert 1 <= after <= before
                limit = tau * len(qs)
                if before > limit:
                    assert after == max(1, math.floor(limit))

    def test_order_preserved_and_deterministic(self):
        qs = make_questions({"a": 20, "b": 3})
        out1 = downsample(qs, 0.2, seed=5)
        out2 = downsample(qs, 0.2, seed=5)
        assert out1 == out2
        ids = [q.id for q in out1]
        assert ids == sorted(ids)

    def test_bad_tau(self):
        with pytest.raises(ValueError):
            downsample(make_questions({"a": 3}), 0.0, seed=0)


class TestSplit:
    def test_ten_questions(self):
        qs = make_questions({f"a{i}": 1 for i in range(10)})
        out = split_dataset(qs, seed=0)
        counts = {}
        for q in out:
            counts[q.split] = counts.get(q.split, 0) + 1
        assert counts == {"train": 8, "val": 1, "test": 1}

    def test_floor_sizes_remainder_to_train(self):
        qs = make_questions({f"a{i}": 1 for i in range(2165)})
        out = split_dataset(qs, seed=1)
        counts = {}
        for q in out:
            counts[q.split] = counts.get(q.split, 0) + 1
        assert counts["val"] == 216
        assert counts["test"] == 216
        assert counts["train"] == 2165 - 432

    def test_partition(self):
        qs = make_questions({f"a{i}": 2 for i in range(20)})
        out = split_dataset(qs, seed=2)
        assert len(out) == len(qs)
        assert {q.id for q in out} == {q.id for q in qs}
        assert all(q.split in ("train", "val", "test") for q in out)

    def test_too_few_questions_rejected(self):
        with pytest.raises(ValueError, match="at least 10"):
            split_dataset(make_questions({"a": 9}), seed=0)

    def test_seeded_shuffle_deterministic(self):
        qs = make_questions({f"a{i}": 1 for i in range(50)})
        a = [q.split for q in split_dataset(qs, seed=3)]
        b = [q.split for q in split_dataset(qs, seed=3)]
        assert a == b


class TestBundle:
    def build(self, tmp_path, kg_file, **cfg_kwargs):
        tmp_path.mkdir(parents=True, exist_ok=True)
        g = KnowledgeGraph.load(kg_file)
        rules = mine(g, MinerConfig(min_confidence=0.3, max_rule_length=3))
        rules_path = tmp_path / "rules.jsonl"
        write_rules_jsonl(rules, rules_path)
        out = tmp_path / "bundle"
        cfg = GenConfig(seed=11, **cfg_kwargs)
        manifest = build_bundle(kg_file, rules_path, out, cfg)
        return out, manifest

    def test_bundle_files_and_counts(self, tmp_path, uncle_world_file):
        out, manifest = self.build(tmp_path, uncle_world_file)
        for name in (
            "complete.tsv",
            "incomplete.tsv",
            "removals.jsonl",
            "questions.jsonl",
            "rules.jsonl",
            "manifest.json",
        ):
            assert (out / name).exists()
        c = manifest["counts"]
        assert c["incomplete_triples"] == c["complete_triples"] - c["removals"]
        assert c["questions_final"] >= 1

    def test_verify_bundle_passes(self, tmp_path, uncle_world_file):
        out, _ = self.build(tmp_path, uncle_world_file)
        result = verify_bundle(out)
        assert result["ok"], result["violations"]

    def test_verify_bundle_reports_a_lost_removal(self, tmp_path, uncle_world_file):
        out, _ = self.build(tmp_path, uncle_world_file)
        path = out / "removals.jsonl"
        lines = path.read_text().splitlines(keepends=True)
        path.write_text("".join(lines[1:]))
        result = verify_bundle(out)
        assert result["removals"] == len(lines) - 1
        assert [v for v in result["violations"] if v.startswith("size mismatch")]
        assert not result["ok"]

    def test_verify_bundle_loads_no_complete_graph(self, tmp_path, uncle_world_file, monkeypatch):
        out, _ = self.build(tmp_path, uncle_world_file)
        loaded = []
        real = KnowledgeGraph.load.__func__

        def spy(cls, path):
            loaded.append(Path(path).name)
            return real(cls, path)

        monkeypatch.setattr(KnowledgeGraph, "load", classmethod(spy))
        assert verify_bundle(out)["ok"]
        assert loaded == ["incomplete.tsv"]

    def test_verify_bundle_reads_complete_tsv_as_load_does(self, tmp_path, uncle_world_file):
        out, _ = self.build(tmp_path, uncle_world_file)
        path = out / "complete.tsv"
        lines = path.read_text().splitlines(keepends=True)
        # a blank line is skipped and a duplicate collapses, as in KnowledgeGraph.load
        path.write_text("".join([lines[0], "\n", *lines, lines[-1]]))
        assert verify_bundle(out)["ok"]
        path.write_text("".join([*lines[:2], "a\tb\n", *lines[2:]]))
        with pytest.raises(ValueError, match=r"complete.tsv: line 3: expected 3 tab-separated fields"):
            verify_bundle(out)
        path.write_text("")
        with pytest.raises(ValueError, match=r"complete.tsv: empty graph"):
            verify_bundle(out)

    def test_answerability_invariant_per_question(self, tmp_path, uncle_world_file):
        out, _ = self.build(tmp_path, uncle_world_file)
        bundle = load_bundle(out)
        rows = [(q.id, q.removed_triple, q.rule_id) for q in bundle.questions]
        assert check_answerability(bundle.incomplete, rows, bundle.rules) == []
        for q in bundle.questions:
            assert q.removed_triple not in bundle.incomplete
            assert q.hard_answer in q.answers
            assert all(
                a in bundle.complete.entities for a in (q.topic, *q.answers)
            )

    def test_corrupted_questions_report_their_violations(self, tmp_path, uncle_world_file):
        # every question comes from one rule, so the check compiled for it
        # meets corrupted questions between intact ones
        out, _ = self.build(tmp_path, uncle_world_file)
        path = out / "questions.jsonl"
        rows = [json.loads(line) for line in path.read_text().splitlines()]
        assert len(rows) >= 5 and len({row["rule_id"] for row in rows}) == 1
        still_present = next(load_bundle(out).incomplete.triples())
        s, p, o = rows[1]["removed_triple"]
        rows[1]["removed_triple"] = [s, p, "nobody"]
        rows[2]["rule_id"] = "r9999"
        rows[3]["removed_triple"] = list(still_present)
        path.write_text("".join(json.dumps(row) + "\n" for row in rows))
        assert verify_bundle(out)["violations"] == [
            f"{rows[1]['id']}: no surviving body witness for {(s, p, 'nobody')}",
            f"{rows[2]['id']}: unknown rule id r9999",
            f"{rows[3]['id']}: removed triple still present",
            # and none of the three is the removal of a row of removals.jsonl
            f"{rows[1]['id']}: removal of {(s, p, 'nobody')} by {rows[1]['rule_id']}"
            " is not in removals.jsonl",
            f"{rows[2]['id']}: removal of {tuple(rows[2]['removed_triple'])} by r9999"
            " is not in removals.jsonl",
            f"{rows[3]['id']}: removal of {still_present} by {rows[3]['rule_id']}"
            " is not in removals.jsonl",
        ]

    def test_verify_bundle_ties_each_question_to_its_own_removal(self, tmp_path, uncle_world_file):
        # a repeated question id, a question whose removal row is gone, and a
        # second question on a removal another question already stands for
        out, _ = self.build(tmp_path, uncle_world_file)
        path = out / "questions.jsonl"
        rows = [json.loads(line) for line in path.read_text().splitlines()]
        assert len(rows) >= 4
        removals = out / "removals.jsonl"
        lost = tuple(rows[3]["removed_triple"])
        removals.write_text("".join(
            line for line in removals.read_text().splitlines(keepends=True)
            if tuple(json.loads(line)["removed"]) != lost
        ))
        rows[1]["id"] = rows[0]["id"]
        rows.append({**rows[2], "id": "q99999"})
        path.write_text("".join(json.dumps(row) + "\n" for row in rows))
        *violations, size = verify_bundle(out)["violations"]
        assert violations == [
            f"{rows[0]['id']}: duplicate question id",
            f"{rows[3]['id']}: removal of {lost} by {rows[3]['rule_id']} is not in removals.jsonl",
            f"q99999: removal of {tuple(rows[2]['removed_triple'])} by {rows[2]['rule_id']}"
            " backs another question",
        ]
        assert size.startswith("size mismatch")

    def test_question_fields_schema(self, tmp_path, uncle_world_file):
        out, _ = self.build(tmp_path, uncle_world_file)
        rows = [
            json.loads(line)
            for line in (out / "questions.jsonl").read_text().splitlines()
        ]
        for row in rows:
            assert set(row) == {
                "id", "question", "topic", "direction", "predicate", "answers",
                "hard_answer", "removed_triple", "rule_id", "split", "provenance",
            }
            assert row["direction"] in ("topic-is-subject", "topic-is-object")

    def test_record_formats_are_pinned(self, tmp_path, uncle_world_file):
        # the records are the benchmark a bundle hands out: their keys, JSON
        # types and the manifest's config stay as they are
        out, _ = self.build(tmp_path, uncle_world_file)

        def triple(value):
            return isinstance(value, list) and len(value) == 3 and all(isinstance(x, str) for x in value)

        lines = (out / "questions.jsonl").read_text().splitlines()
        assert len(lines) >= 5
        for line in lines:
            row = json.loads(line)
            assert {k: type(v) for k, v in row.items()} == {
                "id": str, "question": str, "topic": str, "direction": str, "predicate": str,
                "answers": list, "hard_answer": str, "removed_triple": list, "rule_id": str,
                "split": str, "provenance": dict,
            }
            assert row["answers"] and all(isinstance(a, str) for a in row["answers"])
            assert triple(row["removed_triple"])
            assert row["provenance"] == {
                "backend": "template", "prompt_hash": None, "retries": 0, "fallback": False,
            }
            # a round trip through QAInstance writes the line back byte for byte
            again = QAInstance.from_json(row).to_json()
            assert json.dumps(again, sort_keys=True) == line
            assert json.loads(json.dumps(again)) == row
        for line in (out / "removals.jsonl").read_text().splitlines():
            row = json.loads(line)
            assert {k: type(v) for k, v in row.items()} == {
                "rule_id": str, "grounding": dict, "removed": list, "witness": list,
            }
            assert all(isinstance(k, str) and isinstance(v, str) for k, v in row["grounding"].items())
            assert triple(row["removed"]) and row["witness"] and all(map(triple, row["witness"]))
        config = json.loads((out / "manifest.json").read_text())["config"]
        assert config == {
            "anonymize_seed": None, "groundings_per_rule": 30, "max_inflight": 4,
            "question_backend": "template", "seed": 11, "split_ratio": [0.8, 0.1, 0.1],
            "tau": 0.05, "topic_side": "random",
        }

    @pytest.mark.parametrize(
        "name, field, value, violation",
        [
            ("questions.jsonl", "removed_triple", 5, "{id}: removed_triple 5 is not three strings"),
            ("questions.jsonl", "removed_triple", ["a", "b"],
             "{id}: removed_triple ['a', 'b'] is not three strings"),
            ("questions.jsonl", "rule_id", 7, "{id}: rule_id 7 is not a string"),
            ("removals.jsonl", "removed", [["a"], "b", "c"],
             "removals.jsonl row 2: removed [['a'], 'b', 'c'] is not three strings"),
            ("removals.jsonl", "rule_id", ["r0000"],
             "removals.jsonl row 2: rule_id ['r0000'] is not a string"),
        ],
        ids=["question-triple-int", "question-triple-short", "question-rule-id",
             "removal-triple-nested", "removal-rule-id"],
    )
    def test_verify_bundle_reports_a_field_of_the_wrong_type(
        self, tmp_path, uncle_world_file, name, field, value, violation
    ):
        out, _ = self.build(tmp_path, uncle_world_file)
        path = out / name
        rows = [json.loads(line) for line in path.read_text().splitlines()]
        rows[1][field] = value
        path.write_text("".join(json.dumps(row) + "\n" for row in rows))
        result = verify_bundle(out)
        assert not result["ok"]
        assert violation.format(id=rows[1].get("id")) in result["violations"]

    def test_rerun_is_byte_identical(self, tmp_path, uncle_world_file):
        out1, _ = self.build(tmp_path / "one", uncle_world_file)
        out2, _ = self.build(tmp_path / "two", uncle_world_file)
        for name in ("complete.tsv", "incomplete.tsv", "removals.jsonl", "questions.jsonl"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_anonymized_bundle(self, tmp_path, uncle_world_file):
        out, manifest = self.build(tmp_path, uncle_world_file, anonymize_seed=4)
        bundle = load_bundle(out)
        assert (out / "anonymization_map.json").exists()
        for e in bundle.complete.entities:
            assert e.isdigit()
        result = verify_bundle(out)
        assert result["ok"], result["violations"]
        for q in bundle.questions:
            assert q.topic in bundle.complete.entities

    def test_anonymized_incomplete_graph_is_the_plain_one_renamed(self, tmp_path, uncle_world_file):
        plain, _ = self.build(tmp_path / "plain", uncle_world_file)
        anon, _ = self.build(tmp_path / "anon", uncle_world_file, anonymize_seed=4)
        index = {e: v["index"] for e, v in json.loads((anon / "anonymization_map.json").read_text()).items()}

        def renamed(name):
            return {(index[s], p, index[o]) for s, p, o in read_triples(plain / name)}

        incomplete = renamed("incomplete.tsv")
        assert incomplete < renamed("complete.tsv")  # the plan removed some triples
        assert set(read_triples(anon / "incomplete.tsv")) == incomplete

    def test_failed_check_writes_nothing(self, tmp_path, uncle_world_file, monkeypatch):
        # the check fails, or question generation fails once complete.tsv,
        # removals.jsonl and the map are in the temp directory: either way
        # the old bundle stays as it was, no bundle appears where there was
        # none, and no temp directory is left beside them
        old, _ = self.build(tmp_path / "old", uncle_world_file, anonymize_seed=4)
        rules = tmp_path / "old" / "rules.jsonl"
        before = {p.name: p.read_bytes() for p in old.iterdir()}
        (tmp_path / "fresh").mkdir()
        listings = {root: sorted(root.iterdir()) for root in (tmp_path / "old", tmp_path / "fresh")}
        written = []

        def generation_fails(*args):
            written.append(sorted(p.name for p in tmp_path.glob("*/.bundle.*.tmp/*")))
            raise RuntimeError("endpoint gone")

        failures = [
            ("check_answerability", lambda *args: ["q0: no witness"], "answerability check failed"),
            ("generate_questions", generation_fails, "endpoint gone"),
        ]
        for attr, fake, message in failures:
            with monkeypatch.context() as m:
                m.setattr(bench, attr, fake)
                for root, listing in listings.items():
                    with pytest.raises((ValueError, RuntimeError), match=message):
                        build_bundle(uncle_world_file, rules, root / "bundle", GenConfig(anonymize_seed=5))
                    assert sorted(root.iterdir()) == listing
        assert written == [["anonymization_map.json", "complete.tsv", "removals.jsonl"]] * 2
        assert not (tmp_path / "fresh" / "bundle").exists()
        assert {p.name: p.read_bytes() for p in old.iterdir()} == before

    @pytest.mark.parametrize("anonymize_seed", [None, 4])
    def test_check_runs_with_no_complete_graph_alive(
        self, tmp_path, uncle_world_file, monkeypatch, anonymize_seed
    ):
        # the graph that removals are planned on, the (anonymized) one that
        # answer sets are read from, and the removal entries the questions
        # are drafted from are all gone by the time the check builds the
        # incomplete graph's indices
        refs, alive = [], []
        real_plan, real_draft = bench.plan_removals, bench.draft_questions
        real_check = bench.check_answerability

        def plan(g, *args):
            refs.append(weakref.ref(g))
            return real_plan(g, *args)

        def draft(g, removals, *args):
            refs.extend([weakref.ref(g), weakref.ref(removals.entries[0])])
            return real_draft(g, removals, *args)

        def check(*args):
            alive.append([ref() is not None for ref in refs])
            return real_check(*args)

        monkeypatch.setattr(bench, "plan_removals", plan)
        monkeypatch.setattr(bench, "draft_questions", draft)
        monkeypatch.setattr(bench, "check_answerability", check)
        out, _ = self.build(tmp_path, uncle_world_file, anonymize_seed=anonymize_seed)
        assert alive == [[False, False, False]]
        assert verify_bundle(out)["ok"]

    def test_question_rows_read_only_the_named_fields(self, tmp_path, uncle_world_file):
        out, _ = self.build(tmp_path, uncle_world_file)
        bundle = load_bundle(out)
        assert bundle.question_rows("all", {"id": STRING, "topic": STRING}) == [
            {"id": q.id, "topic": q.topic} for q in bundle.questions
        ]
        for split in ("train", "val", "test"):
            assert [row["id"] for row in bundle.question_rows(split, {"id": STRING})] == [
                q.id for q in bundle.questions if q.split == split
            ]
        # a row with no split is in no split, as QAInstance.from_json reads it
        path = out / "questions.jsonl"
        rows = [json.loads(line) for line in path.read_text().splitlines()]
        for row in rows:
            del row["split"]
        path.write_text("".join(json.dumps(row) + "\n" for row in rows))
        bundle = load_bundle(out)
        assert {q.split for q in bundle.questions} == {""}
        assert bundle.question_rows("test", {"id": STRING}) == []
        assert len(bundle.question_rows("all", {"id": STRING})) == len(rows)
        path.unlink()
        with pytest.raises(ValueError, match="bundle is missing questions.jsonl"):
            load_bundle(out)

    def test_rebuild_without_seed_drops_stale_map(self, tmp_path, uncle_world_file):
        out, _ = self.build(tmp_path, uncle_world_file, anonymize_seed=4)
        assert (out / "anonymization_map.json").exists()
        out, _ = self.build(tmp_path, uncle_world_file)
        assert not (out / "anonymization_map.json").exists()
        assert verify_bundle(out)["ok"]

    def test_failed_write_keeps_previous_bundle(self, tmp_path, uncle_world_file, monkeypatch):
        # the rebuild has no map to write, so a bundle written in place would
        # lose its map and every data file before the rules fail
        old, _ = self.build(tmp_path, uncle_world_file, anonymize_seed=4)
        before = {p.name: p.read_bytes() for p in old.iterdir()}
        siblings = sorted(tmp_path.iterdir())

        def boom(mined_rules, path):
            with open(path, "w", encoding="utf-8") as fh:
                fh.write("{\n")
            raise OSError("disk full")

        monkeypatch.setattr(bench, "write_rules_jsonl", boom)
        with pytest.raises(OSError, match="disk full"):
            self.build(tmp_path, uncle_world_file)
        assert {p.name: p.read_bytes() for p in old.iterdir()} == before
        assert sorted(tmp_path.iterdir()) == siblings

    def test_anonymized_bundle_maps_rule_constants(self, tmp_path):
        # sibling(X,Y) & gender(Y,'male') => brother(X,Y) on ten families of two
        triples = []
        for f in range(10):
            a, b = f"p{2 * f}", f"p{2 * f + 1}"
            triples += [(a, "sibling", b), (b, "sibling", a)]
            for person, gender in ((a, "male"), (b, "female" if f % 2 else "male")):
                triples.append((person, "gender", gender))
            for x, y in ((a, b), (b, a)):
                if (y, "gender", "male") in triples:
                    triples.append((x, "brother", y))
        kg_path = tmp_path / "kg.tsv"
        KnowledgeGraph(triples).save(kg_path)
        rule = HornRule(
            Atom("brother", X, Y),
            (Atom("sibling", X, Y), Atom("gender", Y, Term.const("male"))),
        )
        rules_path = tmp_path / "rules.jsonl"
        write_rules_jsonl([mined(rule)], rules_path)
        out = tmp_path / "bundle"
        build_bundle(kg_path, rules_path, out, GenConfig(seed=1, tau=1.0, anonymize_seed=3))
        result = verify_bundle(out)
        assert result["ok"], result["violations"]
        bundle = load_bundle(out)
        assert bundle.questions
        constants = {
            t.name for mr in bundle.rules for a in mr.rule.atoms() for t in a.args if not t.is_var
        }
        assert constants and constants <= set(bundle.complete.entities)

    def test_topic_side_subject_forced(self, tmp_path, uncle_world_file):
        out, _ = self.build(tmp_path, uncle_world_file, topic_side="subject")
        bundle = load_bundle(out)
        assert all(q.direction == "topic-is-subject" for q in bundle.questions)

    def test_small_bundle_all_test_split(self, tmp_path, uncle_world_file):
        g = KnowledgeGraph.load(uncle_world_file)
        rules = mine(g, MinerConfig(min_confidence=0.9, max_rule_length=3))
        rules_path = tmp_path / "rules.jsonl"
        write_rules_jsonl(rules, rules_path)
        out = tmp_path / "bundle"
        manifest = build_bundle(
            uncle_world_file, rules_path, out,
            GenConfig(seed=1, groundings_per_rule=1, topic_side="subject"),
        )
        assert manifest["counts"]["questions_final"] == 1
        bundle = load_bundle(out)
        assert bundle.questions[0].split == "test"


def test_generate_questions_direction_coin_is_per_triple(uncle_world):
    rules = mine(uncle_world, MinerConfig(min_confidence=0.9, max_rule_length=3))
    cfg = GenConfig(seed=2)
    plan = plan_removals(uncle_world, rules, cfg)
    q1 = generate_questions(draft_questions(uncle_world, plan, cfg), cfg)
    q2 = generate_questions(draft_questions(uncle_world, plan, cfg), cfg)
    assert [q.direction for q in q1] == [q.direction for q in q2]
    assert {q.direction for q in q1} <= {"topic-is-subject", "topic-is-object"}
