import json
import random

import pytest

from kgreason.kg import KnowledgeGraph, write_anonymization_map

from conftest import random_graph


def write_tsv(path, rows):
    with open(path, "w", encoding="utf-8") as fh:
        for r in rows:
            fh.write("\t".join(r) + "\n")
    return path


class TestLoad:
    def test_duplicates_collapse(self, tmp_path):
        path = write_tsv(tmp_path / "g.tsv", [("a", "p", "b"), ("a", "p", "b")])
        g = KnowledgeGraph.load(path)
        assert len(g) == 1
        assert g.duplicates_collapsed == 1

    def test_three_distinct_triples(self, tmp_path):
        path = write_tsv(tmp_path / "g.tsv", [("a", "p", "b"), ("b", "p", "c"), ("c", "q", "a")])
        g = KnowledgeGraph.load(path)
        assert len(g) == 3
        assert ("a", "p", "b") in g
        assert ("a", "p", "c") not in g

    def test_line_order_irrelevant(self, tmp_path):
        rows = [("a", "p", "b"), ("b", "p", "c"), ("c", "q", "a")]
        g1 = KnowledgeGraph.load(write_tsv(tmp_path / "g1.tsv", rows))
        g2 = KnowledgeGraph.load(write_tsv(tmp_path / "g2.tsv", rows[::-1]))
        assert g1 == g2

    def test_malformed_line_reports_lineno(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("a\tp\tb\nbroken line\n")
        with pytest.raises(ValueError, match="line 2"):
            KnowledgeGraph.load(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.tsv"
        path.write_text("")
        with pytest.raises(ValueError, match="empty graph"):
            KnowledgeGraph.load(path)

    def test_roundtrip(self, tmp_path, toy_family):
        out = tmp_path / "out.tsv"
        toy_family.save(out)
        assert KnowledgeGraph.load(out) == toy_family


class TestQueries:
    def test_outgoing_single_edge(self):
        g = KnowledgeGraph([("justin", "hasParent", "jeremy")])
        assert g.outgoing("justin") == (("hasParent", "jeremy"),)

    def test_outgoing_unknown_entity(self, toy_family):
        assert toy_family.outgoing("nobody") == ()

    def test_outgoing_sorted(self):
        g = KnowledgeGraph([("a", "q", "z"), ("a", "p", "y"), ("a", "p", "x")])
        assert g.outgoing("a") == (("p", "x"), ("p", "y"), ("q", "z"))

    def test_subjects_objects_pairs(self, toy_family):
        assert toy_family.objects("justin", "hasSibling") == ("jaxon",)
        assert toy_family.subjects("justin", "hasSibling") == ("jaxon",)
        assert toy_family.pairs("hasSibling") == (("jaxon", "justin"), ("justin", "jaxon"))
        assert toy_family.has_subject("justin", "hasSibling")
        assert not toy_family.has_subject("jeremy", "hasSibling")

    def test_contains_consistent_with_indices(self, toy_family):
        for s, p, o in toy_family.triples():
            assert (s, p, o) in toy_family
            assert o in toy_family.objects(s, p)
        assert ("justin", "hasSon", "jeremy") not in toy_family
        assert "jeremy" not in toy_family.objects("justin", "hasSon")


class TestRemove:
    def test_remove_nothing_is_identity(self, toy_family):
        assert toy_family.remove([]) == toy_family

    def test_remove_one_of_three(self):
        g = KnowledgeGraph([("a", "p", "b"), ("b", "p", "c"), ("c", "q", "a")])
        g2 = g.remove([("a", "p", "b")])
        assert len(g2) == 2
        assert ("a", "p", "b") not in g2
        assert len(g) == 3  # original untouched

    def test_remove_missing_triple_named_in_error(self, toy_family):
        with pytest.raises(ValueError, match="x.*p.*y"):
            toy_family.remove([("x", "p", "y")])


class TestAnonymize:
    def test_same_seed_same_mapping(self, toy_family):
        _, m1 = toy_family.anonymize(7)
        _, m2 = toy_family.anonymize(7)
        assert m1 == m2

    def test_mapping_is_integer_strings_and_bijective(self, toy_family):
        g2, mapping = toy_family.anonymize(3)
        assert set(mapping) == set(toy_family.entities)
        assert all(v.isdigit() for v in mapping.values())
        assert len(set(mapping.values())) == len(mapping)
        assert len(g2) == len(toy_family)

    def test_structure_preserved(self, toy_family):
        # degree multisets per predicate survive renaming (checked by direct
        # enumeration on both graphs)
        g2, mapping = toy_family.anonymize(11)
        assert len(g2.entities) == len(toy_family.entities)
        assert g2.predicates == toy_family.predicates
        for p in toy_family.predicates:
            out_before = sorted(
                len(toy_family.objects(e, p)) for e in toy_family.entities
            )
            out_after = sorted(len(g2.objects(e, p)) for e in g2.entities)
            assert out_before == out_after
            in_before = sorted(
                len(toy_family.subjects(e, p)) for e in toy_family.entities
            )
            in_after = sorted(len(g2.subjects(e, p)) for e in g2.entities)
            assert in_before == in_after

    def test_triples_isomorphic_under_mapping(self, toy_family):
        g2, mapping = toy_family.anonymize(5)
        assert {(mapping[s], p, mapping[o]) for s, p, o in toy_family.triples()} == set(
            g2.triples()
        )

    def test_map_file_roundtrip(self, tmp_path, toy_family):
        _, mapping = toy_family.anonymize(1)
        path = tmp_path / "map.json"
        write_anonymization_map(mapping, path)
        payload = json.loads(path.read_text())
        # schema: {original: {index, label}} with the original id kept as label
        assert payload["justin"]["label"] == "justin"
        assert payload["justin"]["index"] == mapping["justin"]
        assert {orig: rec["index"] for orig, rec in payload.items()} == mapping


def test_outgoing_on_celebrity_fixture(celebrity_family):
    pairs = celebrity_family.outgoing("Justin Bieber")
    assert pairs == (
        ("hasParent", "Jeremy Bieber"),
        ("hasSibling", "Jazmyn Bieber"),
    )


def test_load_remove_save_load_roundtrip(tmp_path, toy_family):
    removed = toy_family.remove([("jaxon", "hasSibling", "justin")])
    out = tmp_path / "removed.tsv"
    removed.save(out)
    again = KnowledgeGraph.load(out)
    assert again == removed
    assert len(again) == len(toy_family) - 1


def test_random_roundtrips_preserve_triple_set(tmp_path):
    rng = random.Random(0)
    for i in range(10):
        g = random_graph(rng, 20, 4, 60)
        out = tmp_path / f"g{i}.tsv"
        g.save(out)
        assert KnowledgeGraph.load(out) == g
        anon, _ = g.anonymize(i)
        assert len(anon) == len(g)
        assert len(anon.entities) == len(g.entities)
