import hashlib
import json
import random
import subprocess
import sys
import threading

import pytest

from kgreason import kg
from kgreason.kg import STRING, KnowledgeGraph, read_rows, write_anonymization_map

from conftest import random_graph
from oracles import reference_graph_index, reference_graph_tables


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


def test_read_rows_names_the_file_and_line_of_a_line_that_is_not_json(tmp_path):
    path = tmp_path / "rows.jsonl"
    path.write_text('{"id": "a"}\nnot json at all\n')
    with pytest.raises(ValueError) as err:
        list(read_rows(path, {"id": STRING}))
    assert str(err.value) == f"{path}: line 2: not a JSON object"


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


def corpus_rows(seed: int) -> list:
    """Random triples with self-loops and repeated rows, in file order."""
    rng = random.Random(seed)
    ents = [f"e{i}" for i in range(rng.randint(2, 25))]
    preds = [f"p{i}" for i in range(rng.randint(1, 5))]
    rows = [(rng.choice(ents), rng.choice(preds), rng.choice(ents)) for _ in range(rng.randint(1, 90))]
    rows += [(e, rng.choice(preds), e) for e in rng.sample(ents, 2)]
    rows += rng.sample(rows, min(len(rows), 5))
    rng.shuffle(rows)
    return rows


def graph_fields(g: KnowledgeGraph) -> dict:
    """Everything a graph exposes, by the names reference_graph_index uses."""
    return {
        **{name: getattr(g, name) for name in ("tri", "sp", "op", "byp", "out", "inc")},
        "eid": g.eid,
        "pid": g.pid,
        "ents": g.entities,
        "preds": g.predicates,
        "pair_predicates": g.pair_predicates,
        "triples": list(g.triples()),
        "duplicates_collapsed": g.duplicates_collapsed,
    }


def decoded_queries(g: KnowledgeGraph) -> dict:
    return {
        "entities": g.entities,
        "outgoing": {e: g.outgoing(e) for e in (*g.entities, "nobody")},
        "incoming": {e: g.incoming(e) for e in (*g.entities, "nobody")},
        "objects": {(e, p): g.objects(e, p) for e in g.entities for p in (*g.predicates, "q")},
        "subjects": {(e, p): g.subjects(e, p) for e in g.entities for p in (*g.predicates, "q")},
    }


def reference_queries(ref: dict) -> dict:
    """decoded_queries computed from the reference's string triples."""
    triples, ents = ref["triples"], ref["ents"]
    preds = (*ref["preds"], "q")
    return {
        "entities": ents,
        "outgoing": {e: tuple(sorted((p, o) for s, p, o in triples if s == e)) for e in (*ents, "nobody")},
        "incoming": {e: tuple(sorted((p, s) for s, p, o in triples if o == e)) for e in (*ents, "nobody")},
        "objects": {(e, q): tuple(o for s, p, o in triples if (s, p) == (e, q)) for e in ents for q in preds},
        "subjects": {(e, q): tuple(s for s, p, o in triples if (o, p) == (e, q)) for e in ents for q in preds},
    }


class TestMatchesReferenceIndex:
    """The sorted handle list and the indices built from it on first read
    equal the eager per-key-sorted indices, on random corpora with
    self-loops and duplicate rows."""

    SEEDS = range(12)

    def test_indices_and_queries(self):
        for seed in self.SEEDS:
            rows = corpus_rows(seed)
            ref = reference_graph_index(rows)
            g = KnowledgeGraph(rows)
            assert g.duplicates_collapsed == ref["duplicates_collapsed"] > 0
            assert decoded_queries(g) == reference_queries(ref)
            assert graph_fields(g) == ref
            assert len(g) == len(ref["tri"])
            assert all(t in g for t in rows)

    def test_remove_equals_rebuild(self):
        for seed in self.SEEDS:
            g = KnowledgeGraph(corpus_rows(seed))
            before = graph_fields(g)
            rng = random.Random(seed)
            triples = list(g.triples())
            lone = {e for e in g.entities if sum(e in (s, o) for s, _, o in triples) == 1}
            cases = [
                set(),
                set(rng.sample(triples, len(triples) // 3)),
                {t for t in triples if t[1] == g.predicates[0]},         # a whole predicate
                {t for t in triples if t[0] == triples[0][0] or t[2] == triples[0][0]},  # an entity
                {t for t in triples if t[0] in lone or t[2] in lone},
            ]
            for victims in cases:
                if len(victims) == len(triples):
                    continue
                removed = g.remove(victims)
                rebuilt = KnowledgeGraph(set(triples) - victims)
                assert graph_fields(removed) == graph_fields(rebuilt)
                assert decoded_queries(removed) == decoded_queries(rebuilt)
                assert graph_fields(g) == before

    def test_remove_that_drops_an_entity_and_a_predicate_renumbers(self):
        g = KnowledgeGraph([("a", "p", "b"), ("b", "q", "c"), ("c", "r", "d")])
        h = g.remove([("b", "q", "c")])
        assert h.predicates == ("p", "r") and h.entities == ("a", "b", "c", "d")
        h = g.remove([("a", "p", "b")])
        assert h.predicates == ("q", "r") and h.entities == ("b", "c", "d")
        assert h.tri == frozenset({(0, 0, 1), (1, 1, 2)})

    def test_concurrent_first_reads_see_whole_indices(self):
        rows = corpus_rows(3) * 40
        ref = reference_graph_index(rows)
        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(5):
                g = KnowledgeGraph(rows)
                barrier = threading.Barrier(8)
                seen = []

                def read(order):
                    barrier.wait(timeout=10)
                    got = {}
                    for name in order:
                        if name == "queries":
                            got[name] = decoded_queries(g)
                        else:
                            got[name] = graph_fields(g)
                    seen.append(got)

                threads = [
                    threading.Thread(target=read, args=((["queries", "fields"], ["fields", "queries"])[i % 2],))
                    for i in range(8)
                ]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=30)
                    assert not t.is_alive()
                assert len(seen) == 8
                for got in seen:
                    assert got["fields"] == ref
                    assert got["queries"] == reference_queries(ref)
        finally:
            sys.setswitchinterval(old)


def loader_tables(g: KnowledgeGraph) -> dict:
    """The fields of a graph that reference_graph_tables returns."""
    return {
        "ents": g.entities,
        "preds": g.predicates,
        "eid": g.eid,
        "pid": g.pid,
        "triples": list(g.triples()),
        "duplicates_collapsed": g.duplicates_collapsed,
    }


class TestInterningLoader:
    """The constructor, which interns each id as it reads it and renumbers
    the handles into id order at the end, builds the same tables as the
    string-set constructor it replaced."""

    CASES = {
        "duplicate rows": [("a", "p", "b"), ("a", "p", "b"), ("b", "q", "c"), ("a", "p", "b")],
        "object-only entity": [("a", "p", "b"), ("c", "p", "b"), ("a", "q", "z")],
        "self-loop": [("a", "p", "a"), ("a", "q", "b"), ("b", "p", "b")],
        "first appearance unlike id order": [("e10", "p2", "e2"), ("e2", "p10", "e1"),
                                             ("e9", "p1", "e10"), ("e1", "p2", "e10")],
        "predicate holding ->": [("a", "p -> q", "b"), ("b", "p", "c"), ("c", "->", "a")],
    }

    @pytest.mark.parametrize("name", CASES)
    def test_matches_string_set_constructor(self, name):
        rows = self.CASES[name]
        want = reference_graph_tables(rows)
        assert loader_tables(KnowledgeGraph(rows)) == want
        assert loader_tables(KnowledgeGraph(iter(rows))) == want

    def test_anonymized_graph_matches_string_set_constructor(self):
        for seed in range(12):
            g = random_graph(random.Random(seed), 25, 4, 80)
            anon, mapping = g.anonymize(seed)
            want = reference_graph_tables((mapping[s], p, mapping[o]) for s, p, o in g.triples())
            assert loader_tables(anon) == want  # decimal ids, so "10" sorts before "2"


class TestSha256:
    """kg.sha256, the one hash every stage takes, is SHA-256."""

    @pytest.mark.parametrize("data", [b"", b"kinship|0", bytes(range(256)) * 300],
                             ids=["empty", "short", "over-one-read-chunk"])
    def test_agrees_with_hashlib(self, tmp_path, data):
        assert kg.sha256.__module__ in ("_sha2", "_sha256")  # the built-in module
        assert kg.sha256(data).hexdigest() == hashlib.sha256(data).hexdigest()
        path = tmp_path / "data.bin"
        path.write_bytes(data)
        assert kg.sha256_file(path) == hashlib.sha256(data).hexdigest()

    def test_falls_back_to_hashlib_without_the_builtin_module(self):
        code = (
            "import sys\n"
            "sys.modules['_sha2'] = sys.modules['_sha256'] = None\n"
            "import hashlib\n"
            "from kgreason import kg\n"
            "assert kg.sha256 is hashlib.sha256, kg.sha256\n"
            "print(kg.sha256(b'abc').hexdigest())\n"
        )
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             check=True, timeout=60)
        assert out.stdout.strip() == hashlib.sha256(b"abc").hexdigest()
