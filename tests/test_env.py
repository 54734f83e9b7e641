import random

import pytest

from kgreason.env import (
    AgentState,
    EnvConfig,
    apply_transition,
    explore,
    ground,
    serialize_reasoning_path,
    serialize_relation_path,
)
from kgreason.kg import KnowledgeGraph

from conftest import random_graph
from oracles import enumerate_walks, exhaustive_relation_paths, reference_ground

CFG = EnvConfig()
UNCAPPED = EnvConfig(max_relation_paths_per_explore=None, max_groundings_per_path=None)
CAPS = (1, 3, 100, None)


def star_hub(leaves: int):
    """A hub h with `leaves` out-edges h -p-> l<i> and as many in-edges
    s<i> -r-> h; every leaf reaches two of eleven ends by q, so paths
    through the hub ground into far more chains than small caps keep."""
    triples = []
    for i in range(leaves):
        triples += [("h", "p", f"l{i:03d}"), (f"s{i:03d}", "r", "h")]
        triples += [(f"l{i:03d}", "q", f"m{j:02d}") for j in (i % 7, 7 + i % 4)]
    return KnowledgeGraph(triples)

FIVE_PATHS = {
    ("hasParent",),
    ("hasSibling",),
    ("hasParent", "hasSon"),
    ("hasSibling", "hasSibling"),
    ("hasParent", "hasSpouse"),
}


class TestExplore:
    def test_two_hop_celebrity_fixture(self, celebrity_family):
        paths = explore(celebrity_family, "Justin Bieber", 2, CFG)
        assert set(paths) == FIVE_PATHS

    def test_single_edge(self):
        g = KnowledgeGraph([("e", "p", "x")])
        assert explore(g, "e", 1, CFG) == (("p",),)

    def test_unknown_entity(self, celebrity_family):
        assert explore(celebrity_family, "nobody", 2, CFG) == ()

    def test_hop_limit_out_of_range(self, celebrity_family):
        with pytest.raises(ValueError):
            explore(celebrity_family, "Justin Bieber", 0, CFG)
        with pytest.raises(ValueError):
            explore(celebrity_family, "Justin Bieber", 4, CFG)

    def test_shallower_subset_of_deeper(self):
        rng = random.Random(1)
        for _ in range(10):
            g = random_graph(rng, 12, 4, 50)
            e = g.entities[0]
            assert set(explore(g, e, 1, UNCAPPED)) <= set(explore(g, e, 2, UNCAPPED))
            assert set(explore(g, e, 2, UNCAPPED)) <= set(explore(g, e, 3, UNCAPPED))

    def test_order_shorter_then_lexicographic(self, celebrity_family):
        paths = explore(celebrity_family, "Justin Bieber", 2, CFG)
        assert list(paths) == sorted(paths, key=lambda p: (len(p), p))

    def test_cap_truncates_with_priority(self, celebrity_family):
        capped = EnvConfig(max_relation_paths_per_explore=3)
        got = explore(celebrity_family, "Justin Bieber", 2, capped)
        full = explore(celebrity_family, "Justin Bieber", 2, CFG)
        assert got == full[:3]

    def test_cycles_allowed_up_to_hop_limit(self):
        g = KnowledgeGraph([("a", "p", "b"), ("b", "p", "a")])
        paths = explore(g, "a", 3, CFG)
        assert ("p", "p", "p") in paths

    def test_inverse_edges_opt_in(self):
        g = KnowledgeGraph([("a", "p", "b")])
        assert explore(g, "b", 1, CFG) == ()
        inv = EnvConfig(include_inverse=True)
        assert explore(g, "b", 1, inv) == (("inv_p",),)


class TestGround:
    def test_celebrity_fixture(self, celebrity_family):
        paths = explore(celebrity_family, "Justin Bieber", 2, CFG)
        chains, frontier = ground(celebrity_family, "Justin Bieber", paths, CFG)
        assert (
            ("Justin Bieber", "hasParent", "Jeremy Bieber"),
            ("Jeremy Bieber", "hasSon", "Jaxon Bieber"),
        ) in chains
        assert set(frontier) == {
            "Jeremy Bieber",
            "Jaxon Bieber",
            "Jazmyn Bieber",
            "Erin Wagner",
        }
        assert len(chains) == 5

    def test_unrealizable_path_contributes_nothing(self, celebrity_family):
        chains, frontier = ground(
            celebrity_family, "Justin Bieber", [("hasSpouse",)], CFG
        )
        assert chains == ()
        assert frontier == ()

    def test_every_chain_is_in_graph_and_consistent(self):
        rng = random.Random(2)
        for _ in range(10):
            g = random_graph(rng, 12, 4, 50)
            e = g.entities[0]
            paths = explore(g, e, 3, UNCAPPED) or ()
            chains, _ = ground(g, e, paths, UNCAPPED)
            for chain in chains:
                assert chain[0][0] == e
                for t in chain:
                    assert t in g
                for a, b in zip(chain, chain[1:]):
                    assert a[2] == b[0]

    def test_grounding_cap_is_per_path_prefix(self):
        g = KnowledgeGraph([
            ("a", "p", "c"), ("a", "p", "b"), ("a", "q", "z"), ("a", "q", "y"),
            ("b", "r", "x2"), ("b", "r", "x1"), ("c", "r", "x0"),
        ])
        paths = [("q",), ("p", "r"), ("p",)]
        chains, frontier = ground(g, "a", paths, EnvConfig(max_groundings_per_path=2))
        # each path keeps its lexicographically first two chains: through b
        # before c, although c's end x0 sorts first
        assert chains == (
            (("a", "p", "b"),),
            (("a", "p", "c"),),
            (("a", "q", "y"),),
            (("a", "q", "z"),),
            (("a", "p", "b"), ("b", "r", "x1")),
            (("a", "p", "b"), ("b", "r", "x2")),
        )
        assert frontier == ("b", "c", "x1", "x2", "y", "z")
        chains, _ = ground(g, "a", paths, EnvConfig(max_groundings_per_path=1))
        assert chains == ((("a", "p", "b"),), (("a", "q", "y"),),
                          (("a", "p", "b"), ("b", "r", "x1")))

    @pytest.mark.parametrize("inverse", [False, True])
    def test_matches_reference_oracle(self, inverse):
        rng = random.Random(4)
        explore_cfg = EnvConfig(max_relation_paths_per_explore=None, include_inverse=inverse)
        for _ in range(10):
            g = random_graph(rng, 12, 4, 60)
            for e in g.entities[:3]:
                paths = explore(g, e, 3, explore_cfg)
                for cap in CAPS:
                    cfg = EnvConfig(max_groundings_per_path=cap, include_inverse=inverse)
                    assert ground(g, e, paths, cfg) == reference_ground(g, e, paths, cfg)

    @pytest.mark.parametrize("inverse", [False, True])
    def test_matches_reference_oracle_on_a_hub(self, inverse):
        g = star_hub(40)
        for start in ("h", "l000", "m00"):
            paths = explore(g, start, 3, EnvConfig(max_relation_paths_per_explore=None,
                                                   include_inverse=inverse))
            for cap in CAPS:
                cfg = EnvConfig(max_groundings_per_path=cap, include_inverse=inverse)
                chains, frontier = ground(g, start, paths, cfg)
                assert (chains, frontier) == reference_ground(g, start, paths, cfg)
                if cap in (1, 3) and start == "h":
                    assert len(chains) == cap * len(paths)  # the cap binds on every path

    @pytest.mark.parametrize("start, path, inverse", [
        ("h", ("p", "q"), False),
        ("l000", ("inv_p", "p", "q"), True),
    ])
    def test_walk_stops_at_the_cap(self, monkeypatch, start, path, inverse):
        g = star_hub(500)
        cfg = EnvConfig(max_groundings_per_path=3, include_inverse=inverse)
        expected = reference_ground(g, start, [path], cfg)
        visited = []
        for name in ("objects", "subjects"):
            real = getattr(KnowledgeGraph, name)
            monkeypatch.setattr(KnowledgeGraph, name,
                                lambda self, e, p, real=real: visited.append(e) or real(self, e, p))
        assert ground(g, start, [path], cfg) == expected
        # the walk looks up the successors of the nodes on the way to the
        # first three chains, two leaves' worth, and none of the other 498
        assert visited == [start, "h", "l000", "l001"][-len(path) - 1:]

    def test_inverse_grounding_checks_out(self):
        g = KnowledgeGraph([("a", "p", "b"), ("c", "q", "b")])
        inv = EnvConfig(include_inverse=True)
        chains, frontier = ground(g, "a", [("p", "inv_q")], inv)
        assert chains == ((("a", "p", "b"), ("b", "inv_q", "c")),)
        assert frontier == ("b", "c")
        assert ("c", "q", "b") in g  # the inverse step walks a real edge backwards


class TestCompleteness:
    def test_explore_and_ground_match_walk_oracle(self):
        rng = random.Random(3)
        for _ in range(10):
            g = random_graph(rng, 15, 4, 80)
            for inverse in (False, True):
                cfg = EnvConfig(max_relation_paths_per_explore=None, max_groundings_per_path=None,
                                include_inverse=inverse)
                for e in g.entities[:2]:
                    for hops in (1, 2, 3):
                        walks = enumerate_walks(g, e, hops, inverse)
                        assert set(explore(g, e, hops, cfg)) == exhaustive_relation_paths(
                            g, e, hops, inverse
                        )
                        paths = explore(g, e, hops, cfg)
                        chains, _ = ground(g, e, paths, cfg)
                        assert set(chains) == set(walks)


class TestTransitions:
    def test_explore_union_from_empty(self):
        s = AgentState.initial("t")
        s2 = apply_transition(s, paths=[("t", p) for p in (("p",), ("q",), ("r",), ("s",), ("u",))])
        assert len(s2.P) == 5
        assert s2.E == frozenset({"t"})

    def test_idempotent_union(self, celebrity_family):
        s = AgentState.initial("Justin Bieber")
        chains, frontier = ground(
            celebrity_family, "Justin Bieber", [("hasParent",)], CFG
        )
        s1 = apply_transition(s, chains=chains, frontier=frontier)
        s2 = apply_transition(s1, chains=chains, frontier=frontier)
        assert s1 == s2

    def test_frontier_matches_fixture_after_explore_and_ground(self, celebrity_family):
        s = AgentState.initial("Justin Bieber")
        paths = explore(celebrity_family, "Justin Bieber", 2, CFG)
        s = apply_transition(s, paths=[("Justin Bieber", p) for p in paths])
        chains, frontier = ground(celebrity_family, "Justin Bieber", paths, CFG)
        s = apply_transition(s, chains=chains, frontier=frontier)
        # E is the grounded frontier plus the topic entity
        assert s.E == frozenset(
            {"Justin Bieber", "Jeremy Bieber", "Jaxon Bieber", "Jazmyn Bieber", "Erin Wagner"}
        )

    def test_terminal_state_rejects_transitions(self):
        s = AgentState.initial("t")
        s = apply_transition(s, terminal=True)
        assert s.terminal
        with pytest.raises(ValueError):
            apply_transition(s, paths=())

    def test_monotonicity(self, celebrity_family):
        s = AgentState.initial("Justin Bieber")
        seen_p, seen_c, seen_e = set(), set(), set(s.E)
        paths = explore(celebrity_family, "Justin Bieber", 1, CFG)
        s = apply_transition(s, paths=[("Justin Bieber", p) for p in paths])
        assert seen_p <= set(s.P) and seen_e <= set(s.E)
        seen_p, seen_e = set(s.P), set(s.E)
        chains, frontier = ground(celebrity_family, "Justin Bieber", paths, CFG)
        s = apply_transition(s, chains=chains, frontier=frontier)
        assert seen_p <= set(s.P) and seen_c <= set(s.C) and seen_e <= set(s.E)


def test_determinism_of_serialized_outputs(celebrity_family):
    a = explore(celebrity_family, "Justin Bieber", 2, CFG)
    b = explore(celebrity_family, "Justin Bieber", 2, CFG)
    assert [serialize_relation_path(p) for p in a] == [serialize_relation_path(p) for p in b]
    ca, _ = ground(celebrity_family, "Justin Bieber", a, CFG)
    cb, _ = ground(celebrity_family, "Justin Bieber", b, CFG)
    assert [serialize_reasoning_path(c) for c in ca] == [serialize_reasoning_path(c) for c in cb]


def test_serialization_formats():
    assert serialize_relation_path(("rel1", "rel4")) == "rel1 -> rel4"
    chain = (("a", "p", "b"), ("b", "q", "c"))
    assert serialize_reasoning_path(chain) == "(a, p, b) ; (b, q, c)"
