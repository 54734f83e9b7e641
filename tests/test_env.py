import random

import pytest

from kgreason.env import (
    AgentState,
    EnvConfig,
    ExploreOutcome,
    GroundOutcome,
    SynthesisOutcome,
    apply_transition,
    explore,
    ground,
    parse_relation_path,
    serialize_reasoning_path,
    serialize_relation_path,
    triple_in_graph,
)
from kgreason.kg import KnowledgeGraph

from conftest import random_graph
from oracles import enumerate_walks, exhaustive_relation_paths

CFG = EnvConfig()
UNCAPPED = EnvConfig(max_relation_paths_per_explore=None, max_groundings_per_path=None)

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
                    assert triple_in_graph(g, t)
                for a, b in zip(chain, chain[1:]):
                    assert a[2] == b[0]

    def test_grounding_cap_is_per_path_prefix(self, celebrity_family):
        capped = EnvConfig(max_groundings_per_path=1)
        paths = [("hasParent",), ("hasSibling",)]
        chains, _ = ground(celebrity_family, "Justin Bieber", paths, capped)
        assert len(chains) == 2  # one chain per path survives

    def test_inverse_grounding_checks_out(self):
        g = KnowledgeGraph([("a", "p", "b"), ("c", "q", "b")])
        inv = EnvConfig(include_inverse=True)
        chains, frontier = ground(g, "a", [("p", "inv_q")], inv)
        assert chains == ((("a", "p", "b"), ("b", "inv_q", "c")),)
        assert frontier == ("b", "c")
        assert triple_in_graph(g, ("b", "inv_q", "c"), include_inverse=True)


class TestCompleteness:
    def test_explore_and_ground_match_walk_oracle(self):
        rng = random.Random(3)
        for _ in range(10):
            g = random_graph(rng, 15, 4, 80)
            for e in g.entities[:2]:
                for hops in (1, 2, 3):
                    walks = enumerate_walks(g, e, hops)
                    assert set(explore(g, e, hops, UNCAPPED)) == exhaustive_relation_paths(
                        g, e, hops
                    )
                    paths = explore(g, e, hops, UNCAPPED)
                    chains, _ = ground(g, e, paths, UNCAPPED)
                    assert set(chains) == set(walks)


class TestTransitions:
    def test_explore_union_from_empty(self):
        s = AgentState.initial("t")
        out = ExploreOutcome("t", (("p",), ("q",), ("r",), ("s",), ("u",)))
        s2 = apply_transition(s, out)
        assert len(s2.P) == 5
        assert s2.E == frozenset({"t"})

    def test_idempotent_union(self, celebrity_family):
        s = AgentState.initial("Justin Bieber")
        chains, frontier = ground(
            celebrity_family, "Justin Bieber", [("hasParent",)], CFG
        )
        out = GroundOutcome("Justin Bieber", chains, frontier)
        s1 = apply_transition(s, out)
        s2 = apply_transition(s1, out)
        assert s1 == s2

    def test_frontier_matches_fixture_after_explore_and_ground(self, celebrity_family):
        s = AgentState.initial("Justin Bieber")
        paths = explore(celebrity_family, "Justin Bieber", 2, CFG)
        s = apply_transition(s, ExploreOutcome("Justin Bieber", paths))
        chains, frontier = ground(celebrity_family, "Justin Bieber", paths, CFG)
        s = apply_transition(s, GroundOutcome("Justin Bieber", chains, frontier))
        # E is the grounded frontier plus the topic entity
        assert s.E == frozenset(
            {"Justin Bieber", "Jeremy Bieber", "Jaxon Bieber", "Jazmyn Bieber", "Erin Wagner"}
        )

    def test_terminal_state_rejects_transitions(self):
        s = AgentState.initial("t")
        s = apply_transition(s, SynthesisOutcome((), ()))
        assert s.terminal
        with pytest.raises(ValueError):
            apply_transition(s, ExploreOutcome("t", ()))

    def test_monotonicity(self, celebrity_family):
        s = AgentState.initial("Justin Bieber")
        seen_p, seen_c, seen_e = set(), set(), set(s.E)
        paths = explore(celebrity_family, "Justin Bieber", 1, CFG)
        s = apply_transition(s, ExploreOutcome("Justin Bieber", paths))
        assert seen_p <= set(s.P) and seen_e <= set(s.E)
        seen_p, seen_e = set(s.P), set(s.E)
        chains, frontier = ground(celebrity_family, "Justin Bieber", paths, CFG)
        s = apply_transition(s, GroundOutcome("Justin Bieber", chains, frontier))
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
    assert parse_relation_path("rel1 -> rel4") == ("rel1", "rel4")
    chain = (("a", "p", "b"), ("b", "q", "c"))
    assert serialize_reasoning_path(chain) == "(a, p, b) ; (b, q, c)"
