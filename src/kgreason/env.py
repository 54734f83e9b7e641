"""Interactive reasoning environment over a knowledge graph.

An episode's state is (P, C, E): relation paths discovered so far (tagged
with their start entity), grounded reasoning paths, and the entity frontier.
Exploration enumerates predicate sequences realizable by walks; grounding
instantiates each sequence into its lexicographically first
`max_groundings_per_path` triple chains, and stops walking there.

A transition is a union: the agent's step (`agent._execute`) carries out an
action and hands `apply_transition` what it found, the explored relation
paths, the grounded chains and their frontier, or the terminal mark of a
synthesis.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from typing import Iterable, Iterator

from .kg import KnowledgeGraph, Triple, json_line, sha256

RelationPath = tuple[str, ...]
ReasoningPath = tuple[Triple, ...]

INVERSE_PREFIX = "inv_"


@dataclass
class EnvConfig:
    max_hop_limit: int = 3
    max_relation_paths_per_explore: int | None = 200
    max_groundings_per_path: int | None = 100
    include_inverse: bool = False

    def __post_init__(self):
        if self.max_hop_limit < 1:
            raise ValueError("max_hop_limit must be >= 1")
        for name in ("max_relation_paths_per_explore", "max_groundings_per_path"):
            v = getattr(self, name)
            if v is not None and v < 1:
                raise ValueError(f"{name} must be >= 1 or None")


class InvalidAction(ValueError):
    """The action does not fit the current state; the message is the reason
    quoted back to the policy."""


def serialize_relation_path(path: RelationPath) -> str:
    return " -> ".join(path)


def serialize_reasoning_path(path: ReasoningPath) -> str:
    return " ; ".join(f"({s}, {p}, {o})" for s, p, o in path)


def explore(g: KnowledgeGraph, e: str, hops: int, cfg: EnvConfig) -> tuple[RelationPath, ...]:
    """Distinct predicate sequences of length <= hops realizable by a walk
    starting at e, BFS level by level. Cycles are allowed; sequences are
    deduplicated regardless of the witnessing walks. Unknown entity -> ().

    Deterministic order: shorter paths first, then lexicographic; truncated
    to the per-explore cap when one is configured. A hop limit outside
    [1, max_hop_limit] raises InvalidAction.
    """
    if not 1 <= hops <= cfg.max_hop_limit:
        raise InvalidAction(f"hop limit must be in [1, {cfg.max_hop_limit}], got {hops}")
    frontier: dict[RelationPath, set[str]] = {(): {e}}
    found: set[RelationPath] = set()
    for _ in range(hops):
        nxt: dict[RelationPath, set[str]] = {}
        for path, ends in frontier.items():
            for end in ends:
                for pred, nb in _edges(g, end, cfg):
                    nxt.setdefault(path + (pred,), set()).add(nb)
        frontier = nxt
        found.update(nxt)
    return tuple(sorted(found, key=lambda p: (len(p), p))[: cfg.max_relation_paths_per_explore])


def ground(
    g: KnowledgeGraph, e: str, paths: Iterable[RelationPath], cfg: EnvConfig
) -> tuple[tuple[ReasoningPath, ...], tuple[str, ...]]:
    """Instantiate each relation path as chains of concrete triples starting
    at e: the lexicographically first `max_groundings_per_path` chains of
    each path, where the path's walk stops. Returns (reasoning paths,
    frontier entities), shorter chains first; the frontier is every entity
    appearing in the chains other than the start entity itself.
    """
    cap = cfg.max_groundings_per_path
    chains = [c for path in set(paths) for c in islice(_chains(g, e, path, cfg), cap)]
    ordered = tuple(sorted(chains, key=lambda c: (len(c), c)))
    frontier = sorted(
        {ent for chain in ordered for t in chain for ent in (t[0], t[2])} - {e}
    )
    return ordered, tuple(frontier)


def _edges(g: KnowledgeGraph, e: str, cfg: EnvConfig) -> tuple[tuple[str, str], ...]:
    """(label, neighbour) of each step a walk can take from e: the edges
    leaving e, then, with inverse edges on, each edge (s, p, e) entering it
    as the step (e, inv_p, s), which `_chains` reads back."""
    inverse = tuple((INVERSE_PREFIX + p, s) for p, s in g.incoming(e)) if cfg.include_inverse else ()
    return g.outgoing(e) + inverse


def _chains(g: KnowledgeGraph, e: str, path: RelationPath, cfg: EnvConfig) -> Iterator[ReasoningPath]:
    """The chains of triples that realize path from e, depth first. Each step
    takes its successors in id order, so the chains come out in
    lexicographic order."""
    if not path:
        yield ()
        return
    pred = path[0]
    inverse = cfg.include_inverse and pred.startswith(INVERSE_PREFIX)
    successors = g.subjects(e, pred[len(INVERSE_PREFIX):]) if inverse else g.objects(e, pred)
    for nb in successors:
        for rest in _chains(g, nb, path[1:], cfg):
            yield ((e, pred, nb),) + rest


# -- state and transitions ----------------------------------------------------


@dataclass(frozen=True)
class AgentState:
    """Monotone episode memory; synthesis marks it terminal."""

    P: frozenset[tuple[str, RelationPath]] = frozenset()
    C: frozenset[ReasoningPath] = frozenset()
    E: frozenset[str] = frozenset()
    terminal: bool = False

    @classmethod
    def initial(cls, topic: str) -> "AgentState":
        return cls(E=frozenset({topic}))

    def digest(self) -> str:
        payload = json_line({
            "P": sorted(f"{s}: {serialize_relation_path(p)}" for s, p in self.P),
            "C": sorted(serialize_reasoning_path(c) for c in self.C),
            "E": sorted(self.E),
            "terminal": self.terminal,
        })
        return sha256(payload.encode()).hexdigest()[:16]


def apply_transition(
    state: AgentState,
    paths: Iterable[tuple[str, RelationPath]] = (),
    chains: Iterable[ReasoningPath] = (),
    frontier: Iterable[str] = (),
    terminal: bool = False,
) -> AgentState:
    """Union what one step found into memory: relation paths tagged with
    their start entity, reasoning paths and frontier entities; memory never
    shrinks. Raises on a terminal state."""
    if state.terminal:
        raise ValueError("cannot transition a terminal state")
    return AgentState(state.P.union(paths), state.C.union(chains), state.E.union(frontier),
                      terminal)
