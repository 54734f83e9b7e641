"""Interactive reasoning environment over a knowledge graph.

An episode's state is (P, C, E): relation paths discovered so far (tagged
with their start entity), grounded reasoning paths, and the entity frontier.
Exploration enumerates predicate sequences realizable by forward walks;
grounding instantiates sequences into concrete triple chains.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, replace
from typing import Iterable

from .kg import KnowledgeGraph, Triple

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


def serialize_relation_path(path: RelationPath) -> str:
    return " -> ".join(path)


def parse_relation_path(text: str) -> RelationPath:
    return tuple(part.strip() for part in text.split("->"))


def serialize_reasoning_path(path: ReasoningPath) -> str:
    return " ; ".join(f"({s}, {p}, {o})" for s, p, o in path)


def _successors(g: KnowledgeGraph, e: str, include_inverse: bool):
    out = list(g.outgoing(e))
    if include_inverse:
        out.extend((INVERSE_PREFIX + p, s) for p, s in g.incoming(e))
        out.sort()
    return out


def triple_in_graph(g: KnowledgeGraph, t: Triple, include_inverse: bool = False) -> bool:
    """Membership test that understands synthetic inverse predicates."""
    s, p, o = t
    if include_inverse and p.startswith(INVERSE_PREFIX):
        return (o, p[len(INVERSE_PREFIX):], s) in g
    return t in g


def explore(g: KnowledgeGraph, e: str, hops: int, cfg: EnvConfig) -> tuple[RelationPath, ...]:
    """Distinct predicate sequences of length <= hops realizable by a walk
    starting at e, BFS level by level. Cycles are allowed; sequences are
    deduplicated regardless of the witnessing walks. Unknown entity -> ().

    Deterministic order: shorter paths first, then lexicographic; truncated
    to the per-explore cap when one is configured.
    """
    if not 1 <= hops <= cfg.max_hop_limit:
        raise ValueError(f"hop limit must be in [1, {cfg.max_hop_limit}], got {hops}")
    frontier: dict[RelationPath, set[str]] = {(): {e}}
    found: set[RelationPath] = set()
    for _ in range(hops):
        nxt: dict[RelationPath, set[str]] = {}
        for path, ends in frontier.items():
            for end in ends:
                for pred, nb in _successors(g, end, cfg.include_inverse):
                    nxt.setdefault(path + (pred,), set()).add(nb)
        if not nxt:
            break
        frontier = nxt
        found.update(nxt)
    ordered = sorted(found, key=lambda p: (len(p), p))
    cap = cfg.max_relation_paths_per_explore
    if cap is not None:
        ordered = ordered[:cap]
    return tuple(ordered)


def ground(
    g: KnowledgeGraph, e: str, paths: Iterable[RelationPath], cfg: EnvConfig
) -> tuple[tuple[ReasoningPath, ...], tuple[str, ...]]:
    """Instantiate each relation path as chains of concrete triples starting
    at e. Returns (reasoning paths, frontier entities); the frontier is every
    entity appearing in the chains other than the start entity itself.
    """
    chains: list[ReasoningPath] = []
    for path in sorted(set(paths), key=lambda p: (len(p), p)):
        per_path: list[ReasoningPath] = []
        partial: list[tuple[str, ReasoningPath]] = [(e, ())]
        for pred in path:
            nxt: list[tuple[str, ReasoningPath]] = []
            for node, chain in partial:
                if cfg.include_inverse and pred.startswith(INVERSE_PREFIX):
                    base = pred[len(INVERSE_PREFIX):]
                    for s in g.subjects(node, base):
                        nxt.append((s, chain + ((node, pred, s),)))
                else:
                    for o in g.objects(node, pred):
                        nxt.append((o, chain + ((node, pred, o),)))
            partial = nxt
            if not partial:
                break
        per_path = sorted(chain for _, chain in partial)
        cap = cfg.max_groundings_per_path
        if cap is not None:
            per_path = per_path[:cap]
        chains.extend(per_path)
    ordered = tuple(sorted(set(chains), key=lambda c: (len(c), c)))
    frontier = sorted(
        {ent for chain in ordered for t in chain for ent in (t[0], t[2])} - {e}
    )
    return ordered, tuple(frontier)


# -- state and transitions ----------------------------------------------------


@dataclass(frozen=True)
class ExploreOutcome:
    start: str
    paths: tuple[RelationPath, ...]


@dataclass(frozen=True)
class GroundOutcome:
    start: str
    reasoning_paths: tuple[ReasoningPath, ...]
    frontier: tuple[str, ...]


@dataclass(frozen=True)
class SynthesisOutcome:
    selected: tuple[ReasoningPath, ...]
    answers: tuple[str, ...]


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
        payload = json.dumps(
            {
                "P": sorted(f"{s}: {serialize_relation_path(p)}" for s, p in self.P),
                "C": sorted(serialize_reasoning_path(c) for c in self.C),
                "E": sorted(self.E),
                "terminal": self.terminal,
            },
            sort_keys=True,
        )
        return hashlib.sha256(payload.encode()).hexdigest()[:16]


def apply_transition(
    state: AgentState, outcome: ExploreOutcome | GroundOutcome | SynthesisOutcome
) -> AgentState:
    """Union the outcome into memory; memory never shrinks. Raises on a
    terminal state."""
    if state.terminal:
        raise ValueError("cannot transition a terminal state")
    if isinstance(outcome, ExploreOutcome):
        new_p = state.P | {(outcome.start, p) for p in outcome.paths}
        return replace(state, P=new_p)
    if isinstance(outcome, GroundOutcome):
        return replace(
            state,
            C=state.C | set(outcome.reasoning_paths),
            E=state.E | set(outcome.frontier),
        )
    if isinstance(outcome, SynthesisOutcome):
        return replace(state, terminal=True)
    raise TypeError(f"unknown outcome type: {type(outcome).__name__}")
