"""Episode runner and policies for the graph-reasoning environment.

A policy alternates explore / ground actions against the environment until it
synthesizes an answer or the episode's actions run out (`MAX_ACTIONS` unless
the caller names another count). Ships a deterministic token-overlap
heuristic policy (offline) and a policy backed by an external chat endpoint
speaking single-JSON tool calls.

A policy answers three calls: `decide(state)` returns the next Action for the
AgentState, `repair(state, reason)` replaces an action the environment
rejected for `reason`, and `drain_events()` hands over the notes the policy
made since it was last asked.
"""

from __future__ import annotations

import json
import logging
import re
from dataclasses import dataclass, field

from .env import (
    AgentState,
    EnvConfig,
    InvalidAction,
    ReasoningPath,
    RelationPath,
    apply_transition,
    explore,
    ground,
    serialize_reasoning_path,
    serialize_relation_path,
)
from .kg import KnowledgeGraph, json_line
from .llm import (
    EXPLORATION_TOOL_PROMPT,
    GROUNDING_TOOL_PROMPT,
    SYNTHESIS_TOOL_PROMPT,
    SYSTEM_PROMPT,
    EndpointBudgetExceeded,
    EndpointError,
    LLMClient,
)

log = logging.getLogger(__name__)

MAX_ACTIONS = 10  # actions an episode may take when the caller names no other count

# words with no retrieval value in questions or predicate names
LINK_WORDS = frozenset(
    "a an the is are was were of has have had which what who whom whose where "
    "when with and or s entity entities relation topic".split()
)

_CAMEL_RE = re.compile(r"(?<=[a-z0-9])(?=[A-Z])")
_TOKEN_RE = re.compile(r"[a-z0-9]+")


def content_tokens(text: str) -> frozenset[str]:
    """Lowercased camelCase/snake_case-split tokens minus linking words."""
    spaced = _CAMEL_RE.sub(" ", text)
    return frozenset(t for t in _TOKEN_RE.findall(spaced.lower()) if t not in LINK_WORDS)


@dataclass(frozen=True)
class Action:
    kind: str  # explore | ground | synthesize
    entity: str | None = None
    hops: int | None = None
    paths: tuple[str, ...] = ()       # serialized relation paths (ground)
    selected: tuple[str, ...] = ()    # serialized reasoning paths (synthesize)
    answers: tuple[str, ...] = ()

    def to_json(self) -> dict:
        row: dict = {"kind": self.kind}
        if self.kind == "explore":
            row.update(entity=self.entity, hops=self.hops)
        elif self.kind == "ground":
            row.update(entity=self.entity, paths=list(self.paths))
        else:
            row.update(selected=list(self.selected), answers=list(self.answers))
        return row

    @classmethod
    def from_json(cls, row: dict) -> "Action":
        return cls(
            kind=row["kind"],
            entity=row.get("entity"),
            hops=row.get("hops"),
            paths=tuple(row.get("paths", ())),
            selected=tuple(row.get("selected", ())),
            answers=tuple(row.get("answers", ())),
        )


@dataclass
class EpisodeTrace:
    question_id: str
    topic: str
    question: str
    steps: list[dict] = field(default_factory=list)
    prediction: list[str] = field(default_factory=list)
    supporting_paths: list[str] = field(default_factory=list)
    termination: str = "budget"  # synthesized | budget | aborted | error
    fallback: bool = False
    out_of_graph: list[str] = field(default_factory=list)
    unjustified: list[str] = field(default_factory=list)

    @property
    def step_count(self) -> int:
        return len(self.steps)

    def to_json_lines(self) -> list[str]:
        """One start line, one line per step and one final line; every line
        carries its type and the question id."""
        qid = self.question_id
        start = {"type": "start", **{k: getattr(self, k) for k in _START_FIELDS}}
        steps = ({"type": "step", "question_id": qid, **step} for step in self.steps)
        final = {"type": "final", "question_id": qid, "step_count": self.step_count,
                 **{k: getattr(self, k) for k in _FINAL_FIELDS}}
        return [json_line(row) for row in (start, *steps, final)]

    @classmethod
    def from_json_lines(cls, lines: list[dict]) -> "EpisodeTrace":
        start = next(r for r in lines if r["type"] == "start")
        # a final line written before `unjustified` existed reads as none
        final = {"unjustified": [], **next(r for r in lines if r["type"] == "final")}
        steps = [
            {k: v for k, v in r.items() if k not in ("type", "question_id")}
            for r in lines
            if r["type"] == "step"
        ]
        return cls(**{k: start[k] for k in _START_FIELDS}, steps=steps,
                   **{k: final[k] for k in _FINAL_FIELDS})


# the trace fields a start line and a final line carry
_START_FIELDS = ("question_id", "topic", "question")
_FINAL_FIELDS = (
    "prediction", "supporting_paths", "termination", "fallback", "out_of_graph", "unjustified",
)


class PolicyError(RuntimeError):
    """The policy failed to produce a usable action after repair."""


# -- heuristic policy ---------------------------------------------------------


def _best_chains(chains, score) -> tuple[tuple[ReasoningPath, ...], list[str]]:
    """The chains with the best positive score, sorted, and their sorted
    terminal entities; both empty when no chain scores above 0."""
    scored = [(score(c), c) for c in chains]
    best = max((s for s, _ in scored), default=0)
    chosen = tuple(sorted(c for s, c in scored if s == best)) if best > 0 else ()
    return chosen, sorted({c[-1][2] for c in chosen})


class HeuristicPolicy:
    """Deterministic schedule: explore the topic at increasing hop limits
    until a relation path covers all predicates the question hints at (via
    direct token overlap or a synonym table), then ground the top-k paths by
    hint overlap, and synthesize the terminal entities of the best-overlap
    reasoning paths (ties keep all; zero overlap everywhere abstains)."""

    TOP_K = 5  # relation paths grounded when the caller names no other count

    def __init__(self, question: str, topic: str, synonyms: dict[str, list[str]] | None = None,
                 top_k: int = TOP_K, max_hops: int = EnvConfig.max_hop_limit):
        if top_k < 1:  # ranked[:top_k] would drop paths from the end, not keep top_k
            raise ValueError(f"top_k must be >= 1, got {top_k}")
        self.question = question
        self.topic = topic
        self.top_k = top_k
        self.max_hops = max_hops
        self.q_tokens = content_tokens(question)
        table = synonyms or {}
        self.hint_names: frozenset[str] = frozenset(
            name
            for word, names in table.items()
            if word.lower() in self.q_tokens
            for name in ([names] if isinstance(names, str) else names)
        )
        # whenever the table names target predicates for this question it is
        # authoritative; free-text token overlap is only the fallback
        self.use_table = bool(self.hint_names)
        # how many distinct hinted predicates one path should cover before
        # exploration stops escalating
        self.target = len(self.hint_names) if self.hint_names else 1
        self._explored_h = 0
        self._grounded = False
        self._pred_cache: dict[str, bool] = {}

    def _hinted(self, pred: str) -> bool:
        if pred not in self._pred_cache:
            if self.use_table:
                self._pred_cache[pred] = pred in self.hint_names
            else:
                self._pred_cache[pred] = bool(content_tokens(pred) & self.q_tokens)
        return self._pred_cache[pred]

    def _path_score(self, path: RelationPath) -> int:
        return len({p for p in path if self._hinted(p)})

    def _chain_score(self, chain: ReasoningPath) -> int:
        return len({t[1] for t in chain if self._hinted(t[1])})

    def decide(self, state: AgentState) -> Action:
        if self._explored_h == 0:
            self._explored_h = 1
            return Action("explore", entity=self.topic, hops=1)
        topic_paths = [p for start, p in state.P if start == self.topic]
        best = max((self._path_score(p) for p in topic_paths), default=0)
        if best < self.target and self._explored_h < self.max_hops:
            self._explored_h += 1
            return Action("explore", entity=self.topic, hops=self._explored_h)
        if not self._grounded and best > 0:
            self._grounded = True
            ranked = sorted(
                topic_paths, key=lambda p: (-self._path_score(p), len(p), p)
            )
            chosen = tuple(serialize_relation_path(p) for p in ranked[: self.top_k])
            return Action("ground", entity=self.topic, paths=chosen)
        # no overlapping evidence selects nothing, which abstains
        selected, answers = _best_chains(state.C, self._chain_score)
        return Action(
            "synthesize",
            selected=tuple(serialize_reasoning_path(c) for c in selected),
            answers=tuple(answers),
        )

    def repair(self, state: AgentState, reason: str) -> Action:
        log.warning("heuristic policy asked to repair (%s); abstaining", reason)
        return Action("synthesize")

    def drain_events(self) -> list[str]:
        return []


# -- endpoint-backed policy ---------------------------------------------------


# relation or reasoning paths a state message lists at most, by question overlap
MAX_PATHS_IN_MESSAGE = 60

TOOL_CALL_SCHEMA = (
    "Respond with exactly one JSON object and no other text. One of:\n"
    '{"tool": "relation_path_mining", "entity": "<entity id>", "max_hops": <int>}\n'
    '{"tool": "path_grounding", "entity": "<entity id>", "relation_paths": ["rel1 -> rel2", ...]}\n'
    '{"tool": "complete_task", "explored_reasoning_paths": ["<reasoning path>", ...], '
    '"answer_entities": ["<entity id>", ...]}'
)


_DECODER = json.JSONDecoder()


def _first_json_object(text: str) -> dict:
    """The first complete JSON object in text, tried at each "{" in turn;
    nesting too deep to decode counts as no object there."""
    start = text.find("{")
    while start != -1:
        try:
            return _DECODER.raw_decode(text, start)[0]
        except (json.JSONDecodeError, RecursionError):
            start = text.find("{", start + 1)
    raise ValueError("no JSON object found in response")


def _strings(obj: dict, key: str) -> tuple[str, ...]:
    """A list field of a tool call, each item as a string (anonymized ids may
    come back as numbers); a missing or empty field reads as no items."""
    items = obj.get(key) or []
    if not isinstance(items, list):
        raise ValueError(f"{key!r} must be a list, got {items!r}")
    return tuple(str(item) for item in items)


def parse_tool_call(text: str) -> Action:
    """The action of the first JSON object in text. A missing entity, a field
    of the wrong type or an unknown tool raises ValueError, as unparseable
    text does."""
    obj = _first_json_object(text)
    tool = obj.get("tool") or obj.get("name")
    if tool == "relation_path_mining":
        entity = obj.get("entity")
        hops = obj.get("max_hops", obj.get("hops"))
        if not isinstance(entity, str) or not entity:
            raise ValueError("relation_path_mining needs a non-empty 'entity'")
        try:
            hops = int(hops) if hops is not None else 1
        except TypeError:
            raise ValueError(f"'max_hops' must be an integer, got {hops!r}") from None
        return Action("explore", entity=entity, hops=hops)
    if tool == "path_grounding":
        entity = obj.get("entity")
        if not isinstance(entity, str) or not entity:
            raise ValueError("path_grounding needs a non-empty 'entity'")
        return Action("ground", entity=entity, paths=_strings(obj, "relation_paths"))
    if tool == "complete_task":
        selected = _strings(obj, "explored_reasoning_paths")
        return Action(
            "synthesize",
            selected=tuple(p.removeprefix("Evidence: ") for p in selected),
            answers=_strings(obj, "answer_entities"),
        )
    raise ValueError(f"unknown tool name: {tool!r}")


class LLMPolicy:
    """Asks the endpoint for one JSON tool call per turn (temperature 0).

    An unparseable response triggers one repair round-trip quoting the
    schema; a second failure raises PolicyError. The policy counts its
    calls, repairs included; the one past `max_calls` raises
    EndpointBudgetExceeded instead of being sent.
    """

    def __init__(self, question: str, topic: str, client: LLMClient,
                 max_calls: int | None = None):
        if max_calls is not None and max_calls < 1:
            raise ValueError(f"max_calls must be >= 1, got {max_calls}")
        self.question = question
        self.topic = topic
        self.client = client
        self.max_calls = max_calls
        self.calls = 0
        self.q_tokens = content_tokens(question)
        self.events: list[str] = []

    def drain_events(self) -> list[str]:
        out, self.events = self.events, []
        return out

    def _rank_overlap(self, text: str) -> int:
        return len(content_tokens(text) & self.q_tokens)

    def _state_message(self, state: AgentState) -> str:
        rel = [f"{start}: {serialize_relation_path(p)}" for start, p in sorted(state.P)]
        evid = [f"Evidence: {serialize_reasoning_path(c)}" for c in sorted(state.C)]
        for name, items in (("relation paths", rel), ("reasoning paths", evid)):
            if len(items) > MAX_PATHS_IN_MESSAGE:
                items.sort(key=lambda s: (-self._rank_overlap(s), s))
                del items[MAX_PATHS_IN_MESSAGE:]
                self.events.append(f"truncated {name} to {MAX_PATHS_IN_MESSAGE} in state message")
        parts = [
            "Tool: relation_path_mining\n" + EXPLORATION_TOOL_PROMPT,
            "Tool: path_grounding\n" + GROUNDING_TOOL_PROMPT,
            "Tool: complete_task\n" + SYNTHESIS_TOOL_PROMPT,
            f"Question: {self.question}",
            f"Topic entity: {self.topic}",
            "Relation paths discovered so far:\n" + ("\n".join(rel) or "(none)"),
            "Reasoning paths grounded so far:\n" + ("\n".join(evid) or "(none)"),
            "Frontier entities: " + (", ".join(sorted(state.E)) or "(none)"),
            TOOL_CALL_SCHEMA,
        ]
        return "\n\n".join(parts)

    def _ask(self, state_message: str, note: str | None = None) -> Action:
        """Send the system prompt and the state message, followed on a
        repair by the note and the schema, and parse the reply."""
        if self.calls == self.max_calls:
            raise EndpointBudgetExceeded(f"endpoint call budget of {self.max_calls} exhausted")
        self.calls += 1
        messages = [
            {"role": "system", "content": SYSTEM_PROMPT},
            {"role": "user", "content": state_message},
        ]
        if note:
            messages.append({"role": "user", "content": f"{note}.\n{TOOL_CALL_SCHEMA}"})
        return parse_tool_call(self.client.chat(messages))

    def decide(self, state: AgentState) -> Action:
        state_message = self._state_message(state)
        try:
            return self._ask(state_message)
        except ValueError as err:
            self.events.append(f"repair: unparseable response ({err})")
            try:
                return self._ask(state_message, f"Your previous reply could not be parsed ({err})")
            except ValueError as err2:
                raise PolicyError(f"unparseable response after repair: {err2}") from err2

    def repair(self, state: AgentState, reason: str) -> Action:
        note = f"The previous action was invalid: {reason}"
        try:
            return self._ask(self._state_message(state), note)
        except ValueError as err:
            raise PolicyError(f"invalid action after repair: {err}") from err


# -- episode loop -------------------------------------------------------------


def _named(texts, items, serialize, what: str) -> list:
    """The items whose serialized text is one of `texts`, every item of a
    text that several share. A text naming no item raises InvalidAction."""
    wanted = set(texts)
    hits = [(text, item) for item in items if (text := serialize(item)) in wanted]
    found = {text for text, _ in hits}
    unknown = [t for t in texts if t not in found]
    if unknown:
        raise InvalidAction(f"{what} not in state: {unknown[:3]}")
    return [item for _, item in hits]


def _execute(g: KnowledgeGraph, action: Action, state: AgentState, cfg: EnvConfig):
    """Check the action against the state, then carry it out. Returns the
    next state, the observation payload to record and the reasoning paths a
    synthesis selected (none for any other action); raises InvalidAction
    when the action does not fit."""
    if action.kind == "explore":
        if not action.entity:
            raise InvalidAction("explore needs an entity")
        paths = explore(g, action.entity, action.hops or 0, cfg)
        payload = {"relation_paths": [serialize_relation_path(p) for p in paths]}
        return apply_transition(state, paths=[(action.entity, p) for p in paths]), payload, ()
    if action.kind == "ground":
        if not action.entity:
            raise InvalidAction("ground needs an entity")
        if not action.paths:
            raise InvalidAction("ground needs at least one relation path")
        paths = _named(action.paths, {p for _, p in state.P}, serialize_relation_path,
                       "relation paths")
        chains, frontier = ground(g, action.entity, paths, cfg)
        payload = {
            "reasoning_paths": [serialize_reasoning_path(c) for c in chains],
            "frontier": list(frontier),
        }
        return apply_transition(state, chains=chains, frontier=frontier), payload, ()
    if action.kind == "synthesize":
        if action.answers and not action.selected:
            raise InvalidAction("synthesis with answers needs supporting reasoning paths")
        selected = _named(action.selected, state.C, serialize_reasoning_path, "reasoning paths")
        payload = {"answers": list(action.answers), "selected": list(action.selected)}
        return apply_transition(state, terminal=True), payload, tuple(selected)
    raise InvalidAction(f"unknown action kind: {action.kind}")


def run_episode(
    g: KnowledgeGraph,
    question: dict,
    policy,
    max_actions: int = MAX_ACTIONS,
    cfg: EnvConfig | None = None,
) -> EpisodeTrace:
    """Drive one episode to synthesis, abort, endpoint error, or the end of
    its `max_actions` actions. An early exit records one step whose last
    event is "abort: <reason>"; only a budget exit falls back to a prediction.

    `question` needs id / question / topic keys. The returned trace replays
    byte-for-byte via replay_trace.
    """
    if max_actions < 1:
        raise ValueError(f"max_actions must be >= 1, got {max_actions}")
    cfg = cfg or EnvConfig()
    qid = question["id"]
    qtext = question["question"]
    topic = question["topic"]
    trace = EpisodeTrace(question_id=qid, topic=topic, question=qtext)
    state = AgentState.initial(topic)
    chains: tuple[ReasoningPath, ...] = ()   # the selected reasoning paths

    for i in range(max_actions):
        digest = state.digest()
        events: list[str] = []
        try:
            action = policy.decide(state)
            events = policy.drain_events()
            try:
                state, payload, chains = _execute(g, action, state, cfg)
            except InvalidAction as invalid:
                action = policy.repair(state, str(invalid))
                events += [f"repair: {invalid}", *policy.drain_events()]
                try:
                    state, payload, chains = _execute(g, action, state, cfg)
                except InvalidAction as err:
                    raise PolicyError(f"still invalid: {err}") from err
        except (PolicyError, EndpointBudgetExceeded, EndpointError) as err:
            events.append(f"abort: {err}")
            trace.steps.append({"i": i, "state_digest": digest, "events": events})
            trace.termination = (
                "aborted" if isinstance(err, PolicyError)
                else "budget" if isinstance(err, EndpointBudgetExceeded) else "error"
            )
            break
        trace.steps.append(
            {
                "i": i,
                "state_digest": digest,
                "action": action.to_json(),
                "observation": payload,
                "events": events,
            }
        )
        if action.kind == "synthesize":
            trace.prediction = list(action.answers)
            trace.supporting_paths = list(action.selected)
            trace.termination = "synthesized"
            break

    if trace.termination == "budget":
        # the evidence the heuristic policy would select by question overlap
        hints = HeuristicPolicy(qtext, topic)
        chains, trace.prediction = _best_chains(state.C, hints._chain_score)
        trace.supporting_paths = [serialize_reasoning_path(c) for c in chains]
        trace.fallback = True
    trace.out_of_graph = sorted(set(trace.prediction) - set(state.E))
    support = {e for c in chains for s, _, o in c for e in (s, o)}
    trace.unjustified = sorted(a for a in trace.prediction if a not in support)
    return trace


def replay_trace(g: KnowledgeGraph, trace: EpisodeTrace, cfg: EnvConfig | None = None) -> bool:
    """Re-execute the trace's actions and check every recorded observation
    byte-for-byte. Raises AssertionError on the first mismatch."""
    cfg = cfg or EnvConfig()
    state = AgentState.initial(trace.topic)
    for step in trace.steps:
        if "action" not in step:
            continue
        assert step["state_digest"] == state.digest(), (
            f"state digest mismatch at step {step['i']}"
        )
        state, payload, _ = _execute(g, Action.from_json(step["action"]), state, cfg)
        recorded, fresh = json_line(step["observation"]), json_line(payload)
        assert recorded == fresh, f"observation mismatch at step {step['i']}"
    return True
