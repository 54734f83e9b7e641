"""Episode runner and policies for the graph-reasoning environment.

A policy alternates explore / ground actions against the environment until it
synthesizes an answer or the budget runs out. Ships a deterministic
token-overlap heuristic policy (offline) and a policy backed by an external
chat endpoint speaking single-JSON tool calls.
"""

from __future__ import annotations

import json
import logging
import re
import time
from dataclasses import dataclass, field

from .env import (
    AgentState,
    EnvConfig,
    ExploreOutcome,
    GroundOutcome,
    ReasoningPath,
    RelationPath,
    SynthesisOutcome,
    apply_transition,
    explore,
    ground,
    parse_relation_path,
    serialize_reasoning_path,
    serialize_relation_path,
)
from .kg import KnowledgeGraph
from .llm import (
    EXPLORATION_TOOL_PROMPT,
    GROUNDING_TOOL_PROMPT,
    SYNTHESIS_TOOL_PROMPT,
    SYSTEM_PROMPT,
    EndpointBudgetExceeded,
    LLMClient,
)

log = logging.getLogger(__name__)

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
class Observation:
    question: str
    topic: str
    relation_paths: tuple[tuple[str, RelationPath], ...]
    reasoning_paths: tuple[ReasoningPath, ...]
    frontier: tuple[str, ...]


@dataclass
class PolicyBudget:
    max_actions: int = 10
    wall_clock_s: float | None = None

    def __post_init__(self):
        if self.max_actions < 1:
            raise ValueError("max_actions must be >= 1")
        if self.wall_clock_s is not None and self.wall_clock_s <= 0:
            raise ValueError("wall_clock_s must be positive")


@dataclass
class EpisodeTrace:
    question_id: str
    topic: str
    question: str
    steps: list[dict] = field(default_factory=list)
    prediction: list[str] = field(default_factory=list)
    supporting_paths: list[str] = field(default_factory=list)
    termination: str = "budget"  # synthesized | budget | aborted
    fallback: bool = False
    out_of_graph: list[str] = field(default_factory=list)
    unjustified: list[str] = field(default_factory=list)

    @property
    def step_count(self) -> int:
        return len(self.steps)

    def to_json_lines(self) -> list[str]:
        lines = [
            json.dumps(
                {
                    "type": "start",
                    "question_id": self.question_id,
                    "topic": self.topic,
                    "question": self.question,
                },
                sort_keys=True,
            )
        ]
        for step in self.steps:
            lines.append(
                json.dumps({"type": "step", "question_id": self.question_id, **step}, sort_keys=True)
            )
        lines.append(
            json.dumps(
                {
                    "type": "final",
                    "question_id": self.question_id,
                    "prediction": self.prediction,
                    "supporting_paths": self.supporting_paths,
                    "termination": self.termination,
                    "fallback": self.fallback,
                    "out_of_graph": self.out_of_graph,
                    "unjustified": self.unjustified,
                    "step_count": self.step_count,
                },
                sort_keys=True,
            )
        )
        return lines

    @classmethod
    def from_json_lines(cls, lines: list[dict]) -> "EpisodeTrace":
        start = next(r for r in lines if r["type"] == "start")
        final = next(r for r in lines if r["type"] == "final")
        steps = [
            {k: v for k, v in r.items() if k not in ("type", "question_id")}
            for r in lines
            if r["type"] == "step"
        ]
        return cls(
            question_id=start["question_id"],
            topic=start["topic"],
            question=start["question"],
            steps=steps,
            prediction=final["prediction"],
            supporting_paths=final["supporting_paths"],
            termination=final["termination"],
            fallback=final["fallback"],
            out_of_graph=final["out_of_graph"],
            unjustified=final.get("unjustified", []),
        )


class PolicyError(RuntimeError):
    """The policy failed to produce a usable action after repair."""


# -- heuristic policy ---------------------------------------------------------


class HeuristicPolicy:
    """Deterministic schedule: explore the topic at increasing hop limits
    until a relation path covers all predicates the question hints at (via
    direct token overlap or a synonym table), then ground the top-k paths by
    hint overlap, and synthesize the terminal entities of the best-overlap
    reasoning paths (ties keep all; zero overlap everywhere abstains)."""

    def __init__(
        self,
        question: str,
        topic: str,
        synonyms: dict[str, list[str]] | None = None,
        top_k: int = 5,
        max_hops: int = 3,
    ):
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

    def decide(self, obs: Observation) -> Action:
        if self._explored_h == 0:
            self._explored_h = 1
            return Action("explore", entity=self.topic, hops=1)
        topic_paths = [p for start, p in obs.relation_paths if start == self.topic]
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
        scored = [(self._chain_score(c), c) for c in obs.reasoning_paths]
        best_c = max((s for s, _ in scored), default=0)
        if best_c == 0:
            return Action("synthesize")  # abstain: no overlapping evidence
        selected = sorted(c for s, c in scored if s == best_c)
        answers = tuple(sorted({c[-1][2] for c in selected}))
        return Action(
            "synthesize",
            selected=tuple(serialize_reasoning_path(c) for c in selected),
            answers=answers,
        )

    def repair(self, obs: Observation, reason: str) -> Action:
        log.warning("heuristic policy asked to repair (%s); abstaining", reason)
        return Action("synthesize")


# -- endpoint-backed policy ---------------------------------------------------


TOOL_CALL_SCHEMA = (
    "Respond with exactly one JSON object and no other text. One of:\n"
    '{"tool": "relation_path_mining", "entity": "<entity id>", "max_hops": <int>}\n'
    '{"tool": "path_grounding", "entity": "<entity id>", "relation_paths": ["rel1 -> rel2", ...]}\n'
    '{"tool": "complete_task", "explored_reasoning_paths": ["<reasoning path>", ...], '
    '"answer_entities": ["<entity id>", ...]}'
)


def _first_json_object(text: str) -> dict:
    start = text.find("{")
    while start != -1:
        depth = 0
        in_str = False
        escape = False
        for i in range(start, len(text)):
            ch = text[i]
            if in_str:
                if escape:
                    escape = False
                elif ch == "\\":
                    escape = True
                elif ch == '"':
                    in_str = False
                continue
            if ch == '"':
                in_str = True
            elif ch == "{":
                depth += 1
            elif ch == "}":
                depth -= 1
                if depth == 0:
                    try:
                        return json.loads(text[start : i + 1])
                    except json.JSONDecodeError:
                        break
        start = text.find("{", start + 1)
    raise ValueError("no JSON object found in response")


def parse_tool_call(text: str) -> Action:
    obj = _first_json_object(text)
    tool = obj.get("tool") or obj.get("name")
    if tool == "relation_path_mining":
        entity = obj.get("entity")
        hops = obj.get("max_hops", obj.get("hops"))
        if not isinstance(entity, str) or not entity:
            raise ValueError("relation_path_mining needs a non-empty 'entity'")
        return Action("explore", entity=entity, hops=int(hops) if hops is not None else 1)
    if tool == "path_grounding":
        entity = obj.get("entity")
        paths = obj.get("relation_paths") or []
        if not isinstance(entity, str) or not entity:
            raise ValueError("path_grounding needs a non-empty 'entity'")
        return Action("ground", entity=entity, paths=tuple(str(p) for p in paths))
    if tool == "complete_task":
        selected = obj.get("explored_reasoning_paths") or []
        answers = obj.get("answer_entities") or []
        cleaned = tuple(
            str(p)[len("Evidence: "):] if str(p).startswith("Evidence: ") else str(p)
            for p in selected
        )
        return Action("synthesize", selected=cleaned, answers=tuple(str(a) for a in answers))
    raise ValueError(f"unknown tool name: {tool!r}")


class LLMPolicy:
    """Asks the endpoint for one JSON tool call per turn (temperature 0).

    An unparseable response triggers one repair round-trip quoting the
    schema; a second failure raises PolicyError.
    """

    def __init__(
        self,
        question: str,
        topic: str,
        client: LLMClient,
        max_paths_in_message: int = 60,
    ):
        self.question = question
        self.topic = topic
        self.client = client
        self.max_paths = max_paths_in_message
        self.q_tokens = content_tokens(question)
        self.events: list[str] = []

    def drain_events(self) -> list[str]:
        out, self.events = self.events, []
        return out

    def _rank_overlap(self, text: str) -> int:
        return len(content_tokens(text) & self.q_tokens)

    def _state_message(self, obs: Observation) -> str:
        rel = [
            f"{start}: {serialize_relation_path(p)}" for start, p in sorted(obs.relation_paths)
        ]
        evid = [f"Evidence: {serialize_reasoning_path(c)}" for c in sorted(obs.reasoning_paths)]
        for name, items in (("relation paths", rel), ("reasoning paths", evid)):
            if len(items) > self.max_paths:
                items.sort(key=lambda s: (-self._rank_overlap(s), s))
                del items[self.max_paths :]
                self.events.append(f"truncated {name} to {self.max_paths} in state message")
        parts = [
            "Tool: relation_path_mining\n" + EXPLORATION_TOOL_PROMPT,
            "Tool: path_grounding\n" + GROUNDING_TOOL_PROMPT,
            "Tool: complete_task\n" + SYNTHESIS_TOOL_PROMPT,
            f"Question: {self.question}",
            f"Topic entity: {self.topic}",
            "Relation paths discovered so far:\n" + ("\n".join(rel) if rel else "(none)"),
            "Reasoning paths grounded so far:\n" + ("\n".join(evid) if evid else "(none)"),
            "Frontier entities: " + (", ".join(obs.frontier) if obs.frontier else "(none)"),
            TOOL_CALL_SCHEMA,
        ]
        return "\n\n".join(parts)

    def _ask(self, messages: list[dict]) -> Action:
        text = self.client.chat(messages, temperature=0.0)
        return parse_tool_call(text)

    def decide(self, obs: Observation) -> Action:
        messages = [
            {"role": "system", "content": SYSTEM_PROMPT},
            {"role": "user", "content": self._state_message(obs)},
        ]
        try:
            return self._ask(messages)
        except ValueError as err:
            self.events.append(f"repair: unparseable response ({err})")
            messages.append(
                {
                    "role": "user",
                    "content": f"Your previous reply could not be parsed ({err}).\n{TOOL_CALL_SCHEMA}",
                }
            )
            try:
                return self._ask(messages)
            except ValueError as err2:
                raise PolicyError(f"unparseable response after repair: {err2}") from err2

    def repair(self, obs: Observation, reason: str) -> Action:
        self.events.append(f"repair: {reason}")
        messages = [
            {"role": "system", "content": SYSTEM_PROMPT},
            {"role": "user", "content": self._state_message(obs)},
            {"role": "user", "content": f"The previous action was invalid: {reason}.\n{TOOL_CALL_SCHEMA}"},
        ]
        try:
            return self._ask(messages)
        except ValueError as err:
            raise PolicyError(f"invalid action after repair: {err}") from err


# -- episode loop -------------------------------------------------------------


def _observe(state: AgentState, question: str, topic: str) -> Observation:
    return Observation(
        question=question,
        topic=topic,
        relation_paths=tuple(sorted(state.P)),
        reasoning_paths=tuple(sorted(state.C)),
        frontier=tuple(sorted(state.E)),
    )


def _validate_action(action: Action, state: AgentState, cfg: EnvConfig) -> tuple[bool, str]:
    if action.kind == "explore":
        if not action.entity:
            return False, "explore needs an entity"
        hops = action.hops or 0
        if not 1 <= hops <= cfg.max_hop_limit:
            return False, f"hop limit must be in [1, {cfg.max_hop_limit}], got {hops}"
        return True, ""
    if action.kind == "ground":
        if not action.entity:
            return False, "ground needs an entity"
        if not action.paths:
            return False, "ground needs at least one relation path"
        known = {serialize_relation_path(p) for _, p in state.P}
        unknown = [p for p in action.paths if p not in known]
        if unknown:
            return False, f"relation paths not in state: {unknown[:3]}"
        return True, ""
    if action.kind == "synthesize":
        if action.answers and not action.selected:
            return False, "synthesis with answers needs supporting reasoning paths"
        known = {serialize_reasoning_path(c) for c in state.C}
        unknown = [p for p in action.selected if p not in known]
        if unknown:
            return False, f"reasoning paths not in state: {unknown[:3]}"
        return True, ""
    return False, f"unknown action kind: {action.kind}"


def _execute(g: KnowledgeGraph, action: Action, state: AgentState, cfg: EnvConfig):
    if action.kind == "explore":
        paths = explore(g, action.entity, action.hops, cfg)
        outcome = ExploreOutcome(start=action.entity, paths=paths)
        payload = {"relation_paths": [serialize_relation_path(p) for p in paths]}
        return outcome, payload
    if action.kind == "ground":
        parsed = [parse_relation_path(p) for p in action.paths]
        chains, frontier = ground(g, action.entity, parsed, cfg)
        outcome = GroundOutcome(start=action.entity, reasoning_paths=chains, frontier=frontier)
        payload = {
            "reasoning_paths": [serialize_reasoning_path(c) for c in chains],
            "frontier": list(frontier),
        }
        return outcome, payload
    by_text = {serialize_reasoning_path(c): c for c in state.C}
    selected = tuple(by_text[p] for p in action.selected if p in by_text)
    outcome = SynthesisOutcome(selected=selected, answers=action.answers)
    payload = {"answers": list(action.answers), "selected": list(action.selected)}
    return outcome, payload


def _fallback_prediction(
    state: AgentState, question: str
) -> tuple[list[str], tuple[ReasoningPath, ...]]:
    """Budget exhausted: terminal entities of the reasoning paths that best
    overlap the question tokens; empty when nothing overlaps."""
    q_tokens = content_tokens(question)

    def score(chain: ReasoningPath) -> int:
        return len({t[1] for t in chain if content_tokens(t[1]) & q_tokens})

    scored = [(score(c), c) for c in state.C]
    best = max((s for s, _ in scored), default=0)
    if best == 0:
        return [], ()
    chains = tuple(sorted(c for s, c in scored if s == best))
    answers = sorted({c[-1][2] for c in chains})
    return answers, chains


def run_episode(
    g: KnowledgeGraph,
    question: dict,
    policy,
    budget: PolicyBudget | None = None,
    cfg: EnvConfig | None = None,
) -> EpisodeTrace:
    """Drive one episode to synthesis, abort, or budget exhaustion.

    `question` needs id / question / topic keys. The returned trace replays
    byte-for-byte via replay_trace.
    """
    budget = budget or PolicyBudget()
    cfg = cfg or EnvConfig()
    qid = question["id"]
    qtext = question["question"]
    topic = question["topic"]
    trace = EpisodeTrace(question_id=qid, topic=topic, question=qtext)
    state = AgentState.initial(topic)
    chains: tuple[ReasoningPath, ...] = ()   # the selected reasoning paths
    started = time.monotonic()

    for i in range(budget.max_actions):
        if budget.wall_clock_s is not None and time.monotonic() - started > budget.wall_clock_s:
            trace.termination = "budget"
            break
        obs = _observe(state, qtext, topic)
        try:
            action = policy.decide(obs)
        except EndpointBudgetExceeded:
            trace.termination = "budget"
            break
        except PolicyError as err:
            trace.steps.append({"i": i, "state_digest": state.digest(), "events": [f"abort: {err}"]})
            trace.termination = "aborted"
            break
        events = policy.drain_events() if hasattr(policy, "drain_events") else []
        ok, reason = _validate_action(action, state, cfg)
        if not ok:
            try:
                action = policy.repair(obs, reason)
            except (PolicyError, EndpointBudgetExceeded) as err:
                trace.steps.append(
                    {"i": i, "state_digest": state.digest(), "events": events + [f"abort: {err}"]}
                )
                trace.termination = "aborted" if isinstance(err, PolicyError) else "budget"
                break
            events.append(f"repair: {reason}")
            events.extend(policy.drain_events() if hasattr(policy, "drain_events") else [])
            ok, reason = _validate_action(action, state, cfg)
            if not ok:
                trace.steps.append(
                    {
                        "i": i,
                        "state_digest": state.digest(),
                        "events": events + [f"abort: still invalid: {reason}"],
                    }
                )
                trace.termination = "aborted"
                break
        digest = state.digest()
        outcome, payload = _execute(g, action, state, cfg)
        state = apply_transition(state, outcome)
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
            chains = outcome.selected
            trace.termination = "synthesized"
            break

    if trace.termination != "synthesized" and trace.termination != "aborted":
        trace.prediction, chains = _fallback_prediction(state, qtext)
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
        action = Action.from_json(step["action"])
        outcome, payload = _execute(g, action, state, cfg)
        recorded = json.dumps(step["observation"], sort_keys=True)
        fresh = json.dumps(payload, sort_keys=True)
        assert recorded == fresh, f"observation mismatch at step {step['i']}"
        state = apply_transition(state, outcome)
    return True
