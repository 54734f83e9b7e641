"""Benchmark generation: turn mined rules into an incompleteness dataset.

Pipeline: pick rule groundings whose head and body all hold, remove the head
triples while guaranteeing each removal keeps a full surviving body witness,
generate a question per removed triple, complete the answer sets from the
untouched graph, downsample by hard-answer frequency, and split.
"""

from __future__ import annotations

import hashlib
import json
import logging
import math
import random
import re
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from pathlib import Path

from .kg import KnowledgeGraph, Triple, write_anonymization_map
from .llm import QUESTION_GENERATION_PROMPT, EndpointError, LLMClient
from .mining import (
    MinedRule,
    body_holds_with_head_binding,
    enumerate_groundings,
    read_jsonl,
    read_rules_jsonl,
    rule_type_histogram,
    substitute_body,
    substitute_head,
    write_rules_jsonl,
)

log = logging.getLogger(__name__)

TOPIC_IS_SUBJECT = "topic-is-subject"
TOPIC_IS_OBJECT = "topic-is-object"


def _stable_rng(seed: int, *tags) -> random.Random:
    material = "|".join([str(seed), *[str(t) for t in tags]])
    digest = hashlib.sha256(material.encode()).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


def sha256_file(path: str | Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


@dataclass
class GenConfig:
    groundings_per_rule: int = 30
    tau: float = 0.05                       # downsampling frequency threshold
    split_ratio: tuple[float, float, float] = (0.8, 0.1, 0.1)
    seed: int = 0
    question_backend: str = "template"      # template | external
    topic_side: str = "random"              # random | subject | object
    anonymize_seed: int | None = None
    max_inflight: int = 4                   # concurrent endpoint calls

    def __post_init__(self):
        if not 0.0 < self.tau <= 1.0:
            raise ValueError(f"tau must be in (0, 1], got {self.tau}")
        if abs(sum(self.split_ratio) - 1.0) > 1e-9:
            raise ValueError("split ratios must sum to 1")
        if self.question_backend not in ("template", "external"):
            raise ValueError(f"unknown question backend: {self.question_backend}")
        if self.topic_side not in ("random", "subject", "object"):
            raise ValueError(f"unknown topic side: {self.topic_side}")

    def to_json(self) -> dict:
        return {
            "groundings_per_rule": self.groundings_per_rule,
            "tau": self.tau,
            "split_ratio": list(self.split_ratio),
            "seed": self.seed,
            "question_backend": self.question_backend,
            "topic_side": self.topic_side,
            "anonymize_seed": self.anonymize_seed,
            "max_inflight": self.max_inflight,
        }


@dataclass(frozen=True)
class RemovalEntry:
    rule_id: str
    grounding: dict[str, str]
    removed: Triple
    witness: tuple[Triple, ...]

    def to_json(self) -> dict:
        return {
            "rule_id": self.rule_id,
            "grounding": self.grounding,
            "removed": list(self.removed),
            "witness": [list(t) for t in self.witness],
        }

    @classmethod
    def from_json(cls, row: dict) -> "RemovalEntry":
        return cls(
            rule_id=row["rule_id"],
            grounding=row["grounding"],
            removed=tuple(row["removed"]),
            witness=tuple(tuple(t) for t in row["witness"]),
        )


@dataclass
class RemovalPlan:
    entries: list[RemovalEntry]
    per_rule: dict[str, int]

    @property
    def removed_triples(self) -> set[Triple]:
        return {e.removed for e in self.entries}


@dataclass
class QAInstance:
    id: str
    question: str
    topic: str
    direction: str
    predicate: str
    answers: tuple[str, ...]
    hard_answer: str
    removed_triple: Triple
    rule_id: str
    split: str = ""
    provenance: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            "id": self.id,
            "question": self.question,
            "topic": self.topic,
            "direction": self.direction,
            "predicate": self.predicate,
            "answers": list(self.answers),
            "hard_answer": self.hard_answer,
            "removed_triple": list(self.removed_triple),
            "rule_id": self.rule_id,
            "split": self.split,
            "provenance": self.provenance,
        }

    @classmethod
    def from_json(cls, row: dict) -> "QAInstance":
        return cls(
            id=row["id"],
            question=row["question"],
            topic=row["topic"],
            direction=row["direction"],
            predicate=row["predicate"],
            answers=tuple(row["answers"]),
            hard_answer=row["hard_answer"],
            removed_triple=tuple(row["removed_triple"]),
            rule_id=row["rule_id"],
            split=row.get("split", ""),
            provenance=row.get("provenance", {}),
        )


# -- triple removal -----------------------------------------------------------


def plan_removals(g: KnowledgeGraph, mined: list[MinedRule], cfg: GenConfig) -> RemovalPlan:
    """Select head triples to delete while keeping one full body witness per
    removal alive in the final incomplete graph.

    Rules are processed by descending PCA confidence then canonical form;
    per rule, up to groundings_per_rule head-present groundings are drawn by
    seeded sampling. An entry commits only if its head is not already gone,
    is not a witness of an earlier entry, and none of its own witness triples
    were removed before.
    """
    ordered = sorted(mined, key=lambda mr: (-mr.metrics.pca_confidence, mr.rule.key()))
    removed: set[Triple] = set()
    witness_used: set[Triple] = set()
    entries: list[RemovalEntry] = []
    per_rule: dict[str, int] = {}
    for mr in ordered:
        groundings = [
            sigma for sigma, present in enumerate_groundings(g, mr.rule) if present
        ]
        rng = _stable_rng(cfg.seed, "removal", mr.rule.key())
        k = min(cfg.groundings_per_rule, len(groundings))
        sample = rng.sample(groundings, k)
        count = 0
        for sigma in sample:
            head_t = substitute_head(mr.rule, sigma)
            witness = set(substitute_body(mr.rule, sigma))
            if head_t[0] == head_t[2]:
                continue  # a question about a self-loop would name its own answer
            if head_t in removed or head_t in witness_used or head_t in witness:
                continue
            if witness & removed:
                continue
            removed.add(head_t)
            witness_used.update(witness)
            entries.append(
                RemovalEntry(mr.rule_id, dict(sorted(sigma.items())), head_t, tuple(sorted(witness)))
            )
            count += 1
        per_rule[mr.rule_id] = count
        if count == 0:
            log.info("rule %s contributed no removals", mr.rule_id)
    return RemovalPlan(entries, per_rule)


# -- question generation --------------------------------------------------------


def _contains_token(text: str, needle: str) -> bool:
    return re.search(rf"(?<!\w){re.escape(needle)}(?!\w)", text) is not None


def template_question(predicate: str, topic: str, direction: str) -> str:
    marker = "topic is subject" if direction == TOPIC_IS_SUBJECT else "topic is object"
    return f"Which entity has relation {predicate} with {topic}? [{marker}]"


def generate_question(
    triple: Triple,
    topic_side: str,
    backend: str = "template",
    client: LLMClient | None = None,
) -> tuple[str, str, dict]:
    """Question text for a removed triple, plus the topic entity and a
    provenance record (backend, prompt hash, retries, fallback flag).

    The external backend prompts the endpoint at temperature 0 and falls back
    to the template after one retry if the generated text leaks the answer id.
    """
    s, p, o = triple
    if topic_side == "subject":
        topic, answer, direction = s, o, TOPIC_IS_SUBJECT
    elif topic_side == "object":
        topic, answer, direction = o, s, TOPIC_IS_OBJECT
    else:
        raise ValueError(f"topic_side must be subject or object, got {topic_side!r}")

    if backend == "template":
        question = template_question(p, topic, direction)
        return question, topic, {"backend": "template", "prompt_hash": None, "retries": 0, "fallback": False}

    if client is None:
        raise ValueError("external question backend needs an endpoint client")
    prompt = QUESTION_GENERATION_PROMPT.format(
        entity_h=s, predicate_T=p, entity_t=o, topic_entity=topic, answer_entity=answer
    )
    prompt_hash = hashlib.sha256(prompt.encode()).hexdigest()[:16]
    messages = [{"role": "user", "content": prompt}]
    retries = 0
    for attempt in range(2):
        text = client.chat(messages, temperature=0.0).strip()
        if text and not _contains_token(text, answer):
            return text, topic, {
                "backend": "external",
                "prompt_hash": prompt_hash,
                "retries": retries,
                "fallback": False,
            }
        retries += 1
        log.warning("generated question leaked the answer id (attempt %d)", attempt + 1)
    question = template_question(p, topic, direction)
    return question, topic, {
        "backend": "external",
        "prompt_hash": prompt_hash,
        "retries": retries,
        "fallback": True,
    }


def complete_answer_set(
    g_complete: KnowledgeGraph,
    topic: str,
    predicate: str,
    direction: str,
    removed: Triple,
) -> tuple[list[str], str]:
    """All correct answers from the complete graph plus the hard answer (the
    entity whose direct triple was removed)."""
    s, p, o = removed
    if p != predicate:
        raise ValueError(f"removed triple predicate {p!r} does not match {predicate!r}")
    if direction == TOPIC_IS_SUBJECT:
        if s != topic:
            raise ValueError(f"removed triple subject {s!r} does not match topic {topic!r}")
        answers = sorted(g_complete.objects(topic, predicate))
        hard = o
    elif direction == TOPIC_IS_OBJECT:
        if o != topic:
            raise ValueError(f"removed triple object {o!r} does not match topic {topic!r}")
        answers = sorted(g_complete.subjects(topic, predicate))
        hard = s
    else:
        raise ValueError(f"unknown direction: {direction!r}")
    if hard not in answers:
        raise ValueError(f"removed triple {removed} is not in the complete graph")
    return answers, hard


def generate_questions(
    g_complete: KnowledgeGraph,
    plan: RemovalPlan,
    cfg: GenConfig,
    client: LLMClient | None = None,
) -> list[QAInstance]:
    """One QAInstance per removal entry; endpoint calls (external backend)
    run with bounded concurrency but assembly order stays fixed."""
    prepared = []
    for i, entry in enumerate(plan.entries):
        s, p, o = entry.removed
        if cfg.topic_side == "random":
            coin = _stable_rng(cfg.seed, "side", s, p, o).random()
            side = "subject" if coin < 0.5 else "object"
        else:
            side = cfg.topic_side
        direction = TOPIC_IS_SUBJECT if side == "subject" else TOPIC_IS_OBJECT
        topic = s if side == "subject" else o
        answers, hard = complete_answer_set(g_complete, topic, p, direction, entry.removed)
        prepared.append((i, entry, side, direction, topic, answers, hard))

    def make_text(job):
        i, entry, side, direction, topic, answers, hard = job
        return generate_question(entry.removed, side, cfg.question_backend, client)

    if cfg.question_backend == "external" and len(prepared) > 1:
        with ThreadPoolExecutor(max_workers=cfg.max_inflight) as pool:
            texts = list(pool.map(make_text, prepared))
    else:
        texts = [make_text(job) for job in prepared]

    questions = []
    for (i, entry, side, direction, topic, answers, hard), (text, q_topic, prov) in zip(
        prepared, texts
    ):
        assert q_topic == topic
        questions.append(
            QAInstance(
                id=f"q{i:05d}",
                question=text,
                topic=topic,
                direction=direction,
                predicate=entry.removed[1],
                answers=tuple(answers),
                hard_answer=hard,
                removed_triple=entry.removed,
                rule_id=entry.rule_id,
                provenance=prov,
            )
        )
    return questions


# -- downsampling and splits ----------------------------------------------------


def downsample(questions: list[QAInstance], tau: float, seed: int) -> list[QAInstance]:
    """Frequency-based rebalancing keyed by hard-answer entity: classes above
    tau * |Q| keep a seeded sample of floor(tau * |Q|) questions (at least 1,
    so no class disappears); smaller classes are kept whole. Input order is
    preserved."""
    if not 0.0 < tau <= 1.0:
        raise ValueError(f"tau must be in (0, 1], got {tau}")
    n = len(questions)
    limit = tau * n
    cap = max(1, math.floor(limit))
    groups: dict[str, list[str]] = {}
    for q in questions:
        groups.setdefault(q.hard_answer, []).append(q.id)
    rng = _stable_rng(seed, "downsample")
    keep: set[str] = set()
    for answer in sorted(groups):
        ids = groups[answer]
        if len(ids) > limit:
            keep.update(rng.sample(ids, min(cap, len(ids))))
        else:
            keep.update(ids)
    return [q for q in questions if q.id in keep]


def split_dataset(
    questions: list[QAInstance],
    ratio: tuple[float, float, float] = (0.8, 0.1, 0.1),
    seed: int = 0,
) -> list[QAInstance]:
    """Seeded shuffle into train/val/test; floor sizes for val and test, the
    remainder goes to train. Output keeps the input order, labels attached."""
    if abs(sum(ratio) - 1.0) > 1e-9:
        raise ValueError("split ratios must sum to 1")
    n = len(questions)
    if n < 10:
        raise ValueError(f"need at least 10 questions to split, got {n}")
    order = list(range(n))
    _stable_rng(seed, "split").shuffle(order)
    n_val = math.floor(n * ratio[1])
    n_test = math.floor(n * ratio[2])
    n_train = n - n_val - n_test
    labels = {}
    for pos, idx in enumerate(order):
        if pos < n_train:
            labels[idx] = "train"
        elif pos < n_train + n_val:
            labels[idx] = "val"
        else:
            labels[idx] = "test"
    return [replace(q, split=labels[i]) for i, q in enumerate(questions)]


# -- bundle assembly --------------------------------------------------------------


BUNDLE_FILES = (
    "complete.tsv",
    "incomplete.tsv",
    "removals.jsonl",
    "questions.jsonl",
    "rules.jsonl",
    "manifest.json",
)


@dataclass
class Bundle:
    directory: Path
    complete: KnowledgeGraph
    incomplete: KnowledgeGraph
    questions: list[QAInstance]
    removals: list[RemovalEntry]
    rules: list[MinedRule]
    manifest: dict


def check_answerability(
    incomplete: KnowledgeGraph,
    questions: list[QAInstance],
    rules_by_id: dict[str, MinedRule],
) -> list[str]:
    """Violations of the central invariant: each question's generating rule
    must keep a full body grounding for the removed head in the incomplete
    graph, and the removed triple itself must be gone."""
    problems = []
    for q in questions:
        if q.removed_triple in incomplete:
            problems.append(f"{q.id}: removed triple still present")
            continue
        mr = rules_by_id.get(q.rule_id)
        if mr is None:
            problems.append(f"{q.id}: unknown rule id {q.rule_id}")
            continue
        if not body_holds_with_head_binding(incomplete, mr.rule, q.removed_triple):
            problems.append(f"{q.id}: no surviving body witness for {q.removed_triple}")
    return problems


def build_bundle(
    kg_path: str | Path,
    rules_path: str | Path,
    out_dir: str | Path,
    cfg: GenConfig,
    client: LLMClient | None = None,
) -> dict:
    """Run the full generation pipeline and write the dataset bundle.

    Returns the manifest. With the external question backend the endpoint is
    probed before any files are written, so a dead endpoint cannot leave a
    half-written bundle behind.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    complete = KnowledgeGraph.load(kg_path)
    mined = read_rules_jsonl(rules_path)
    notes: list[str] = []

    if cfg.question_backend == "external":
        if client is None:
            client = LLMClient()
        probe = [{"role": "user", "content": "Reply with the single word: ready"}]
        try:
            client.chat(probe, temperature=0.0)
        except EndpointError as err:
            raise EndpointError(f"question endpoint unreachable, aborting before removal: {err}")

    plan = plan_removals(complete, mined, cfg)
    incomplete = complete.remove(plan.removed_triples)

    anon_map = None
    if cfg.anonymize_seed is not None:
        complete, anon_map = complete.anonymize(cfg.anonymize_seed)
        incomplete = incomplete.rename_entities(anon_map)
        remapped = []
        for e in plan.entries:
            sigma = {k: anon_map[v] for k, v in e.grounding.items()}
            rm = (anon_map[e.removed[0]], e.removed[1], anon_map[e.removed[2]])
            wit = tuple(sorted((anon_map[s], p, anon_map[o]) for s, p, o in e.witness))
            remapped.append(RemovalEntry(e.rule_id, sigma, rm, wit))
        plan = RemovalPlan(remapped, plan.per_rule)
        write_anonymization_map(anon_map, out / "anonymization_map.json")
        notes.append("entities anonymized; map in anonymization_map.json")

    questions = generate_questions(complete, plan, cfg, client)
    generated = len(questions)
    questions = downsample(questions, cfg.tau, cfg.seed)
    if len(questions) >= 10:
        questions = split_dataset(questions, cfg.split_ratio, cfg.seed)
    else:
        questions = [replace(q, split="test") for q in questions]
        notes.append("fewer than 10 questions: all labeled 'test', no split drawn")

    rules_by_id = {mr.rule_id: mr for mr in mined}
    problems = check_answerability(incomplete, questions, rules_by_id)
    if problems:
        raise ValueError(f"answerability check failed: {problems[:5]}")

    complete.save(out / "complete.tsv")
    incomplete.save(out / "incomplete.tsv")
    with open(out / "removals.jsonl", "w", encoding="utf-8") as fh:
        for e in plan.entries:
            fh.write(json.dumps(e.to_json(), sort_keys=True) + "\n")
    with open(out / "questions.jsonl", "w", encoding="utf-8") as fh:
        for q in questions:
            fh.write(json.dumps(q.to_json(), sort_keys=True) + "\n")
    write_rules_jsonl(mined, out / "rules.jsonl")

    split_counts: dict[str, int] = {}
    for q in questions:
        split_counts[q.split] = split_counts.get(q.split, 0) + 1
    topic_pred = {}
    for q in questions:
        topic_pred[(q.topic, q.predicate)] = topic_pred.get((q.topic, q.predicate), 0) + 1
    duplicates = sum(c - 1 for c in topic_pred.values() if c > 1)

    manifest = {
        "config": cfg.to_json(),
        "inputs": {
            "kg": {"path": str(kg_path), "sha256": sha256_file(kg_path)},
            "rules": {"path": str(rules_path), "sha256": sha256_file(rules_path)},
        },
        "counts": {
            "complete_triples": len(complete),
            "incomplete_triples": len(incomplete),
            "removals": len(plan.entries),
            "questions_generated": generated,
            "questions_final": len(questions),
            "splits": split_counts,
        },
        "rule_type_histogram": rule_type_histogram(mined),
        "per_rule_removals": plan.per_rule,
        "duplicate_topic_predicate_questions": duplicates,
        "answerability": {"checked": len(questions), "violations": 0},
        "notes": notes,
    }
    with open(out / "manifest.json", "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
    return manifest


def load_bundle(directory: str | Path) -> Bundle:
    d = Path(directory)
    for name in BUNDLE_FILES:
        if not (d / name).exists():
            raise ValueError(f"bundle is missing {name}")
    with open(d / "manifest.json", encoding="utf-8") as fh:
        manifest = json.load(fh)
    questions = [QAInstance.from_json(r) for r in read_jsonl(d / "questions.jsonl")]
    removals = [RemovalEntry.from_json(r) for r in read_jsonl(d / "removals.jsonl")]
    return Bundle(
        directory=d,
        complete=KnowledgeGraph.load(d / "complete.tsv"),
        incomplete=KnowledgeGraph.load(d / "incomplete.tsv"),
        questions=questions,
        removals=removals,
        rules=read_rules_jsonl(d / "rules.jsonl"),
        manifest=manifest,
    )


def verify_bundle(directory: str | Path) -> dict:
    """Re-check the answerability invariant and the size arithmetic of a
    bundle on disk."""
    bundle = load_bundle(directory)
    rules_by_id = {mr.rule_id: mr for mr in bundle.rules}
    problems = check_answerability(bundle.incomplete, bundle.questions, rules_by_id)
    size_ok = len(bundle.incomplete) == len(bundle.complete) - len(bundle.removals)
    if not size_ok:
        problems.append(
            f"size mismatch: |incomplete| {len(bundle.incomplete)} != "
            f"|complete| {len(bundle.complete)} - removals {len(bundle.removals)}"
        )
    return {
        "questions": len(bundle.questions),
        "removals": len(bundle.removals),
        "violations": problems,
        "ok": not problems,
    }
