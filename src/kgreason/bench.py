"""Benchmark generation: turn mined rules into an incompleteness dataset.

Pipeline: pick rule groundings whose head and body all hold, remove the head
triples while guaranteeing each removal keeps a full surviving body witness,
complete the answer sets from the untouched graph, downsample by hard-answer
frequency, generate a question per kept removed triple, and split.
"""

from __future__ import annotations

import json
import logging
import math
import os
import random
import re
import shutil
from collections import Counter
from collections.abc import Iterable
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from functools import cached_property
from pathlib import Path

from .kg import (ANY, STRING, TRIPLE, KnowledgeGraph, Triple, json_document, mistyped,
                 read_rows, read_triples, sha256, sha256_file, write_anonymization_map,
                 write_rows)
from .llm import QUESTION_GENERATION_PROMPT, EndpointError, LLMClient, in_order
from .mining import (
    MinedRule,
    enumerate_groundings,
    head_binding_check,
    read_rules_jsonl,
    rule_type_histogram,
    substitute_body,
    substitute_head,
    write_rules_jsonl,
)
from .rules import Atom, HornRule, Term

log = logging.getLogger(__name__)

TOPIC_IS_SUBJECT = "topic-is-subject"
TOPIC_IS_OBJECT = "topic-is-object"
SPLIT_RATIO = (0.8, 0.1, 0.1)  # train / val / test


def _fields(record) -> dict:
    """A dataclass record's fields by name. vars() would materialize a
    __dict__ on every record it reads, which CPython then keeps."""
    return {name: getattr(record, name) for name in record.__dataclass_fields__}


def _stable_rng(seed: int, *tags) -> random.Random:
    material = "|".join([str(seed), *[str(t) for t in tags]])
    digest = sha256(material.encode()).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


@dataclass
class GenConfig:
    groundings_per_rule: int = 30
    tau: float = 0.05                       # downsampling frequency threshold
    seed: int = 0
    question_backend: str = "template"      # template | external
    topic_side: str = "random"              # random | subject | object
    anonymize_seed: int | None = None
    max_inflight: int = 4                   # concurrent endpoint calls

    def __post_init__(self):
        if not 0.0 < self.tau <= 1.0:
            raise ValueError(f"tau must be in (0, 1], got {self.tau}")
        if self.question_backend not in ("template", "external"):
            raise ValueError(f"unknown question backend: {self.question_backend}")
        if self.topic_side not in ("random", "subject", "object"):
            raise ValueError(f"unknown topic side: {self.topic_side}")
        for name in ("groundings_per_rule", "max_inflight"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")

    def to_json(self) -> dict:
        return {**_fields(self), "split_ratio": SPLIT_RATIO}


@dataclass(frozen=True)
class RemovalEntry:
    rule_id: str
    grounding: dict[str, str]
    removed: Triple
    witness: tuple[Triple, ...]

    def to_json(self) -> dict:
        return _fields(self)


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
        return _fields(self)

    @classmethod
    def from_json(cls, row: dict) -> "QAInstance":
        # no stage parses a whole row; perfbench and tests do, until ROADMAP item 1
        return cls(**{**row, "answers": tuple(row["answers"]),
                      "removed_triple": tuple(row["removed_triple"])})


# -- triple removal -----------------------------------------------------------


def plan_removals(g: KnowledgeGraph, mined: list[MinedRule], cfg: GenConfig) -> RemovalPlan:
    """Select head triples to delete while keeping one full body witness per
    removal alive in the final incomplete graph.

    Rules are processed by descending PCA confidence then canonical form;
    per rule, up to groundings_per_rule of its support groundings (body and
    head both hold) are drawn by seeded sampling, and only the drawn ones
    are decoded. An entry commits only if its head is no self-loop, is not
    already gone, is not a witness of an earlier entry or its own, and none
    of its own witness triples were removed before. One debug line gives
    the totals, with the skipped groundings counted by the first of those
    tests they fail.
    """
    ordered = sorted(mined, key=lambda mr: (-mr.metrics.pca_confidence, mr.rule.key()))
    removed: set[Triple] = set()
    witness_used: set[Triple] = set()
    entries: list[RemovalEntry] = []
    per_rule: dict[str, int] = {}
    supported = sampled = 0
    skips = dict.fromkeys(
        ("self-loop", "head already removed", "head is a witness", "witness removed"), 0
    )
    for mr in ordered:
        groundings = enumerate_groundings(g, mr.rule)
        rng = _stable_rng(cfg.seed, "removal", mr.rule.key())
        k = min(cfg.groundings_per_rule, len(groundings))
        sample = rng.sample(groundings, k)
        supported += len(groundings)
        sampled += k
        count = 0
        for sigma in sample:
            head_t = substitute_head(mr.rule, sigma)
            witness = set(substitute_body(mr.rule, sigma))
            skip = (
                # a question about a self-loop would name its own answer
                "self-loop" if head_t[0] == head_t[2]
                else "head already removed" if head_t in removed
                else "head is a witness" if head_t in witness_used or head_t in witness
                else "witness removed" if witness & removed
                else None
            )
            if skip:
                skips[skip] += 1
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
    log.debug(
        "removal plan: %d rules, %d support groundings, %d sampled, %d removals, skipped %s",
        len(ordered), supported, sampled, len(entries),
        ", ".join(f"{n} {reason}" for reason, n in skips.items()),
    )
    return RemovalPlan(entries, per_rule)


# -- question generation --------------------------------------------------------


def _contains_token(text: str, needle: str) -> bool:
    return re.search(rf"(?<!\w){re.escape(needle)}(?!\w)", text) is not None


def _topic_and_answer(triple: Triple, side: str) -> tuple[str, str, str]:
    """(topic, answer, direction) of the question about a removed triple
    whose topic is its subject or its object, as `side` says; the answer is
    the other end."""
    s, _, o = triple
    if side == "subject":
        return s, o, TOPIC_IS_SUBJECT
    if side == "object":
        return o, s, TOPIC_IS_OBJECT
    raise ValueError(f"topic_side must be subject or object, got {side!r}")


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
    topic, answer, direction = _topic_and_answer(triple, topic_side)
    provenance = {"backend": backend, "prompt_hash": None, "retries": 0, "fallback": False}
    if backend == "template":
        return template_question(p, topic, direction), topic, provenance

    if client is None:
        raise ValueError("external question backend needs an endpoint client")
    prompt = QUESTION_GENERATION_PROMPT.format(
        entity_h=s, predicate_T=p, entity_t=o, topic_entity=topic, answer_entity=answer
    )
    provenance["prompt_hash"] = sha256(prompt.encode()).hexdigest()[:16]
    messages = [{"role": "user", "content": prompt}]
    for attempt in range(2):
        text = client.chat(messages).strip()
        if text and not _contains_token(text, answer):
            return text, topic, provenance
        provenance["retries"] += 1
        log.warning("generated question leaked the answer id (attempt %d)", attempt + 1)
    return template_question(p, topic, direction), topic, {**provenance, "fallback": True}


def draft_questions(
    g_complete: KnowledgeGraph, plan: RemovalPlan, cfg: GenConfig
) -> list[QAInstance]:
    """One QAInstance per removal entry, id q{i:05d} in plan order, with its
    topic, direction and answer set fixed but no question text yet. The
    answer set is every entity the complete graph links to the topic by the
    removed triple's predicate, the hard answer among them."""
    drafts = []
    for i, entry in enumerate(plan.entries):
        s, p, o = entry.removed
        side = cfg.topic_side
        if side == "random":
            side = "subject" if _stable_rng(cfg.seed, "side", s, p, o).random() < 0.5 else "object"
        topic, hard, direction = _topic_and_answer(entry.removed, side)
        linked = g_complete.objects if side == "subject" else g_complete.subjects
        drafts.append(
            QAInstance(
                id=f"q{i:05d}",
                question="",
                topic=topic,
                direction=direction,
                predicate=p,
                answers=tuple(sorted(linked(topic, p))),
                hard_answer=hard,
                removed_triple=entry.removed,
                rule_id=entry.rule_id,
            )
        )
    return drafts


def generate_questions(
    drafts: list[QAInstance], cfg: GenConfig, client: LLMClient | None = None
) -> list[QAInstance]:
    """The drafts with question text and provenance filled in; endpoint calls
    (external backend) run on max_inflight threads (`in_order`) but order
    stays fixed."""

    def make_text(q: QAInstance):
        side = "subject" if q.direction == TOPIC_IS_SUBJECT else "object"
        return generate_question(q.removed_triple, side, cfg.question_backend, client)

    workers = cfg.max_inflight if cfg.question_backend == "external" else 1
    texts = list(in_order(make_text, drafts, workers))
    return [replace(q, question=text, provenance=prov) for q, (text, _, prov) in zip(drafts, texts)]


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


def split_dataset(questions: list[QAInstance], seed: int = 0) -> list[QAInstance]:
    """Seeded shuffle into train/val/test by SPLIT_RATIO; floor sizes for val
    and test, the rest to train. Output keeps the input order, labels attached."""
    n = len(questions)
    if n < 10:
        raise ValueError(f"need at least 10 questions to split, got {n}")
    order = list(range(n))
    _stable_rng(seed, "split").shuffle(order)
    n_val = math.floor(n * SPLIT_RATIO[1])
    n_test = math.floor(n * SPLIT_RATIO[2])
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
ANONYMIZATION_MAP = "anonymization_map.json"  # only in anonymized bundles


@contextmanager
def _replacing_dir(out: Path):
    """A fresh directory beside `out` that replaces it when the block
    succeeds; when the block fails, the directory is removed and `out` is
    untouched."""
    tmp = out.with_name(f".{out.name}.{os.getpid()}.tmp")
    old = tmp.with_suffix(".old")
    out.parent.mkdir(parents=True, exist_ok=True)
    tmp.mkdir()
    try:
        yield tmp
        if out.exists():
            out.rename(old)
        tmp.rename(out)
        shutil.rmtree(old, ignore_errors=True)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


@dataclass
class Bundle:
    """A bundle on disk; each graph and the rules are parsed on first use,
    and the stages read only the question fields they use (`question_rows`).
    No stage reads manifest.json; it records how the bundle was built."""

    directory: Path

    @cached_property
    def questions(self) -> list[QAInstance]:
        # read only by perfbench and the tests, until ROADMAP item 1
        with open(self.directory / "questions.jsonl", encoding="utf-8") as fh:
            return [QAInstance.from_json(json.loads(line)) for line in fh if line.strip()]

    def question_rows(self, split: str, fields: dict[str, str | None]) -> list[dict]:
        """The named fields of each question in `split`, each of its kind in
        `fields`, as `read_rows` reads them from questions.jsonl."""
        return list(read_rows(self.directory / "questions.jsonl", fields, split))

    @cached_property
    def rules(self) -> list[MinedRule]:
        return read_rules_jsonl(self.directory / "rules.jsonl")

    @cached_property
    def complete(self) -> KnowledgeGraph:
        return KnowledgeGraph.load(self.directory / "complete.tsv")

    @cached_property
    def incomplete(self) -> KnowledgeGraph:
        return KnowledgeGraph.load(self.directory / "incomplete.tsv")


def check_answerability(
    incomplete: KnowledgeGraph,
    questions: Iterable[tuple[str, Triple, str]],
    mined: list[MinedRule],
) -> list[str]:
    """Violations of the central invariant over (question id, removed triple,
    rule id) rows: each question's generating rule must keep a full body
    grounding for the removed head in the incomplete graph, and the removed
    triple itself must be gone."""
    rules_by_id = {mr.rule_id: mr for mr in mined}
    problems = []
    checks = {}  # rule id -> its body check, compiled once
    for qid, removed, rule_id in questions:
        if removed in incomplete:
            problems.append(f"{qid}: removed triple still present")
            continue
        mr = rules_by_id.get(rule_id)
        if mr is None:
            problems.append(f"{qid}: unknown rule id {rule_id}")
            continue
        holds = checks.get(rule_id) or checks.setdefault(
            rule_id, head_binding_check(incomplete, mr.rule)
        )
        if not holds(removed):
            problems.append(f"{qid}: no surviving body witness for {removed}")
    return problems


def _rename_constants(rule: HornRule, mapping: dict[str, str]) -> HornRule:
    """The rule with every constant the mapping names replaced by its image;
    a constant absent from the graph cannot match and is kept as it is."""

    def rename(a: Atom) -> Atom:
        t1, t2 = (t if t.is_var else Term.const(mapping.get(t.name, t.name)) for t in a.args)
        return Atom(a.predicate, t1, t2)

    return HornRule(rename(rule.head), tuple(map(rename, rule.body)))


def build_bundle(
    kg_path: str | Path,
    rules_path: str | Path,
    out_dir: str | Path,
    cfg: GenConfig,
    client: LLMClient | None = None,
) -> dict:
    """Run the full generation pipeline and write the dataset bundle.

    Returns the manifest. An existing out_dir that holds any file a bundle
    does not write is refused before anything runs. The bundle is written
    into a fresh sibling directory that replaces out_dir only once every
    question has passed the answerability check and every file is complete;
    a failure removes it and leaves out_dir as it was. complete.tsv,
    removals.jsonl (and the anonymization map) go there as soon as the
    questions are drafted, and the complete graph and the removal plan are
    dropped then, so the check indexes the incomplete graph while no other
    graph and no removal entry is held. The incomplete graph is cut once,
    from the complete graph the questions are drafted from (anonymized
    first, if asked). With the external question backend the endpoint is
    probed before removal planning, so a dead endpoint fails fast.
    """
    out = Path(out_dir).resolve()
    if out.exists():
        foreign = sorted({p.name for p in out.iterdir()} - {*BUNDLE_FILES, ANONYMIZATION_MAP})
        if foreign:
            raise ValueError(f"{out_dir} holds files that are not part of a bundle: {foreign[:5]}")
    complete = KnowledgeGraph.load(kg_path)
    mined = read_rules_jsonl(rules_path)
    notes: list[str] = []

    if cfg.question_backend == "external":
        if client is None:
            client = LLMClient()
        probe = [{"role": "user", "content": "Reply with the single word: ready"}]
        try:
            client.chat(probe)
        except EndpointError as err:
            raise EndpointError(f"question endpoint unreachable, aborting before removal: {err}")

    plan = plan_removals(complete, mined, cfg)
    if cfg.anonymize_seed is not None:
        complete, anon_map = complete.anonymize(cfg.anonymize_seed)
        # built in one expression, so no name but `plan` holds the entries
        plan = RemovalPlan([
            RemovalEntry(
                e.rule_id,
                {k: anon_map[v] for k, v in e.grounding.items()},
                (anon_map[e.removed[0]], e.removed[1], anon_map[e.removed[2]]),
                tuple(sorted((anon_map[s], p, anon_map[o]) for s, p, o in e.witness)),
            )
            for e in plan.entries
        ], plan.per_rule)
        mined = [replace(mr, rule=_rename_constants(mr.rule, anon_map)) for mr in mined]
        notes.append(f"entities anonymized; map in {ANONYMIZATION_MAP}")
    incomplete = complete.remove(plan.removed_triples)

    drafts = draft_questions(complete, plan, cfg)
    generated = len(drafts)
    with _replacing_dir(out) as tmp:
        if cfg.anonymize_seed is not None:
            write_anonymization_map(anon_map, tmp / ANONYMIZATION_MAP)
        complete.save(tmp / "complete.tsv")
        write_rows(tmp / "removals.jsonl", (e.to_json() for e in plan.entries))
        complete_triples, removals, per_rule = len(complete), len(plan.entries), plan.per_rule
        # downsampling reads only ids and hard answers, so it runs before any
        # question text is asked of the endpoint; neither the removal plan nor
        # any graph but the incomplete one, whose indices the check builds, is
        # held from here on
        del complete, plan
        drafts = downsample(drafts, cfg.tau, cfg.seed)
        questions = generate_questions(drafts, cfg, client)
        del drafts
        if len(questions) >= 10:
            questions = split_dataset(questions, cfg.seed)
        else:
            questions = [replace(q, split="test") for q in questions]
            notes.append("fewer than 10 questions: all labeled 'test', no split drawn")

        rows = ((q.id, q.removed_triple, q.rule_id) for q in questions)
        problems = check_answerability(incomplete, rows, mined)
        if problems:
            raise ValueError(f"answerability check failed: {problems[:5]}")

        manifest = {
            "config": cfg.to_json(),
            "inputs": {
                "kg": {"path": str(kg_path), "sha256": sha256_file(kg_path)},
                "rules": {"path": str(rules_path), "sha256": sha256_file(rules_path)},
            },
            "counts": {
                "complete_triples": complete_triples,
                "incomplete_triples": len(incomplete),
                "removals": removals,
                "questions_generated": generated,
                "questions_final": len(questions),
                "splits": dict(Counter(q.split for q in questions)),
            },
            "rule_type_histogram": rule_type_histogram(mined),
            "per_rule_removals": per_rule,
            "duplicate_topic_predicate_questions": (
                len(questions) - len({(q.topic, q.predicate) for q in questions})
            ),
            "answerability": {"checked": len(questions), "violations": 0},
            "notes": notes,
        }
        incomplete.save(tmp / "incomplete.tsv")
        write_rows(tmp / "questions.jsonl", (q.to_json() for q in questions))
        write_rules_jsonl(mined, tmp / "rules.jsonl")
        (tmp / "manifest.json").write_text(json_document(manifest), encoding="utf-8")
    return manifest


def load_bundle(directory: str | Path) -> Bundle:
    d = Path(directory)
    for name in BUNDLE_FILES:
        if not (d / name).exists():
            raise ValueError(f"bundle is missing {name}")
    return Bundle(d)


def verify_bundle(directory: str | Path) -> dict:
    """Re-check the answerability invariant and the size arithmetic of a
    bundle on disk, and that each question has an id of its own and stands
    for a row of removals.jsonl that no other question stands for. A row
    whose triple is not three strings, or whose rule id is not a string, is
    a violation and is not checked further (`read_rows` refuses a question
    id that is not a string). Only the incomplete
    graph is built, and only once the distinct triples of complete.tsv (as
    `read_triples` parses them) are counted, the questions are tied to the
    removals, and each question's id, removed triple and rule id are held
    as a tuple, with no row dict kept."""
    bundle = load_bundle(directory)
    complete = len(set(read_triples(bundle.directory / "complete.tsv")))
    rows = list(read_rows(bundle.directory / "removals.jsonl", {"removed": ANY, "rule_id": ANY}))
    kinds = {"removed": TRIPLE, "rule_id": STRING}
    removals, unclaimed, malformed = len(rows), Counter(), []
    for n, r in enumerate(rows, start=1):
        if why := mistyped(r, kinds):
            malformed.append(f"removals.jsonl row {n}: {why}")
        else:
            unclaimed[tuple(r["removed"]), r["rule_id"]] += 1
    rows = bundle.question_rows("all", {"id": STRING, "removed_triple": ANY, "rule_id": ANY})
    kinds = {"removed_triple": TRIPLE, "rule_id": STRING}
    questions = len(rows)
    malformed += [f"{r['id']}: {why}" for r in rows if (why := mistyped(r, kinds))]
    rows = [(r["id"], tuple(r["removed_triple"]), r["rule_id"])
            for r in rows if not mistyped(r, kinds)]
    ids, ties = set(), []
    for qid, removed, rule_id in rows:
        if qid in ids:
            ties.append(f"{qid}: duplicate question id")
        ids.add(qid)
        key = (removed, rule_id)
        if unclaimed[key]:
            unclaimed[key] -= 1
        else:
            held = "backs another question" if key in unclaimed else "is not in removals.jsonl"
            ties.append(f"{qid}: removal of {removed} by {rule_id} {held}")
    del ids, unclaimed  # not held while the incomplete graph is indexed
    problems = malformed + check_answerability(bundle.incomplete, rows, bundle.rules)
    problems += ties
    incomplete = len(bundle.incomplete)
    if incomplete != complete - removals:
        problems.append(
            f"size mismatch: |incomplete| {incomplete} != |complete| {complete} - removals {removals}"
        )
    return {"questions": questions, "removals": removals, "violations": problems, "ok": not problems}
