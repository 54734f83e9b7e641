"""Output checks for one benchmark iteration, run outside the timed region.

Each check belongs to the stage invocation (or the episode) whose output it
reads; a failed check fails that operation. The caller puts `src/` on the
import path before importing this module.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from kgreason.agent import EpisodeTrace, replay_trace
from kgreason.bench import load_bundle, verify_bundle
from kgreason.env import EnvConfig
from kgreason.evaluate import compute_report
from kgreason.kg import KnowledgeGraph
from kgreason.mining import compute_metrics, read_rules_jsonl

FAILED_TERMINATIONS = ("aborted", "error")


def sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


def rules_match_metrics(kg: Path, rules: Path) -> list[str]:
    """Rules whose stored metrics differ from a fresh compute_metrics."""
    g = KnowledgeGraph.load(kg)
    return [
        mr.rule_id
        for mr in read_rules_jsonl(rules)
        if compute_metrics(g, mr.rule) != mr.metrics
    ]


def _read_jsonl(path: Path) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def _episodes(traces: Path) -> list[EpisodeTrace]:
    grouped: dict[str, list[dict]] = {}
    for row in _read_jsonl(traces):
        grouped.setdefault(row["question_id"], []).append(row)
    return [EpisodeTrace.from_json_lines(rows) for rows in grouped.values()]


def check_pipeline(bundle_dir: Path, predictions: Path, traces: Path, report: Path) -> dict:
    """Verdicts for the bench, run and eval stages of one iteration, plus the
    number of episodes and how many of them failed (ended aborted or in
    error, or did not replay)."""
    bundle = load_bundle(bundle_dir)
    gold = [q.to_json() for q in bundle.questions]
    preds = _read_jsonl(predictions)
    pred_ids = [p["id"] for p in preds]
    episodes = _episodes(traces)

    failed_episodes = 0
    for trace in episodes:
        if trace.termination in FAILED_TERMINATIONS:
            failed_episodes += 1
            continue
        try:
            replay_trace(bundle.incomplete, trace, EnvConfig())
        except AssertionError:
            failed_episodes += 1

    expected = compute_report(gold, preds)
    expected.notes.append("split=all")
    with open(report, encoding="utf-8") as fh:
        written = json.load(fh)

    question_ids = sorted(q["id"] for q in gold)
    return {
        "bench": verify_bundle(bundle_dir)["ok"],
        "run": sorted(pred_ids) == question_ids and len(episodes) == len(question_ids),
        "eval": written == json.loads(json.dumps(expected.to_json())),
        "episodes": len(episodes),
        "failed_episodes": failed_episodes,
    }
