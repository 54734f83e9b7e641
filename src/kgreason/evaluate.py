"""Output normalization and question-set metrics.

Raw model output is split into candidate answers (commas/newlines first;
bare whitespace only when no comma is present), each piece lowercased,
stripped of articles, punctuation, extra whitespace and <pad> tokens, and
the resulting sets are scored against the gold answer sets.
"""

from __future__ import annotations

import json
import re
import string
from dataclasses import dataclass, field
from pathlib import Path

ARTICLES = {"a", "an", "the"}
_PUNCT_TABLE = str.maketrans("", "", string.punctuation)
_PAD_RE = re.compile(r"<pad>", re.IGNORECASE)

SPLIT_PRECEDENCE_NOTE = (
    "raw strings split on commas/newlines; bare whitespace splitting applies "
    "only when the string contains no comma"
)
EMPTY_PREDICTION_NOTE = "per-question precision with an empty prediction set is 0"

# the report's metrics in report and log order: five per-question means, then hhr
METRICS = ("hits_any", "precision", "recall", "f1", "hits_hard", "hhr")


def normalize_answer(text: str) -> str:
    """Normalize one answer string (no splitting)."""
    text = _PAD_RE.sub(" ", text)
    text = text.lower().translate(_PUNCT_TABLE)
    tokens = [t for t in text.split() if t not in ARTICLES]
    return " ".join(tokens)


def prediction_set(prediction) -> set[str]:
    """Normalized set from either a raw string or a pre-split list of strings."""
    if isinstance(prediction, str):
        prediction = re.split(r"[,\n]", prediction) if "," in prediction else prediction.split()
    out = {normalize_answer(piece) for piece in prediction}
    out.discard("")
    return out


@dataclass
class MetricsReport:
    hits_any: float
    precision: float
    recall: float
    f1: float
    hits_hard: float
    hhr: float
    num_questions: int
    per_question: list[dict] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def to_json(self) -> dict:
        return {
            "metrics": {name: getattr(self, name) for name in METRICS},
            "num_questions": self.num_questions,
            "per_question": self.per_question,
            "notes": self.notes,
        }


def compute_report(gold: list[dict], predictions: list[dict]) -> MetricsReport:
    """Score predictions against gold questions.

    gold rows need id, answers and hard_answer; prediction rows need id and
    prediction, a string or a list of strings. Each gold id may have one
    prediction record at most; a missing one counts as an empty prediction
    and is reported per question. Duplicate prediction ids are an error.
    """
    by_id: dict[str, dict] = {}
    for row in predictions:
        qid = row["id"]
        if qid in by_id:
            raise ValueError(f"duplicate prediction id: {qid}")
        by_id[qid] = row

    n = len(gold)
    if n == 0:
        raise ValueError("no gold questions to evaluate")
    rows = []
    for q in gold:
        gold_set = {normalize_answer(a) for a in q["answers"]}
        gold_set.discard("")
        hard = normalize_answer(q["hard_answer"])
        rec = by_id.get(q["id"])
        pred_set = prediction_set(rec["prediction"]) if rec is not None else set()
        inter = len(pred_set & gold_set)
        rows.append(
            {
                "id": q["id"],
                "hit": inter > 0,
                "hard_hit": bool(hard) and hard in pred_set,
                "precision": inter / len(pred_set) if pred_set else 0.0,
                "recall": inter / len(gold_set) if gold_set else 0.0,
                "f1": 2 * inter / (len(pred_set) + len(gold_set)) if (pred_set or gold_set) else 0.0,
                "predicted": sorted(pred_set),
                "gold": sorted(gold_set),
                "hard_answer": hard,
                "missing_prediction": rec is None,
                "empty_prediction": not pred_set,
            }
        )

    means = {}
    for name, field in zip(METRICS, ("hit", "precision", "recall", "f1", "hard_hit")):
        total = 0.0  # not sum(): from Python 3.12 on it rounds differently
        for row in rows:
            total += row[field]
        means[name] = total / n
    return MetricsReport(
        **means,
        hhr=means["hits_hard"] / means["hits_any"] if means["hits_any"] > 0 else 0.0,
        num_questions=n,
        per_question=rows,
        notes=[SPLIT_PRECEDENCE_NOTE, EMPTY_PREDICTION_NOTE],
    )


def write_report(report: MetricsReport, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report.to_json(), fh, indent=2)


def write_report_csv(report: MetricsReport, path: str | Path) -> None:
    """Per-question rows as CSV for external plotting tools."""
    import csv

    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id", "hit", "hard_hit", "precision", "recall", "f1"])
        for row in report.per_question:
            writer.writerow(
                [
                    row["id"],
                    int(row["hit"]),
                    int(row["hard_hit"]),
                    f"{row['precision']:.6f}",
                    f"{row['recall']:.6f}",
                    f"{row['f1']:.6f}",
                ]
            )
