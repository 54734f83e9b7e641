import random

import pytest

from kgreason.evaluate import (
    compute_report,
    normalize_answer,
    prediction_set,
)

from oracles import naive_report


class TestNormalization:
    def test_comma_split(self):
        assert prediction_set("Paris, London") == {"paris", "london"}

    def test_articles_punctuation_whitespace(self):
        assert prediction_set("The  Hague.") == {"hague"}

    def test_pad_token_eliminated(self):
        assert prediction_set("<pad> paris <pad>") == {"paris"}

    def test_whitespace_split_only_without_comma(self):
        assert prediction_set("Paris  London") == {"paris", "london"}
        assert prediction_set("Paris London, Berlin") == {"paris london", "berlin"}

    def test_newline_split(self):
        assert prediction_set("Paris,\nLondon\nBerlin") == {"paris", "london", "berlin"}

    def test_empty_input(self):
        assert prediction_set("") == set()
        assert prediction_set("  ,  , ") == set()

    def test_article_removal_is_whole_token(self):
        assert normalize_answer("theater") == "theater"
        assert normalize_answer("a theater") == "theater"

    def test_idempotent(self):
        for raw in ("Paris, London", "The  Hague.", "<pad> a  b,c"):
            once = prediction_set(raw)
            again = prediction_set(", ".join(sorted(once)))
            assert again == once

    def test_pre_split_lists_not_resplit(self):
        assert prediction_set(["New York City", "Paris"]) == {"new york city", "paris"}


def make_gold(qid, answers, hard):
    return {"id": qid, "answers": answers, "hard_answer": hard}


class TestReport:
    def test_partial_overlap(self):
        gold = [make_gold("q1", ["ax", "bx", "cx"], "ax")]
        preds = [{"id": "q1", "prediction": ["ax", "dx"]}]
        r = compute_report(gold, preds)
        assert r.precision == 0.5
        assert abs(r.recall - 1 / 3) < 1e-12
        assert abs(r.f1 - 0.4) < 1e-12
        assert r.hits_any == 1.0

    def test_empty_prediction(self):
        gold = [make_gold("q1", ["ax"], "ax")]
        r = compute_report(gold, [{"id": "q1", "prediction": []}])
        assert r.precision == 0.0
        assert r.recall == 0.0
        assert r.f1 == 0.0
        assert r.hits_any == 0.0
        assert r.per_question[0]["empty_prediction"]

    def test_hhr_half(self):
        gold = [make_gold("q1", ["ax", "bx"], "ax"), make_gold("q2", ["cx", "dx"], "cx")]
        preds = [
            {"id": "q1", "prediction": ["ax"]},
            {"id": "q2", "prediction": ["dx"]},
        ]
        r = compute_report(gold, preds)
        assert r.hits_any == 1.0
        assert r.hits_hard == 0.5
        assert r.hhr == 0.5

    def test_missing_prediction_counts_empty_and_reported(self):
        gold = [make_gold("q1", ["ax"], "ax"), make_gold("q2", ["bx"], "bx")]
        r = compute_report(gold, [{"id": "q1", "prediction": ["ax"]}])
        assert r.hits_any == 0.5
        rows = {row["id"]: row for row in r.per_question}
        assert rows["q2"]["missing_prediction"]

    def test_duplicate_prediction_ids_rejected(self):
        gold = [make_gold("q1", ["ax"], "ax")]
        preds = [{"id": "q1", "prediction": ["ax"]}, {"id": "q1", "prediction": ["bx"]}]
        with pytest.raises(ValueError, match="duplicate"):
            compute_report(gold, preds)

    def test_raw_string_predictions(self):
        gold = [make_gold("q1", ["Paris", "London"], "Paris")]
        r = compute_report(gold, [{"id": "q1", "prediction": "The Paris, london."}])
        assert r.hits_any == 1.0
        assert r.recall == 1.0
        assert r.hits_hard == 1.0

    def test_permutation_invariance(self):
        rng = random.Random(0)
        gold = [make_gold(f"q{i}", [f"a{i}", f"b{i}"], f"a{i}") for i in range(20)]
        preds = [
            {"id": f"q{i}", "prediction": [f"a{i}"] if i % 2 else [f"z{i}"]}
            for i in range(20)
        ]
        r1 = compute_report(gold, preds)
        shuffled = gold[:]
        rng.shuffle(shuffled)
        preds2 = preds[:]
        rng.shuffle(preds2)
        r2 = compute_report(shuffled, preds2)
        for k in ("hits_any", "precision", "recall", "f1", "hits_hard", "hhr"):
            assert getattr(r1, k) == getattr(r2, k)

    def test_metric_bounds_and_f1_harmonic(self):
        rng = random.Random(1)
        pool = [f"e{i}" for i in range(30)]
        for _ in range(100):
            n = rng.randint(1, 10)
            gold, preds = [], []
            for i in range(n):
                answers = rng.sample(pool, rng.randint(1, 6))
                gold.append(make_gold(f"q{i}", answers, rng.choice(answers)))
                preds.append({"id": f"q{i}", "prediction": rng.sample(pool, rng.randint(0, 6))})
            r = compute_report(gold, preds)
            assert 0.0 <= r.hits_hard <= r.hits_any <= 1.0
            for row in r.per_question:
                p, rec, f1 = row["precision"], row["recall"], row["f1"]
                assert 0.0 <= f1 <= 1.0
                if p + rec > 0:
                    assert abs(f1 - 2 * p * rec / (p + rec)) < 1e-12
                else:
                    assert f1 == 0.0

    def test_agreement_with_naive_oracle(self):
        rng = random.Random(2)
        pool = [f"e{i}" for i in range(40)]
        for _ in range(50):
            n = rng.randint(1, 20)
            gold, preds = [], []
            gold_sets, pred_sets, hards = [], [], []
            for i in range(n):
                answers = rng.sample(pool, rng.randint(1, 8))
                hard = rng.choice(answers)
                predicted = rng.sample(pool, rng.randint(0, 8))
                gold.append(make_gold(f"q{i}", answers, hard))
                preds.append({"id": f"q{i}", "prediction": predicted})
                gold_sets.append(set(answers))
                pred_sets.append(set(predicted))
                hards.append(hard)
            r = compute_report(gold, preds)
            expected = naive_report(gold_sets, pred_sets, hards)
            for k, v in expected.items():
                assert abs(getattr(r, k) - v) <= 1e-12
