"""The kinship generator is a pure function of (size, seed).

    python3 -m pytest perfbench/tests
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import kinship  # noqa: E402


def _bytes(tmp_path: Path, n: int, seed: int, name: str) -> bytes:
    path = tmp_path / name
    kinship.write_tsv(kinship.generate(n, seed), path)
    return path.read_bytes()


def test_same_seed_same_bytes(tmp_path):
    assert _bytes(tmp_path, 1700, 7, "a.tsv") == _bytes(tmp_path, 1700, 7, "b.tsv")


def test_different_seed_different_bytes(tmp_path):
    assert _bytes(tmp_path, 1700, 7, "a.tsv") != _bytes(tmp_path, 1700, 8, "b.tsv")


def test_size_relations_and_density():
    for n in (1700, 17615):
        triples = kinship.generate(n, 3)
        assert len(triples) == len(set(triples)) == n
        assert {p for _, p, _ in triples} == set(kinship.RELATIONS)
        entities = {s for s, _, _ in triples} | {o for _, _, o in triples}
        assert 5.0 <= n / len(entities) <= 6.5


def test_some_facts_are_withheld():
    # every husband fact has its wife fact unless one of the pair was withheld
    triples = set(kinship.generate(1700, 3))
    husbands = {(s, o) for s, p, o in triples if p == "husband"}
    wives = {(o, s) for s, p, o in triples if p == "wife"}
    assert husbands != wives
    assert len(husbands & wives) > 0.5 * len(husbands)
