import os
import random
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from kgreason.kg import KnowledgeGraph
from kgreason.rules import Atom, HornRule, Term


X, Y, Z = Term.var("X"), Term.var("Y"), Term.var("Z")


@pytest.fixture
def no_proxy_env(monkeypatch):
    """No `<scheme>_proxy` variable, in any case, so endpoint calls go direct."""
    for name in list(os.environ):
        if name.lower().endswith("_proxy"):
            monkeypatch.delenv(name)


@pytest.fixture
def toy_family():
    """4-triple toy: one parent/son chain plus a sibling pair."""
    return KnowledgeGraph(
        [
            ("justin", "hasParent", "jeremy"),
            ("jeremy", "hasSon", "jaxon"),
            ("justin", "hasSibling", "jaxon"),
            ("jaxon", "hasSibling", "justin"),
        ]
    )


@pytest.fixture
def composition_rule():
    return HornRule(
        Atom("hasSibling", X, Z),
        (Atom("hasParent", X, Y), Atom("hasSon", Y, Z)),
    )


@pytest.fixture
def celebrity_family():
    """Minimal graph reproducing the worked 2-hop exploration example."""
    return KnowledgeGraph(
        [
            ("Justin Bieber", "hasParent", "Jeremy Bieber"),
            ("Justin Bieber", "hasSibling", "Jazmyn Bieber"),
            ("Jeremy Bieber", "hasSon", "Jaxon Bieber"),
            ("Jazmyn Bieber", "hasSibling", "Jaxon Bieber"),
            ("Jeremy Bieber", "hasSpouse", "Erin Wagner"),
        ]
    )


def random_graph(rng: random.Random, n_entities: int, n_predicates: int, n_triples: int):
    """Random multigraph-free triple set; may come out smaller than asked."""
    ents = [f"e{i}" for i in range(n_entities)]
    preds = [f"p{i}" for i in range(n_predicates)]
    triples = set()
    for _ in range(n_triples):
        triples.add((rng.choice(ents), rng.choice(preds), rng.choice(ents)))
    return KnowledgeGraph(triples)


# family-style world used by the end-to-end and acceptance tests: hasUncle is
# exactly hasParent-then-hasSibling. Uncles have no outgoing sibling edges (so
# sibling-transitivity and uncle-of-sibling chains never ground) and john is a
# sibling of parents in both families (so the inverse triangle rules predict
# cross-family parents and drop below confidence 0.9).
UNCLE_WORLD = [
    # family A: children justin & anna; parents mary & david
    ("justin", "hasParent", "mary"),
    ("justin", "hasParent", "david"),
    ("anna", "hasParent", "mary"),
    ("anna", "hasParent", "david"),
    ("mary", "hasSibling", "john"),
    ("mary", "hasSibling", "pete"),
    ("david", "hasSibling", "sara"),
    ("justin", "hasUncle", "john"),
    ("justin", "hasUncle", "pete"),
    ("justin", "hasUncle", "sara"),
    ("anna", "hasUncle", "john"),
    ("anna", "hasUncle", "pete"),
    ("anna", "hasUncle", "sara"),
    # family B: child finn; parents gina & hugo; john is also gina's sibling
    ("finn", "hasParent", "gina"),
    ("finn", "hasParent", "hugo"),
    ("gina", "hasSibling", "ivan"),
    ("gina", "hasSibling", "john"),
    ("hugo", "hasSibling", "kate"),
    ("hugo", "hasSibling", "liam"),
    ("finn", "hasUncle", "ivan"),
    ("finn", "hasUncle", "john"),
    ("finn", "hasUncle", "kate"),
    ("finn", "hasUncle", "liam"),
]


@pytest.fixture
def uncle_world():
    return KnowledgeGraph(UNCLE_WORLD)


@pytest.fixture
def uncle_world_file(tmp_path):
    path = tmp_path / "uncle_world.tsv"
    with open(path, "w", encoding="utf-8") as fh:
        for s, p, o in UNCLE_WORLD:
            fh.write(f"{s}\t{p}\t{o}\n")
    return path
