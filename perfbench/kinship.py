"""Seeded synthetic kinship knowledge graphs in the style of the Family KG.

Clans of three generations: a founding couple, their children (most of whom
marry in a spouse from outside the clan) and grandchildren. Every true fact
over the twelve Family relations is derived from that structure, and then a
seeded share is withheld so that rules are not all at PCA confidence 1.0.
Exactly `n_triples` facts are kept. A triple (a, r, b) reads "a is the r of
b", e.g. (p1, father, p2) says p1 is p2's father.

The same (n_triples, seed) always gives the same bytes.

    python3 perfbench/kinship.py --triples 1700 --seed 0 --out kg.tsv
"""

from __future__ import annotations

import argparse
import hashlib
import random
from pathlib import Path

RELATIONS = (
    "aunt", "brother", "daughter", "father", "husband", "mother",
    "nephew", "niece", "sister", "son", "uncle", "wife",
)

WITHHELD_SHARE = 0.15


class _Deck:
    """Seeded draws that cycle through a fixed multiset, so every seed gets
    the same mix of clan shapes and genders and only their order differs."""

    def __init__(self, rng: random.Random, cards):
        self.rng = rng
        self.cards = list(cards)
        self.pile: list = []

    def draw(self):
        if not self.pile:
            self.pile = list(self.cards)
            self.rng.shuffle(self.pile)
        return self.pile.pop()


class _Population:
    """People and every true fact among them, grown one clan at a time."""

    def __init__(self, rng: random.Random, next_id):
        self.next_id = next_id
        self.generation = _Deck(rng, (2, 2, 3, 3, 4))
        self.offspring = _Deck(rng, (1, 2, 2, 2, 3))
        self.married = _Deck(rng, (True, True, True, False))
        self.sex = _Deck(rng, (True, False))
        self.male: dict[str, bool] = {}
        self.facts: set[tuple[str, str, str]] = set()

    def person(self, male: bool) -> str:
        pid = self.next_id()
        self.male[pid] = male
        return pid

    def marry(self, a: str, b: str) -> None:
        h, w = (a, b) if self.male[a] else (b, a)
        self.facts.add((h, "husband", w))
        self.facts.add((w, "wife", h))

    def children(self, father: str, mother: str, n: int) -> list[str]:
        kids = [self.person(self.sex.draw()) for _ in range(n)]
        for c in kids:
            for parent, rel in ((father, "father"), (mother, "mother")):
                self.facts.add((parent, rel, c))
                self.facts.add((c, "son" if self.male[c] else "daughter", parent))
        for a in kids:
            for b in kids:
                if a != b:
                    self.facts.add((a, "brother" if self.male[a] else "sister", b))
        return kids

    def avuncular(self, elder: str, child: str) -> None:
        self.facts.add((elder, "uncle" if self.male[elder] else "aunt", child))
        self.facts.add((child, "nephew" if self.male[child] else "niece", elder))


def _grow_clan(pop: _Population) -> None:
    grandpa, grandma = pop.person(True), pop.person(False)
    pop.marry(grandpa, grandma)
    middle = pop.children(grandpa, grandma, pop.generation.draw())
    households = []
    for m in middle:
        if pop.married.draw():
            spouse = pop.person(not pop.male[m])
            pop.marry(m, spouse)
            dad, mum = (m, spouse) if pop.male[m] else (spouse, m)
            households.append((m, spouse, pop.children(dad, mum, pop.offspring.draw())))
    for m, _, kids in households:
        # the parent's siblings and those siblings' spouses are the kids' uncles and aunts
        elders = [o for o in middle if o != m] + [sp for o, sp, _ in households if o != m]
        for elder in elders:
            for kid in kids:
                pop.avuncular(elder, kid)


def generate(n_triples: int, seed: int) -> list[tuple[str, str, str]]:
    """Exactly n_triples facts, sorted, drawn from enough clans that about
    WITHHELD_SHARE of the true facts are left out."""
    if n_triples < 1:
        raise ValueError("n_triples must be positive")
    material = hashlib.sha256(f"kinship|{seed}".encode()).digest()
    rng = random.Random(int.from_bytes(material[:8], "big"))
    counter = iter(range(1, 10**9))
    width = len(str(n_triples)) + 1
    pop = _Population(rng, lambda: f"e{next(counter):0{width}d}")
    need = n_triples / (1.0 - WITHHELD_SHARE)
    while len(pop.facts) < need:
        _grow_clan(pop)
    kept = rng.sample(sorted(pop.facts), n_triples)
    return sorted(kept)


def write_tsv(triples, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for s, p, o in triples:
            fh.write(f"{s}\t{p}\t{o}\n")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--triples", type=int, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    write_tsv(generate(args.triples, args.seed), args.out)


if __name__ == "__main__":
    main()
