"""In-memory knowledge graph: loading, indexing, copy-on-remove, anonymization.

Triples are (subject, predicate, object) id strings. Entities and predicates
are interned to integer handles internally; handles are assigned in
lexicographic id order, so sorting by handle equals sorting by id string and
every index list comes out in deterministic lexicographic order.
"""

from __future__ import annotations

import hashlib
import json
import logging
import random
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple

log = logging.getLogger(__name__)

Triple = tuple[str, str, str]


class HandleIndex(NamedTuple):
    """A graph's indices over integer handles: entity and predicate handles
    are positions in `entities` / `predicates`, and index values are sorted
    tuples."""

    tri: frozenset   # (s, p, o)
    sp: dict         # (s, p) -> objects
    op: dict         # (o, p) -> subjects
    byp: dict        # p -> (s, o) pairs
    out: dict        # s -> (p, o) pairs
    inc: dict        # o -> (p, s) pairs
    eid: dict        # entity id -> handle
    pid: dict        # predicate -> handle
    ents: tuple      # handle -> entity id


class KnowledgeGraph:
    """Immutable indexed triple set.

    Safe to share across concurrent readers; mutation ops return new graphs.
    """

    __slots__ = (
        "_ents", "_eid", "_preds", "_pid", "_tri",
        "_out", "_in", "_sp", "_op", "_byp", "_pair_preds", "duplicates_collapsed",
    )

    def __init__(self, triples: Iterable[Triple]):
        tri = set()
        raw = 0
        for s, p, o in triples:
            raw += 1
            tri.add((s, p, o))
        self.duplicates_collapsed = raw - len(tri)

        ents = sorted({s for s, _, _ in tri} | {o for _, _, o in tri})
        preds = sorted({p for _, p, _ in tri})
        self._ents: tuple[str, ...] = tuple(ents)
        self._preds: tuple[str, ...] = tuple(preds)
        self._eid = {e: i for i, e in enumerate(ents)}
        self._pid = {p: i for i, p in enumerate(preds)}

        eid, pid = self._eid, self._pid
        itri = {(eid[s], pid[p], eid[o]) for s, p, o in tri}
        self._tri = frozenset(itri)

        out: dict[int, list] = {}
        inc: dict[int, list] = {}
        sp: dict[tuple[int, int], list] = {}
        op: dict[tuple[int, int], list] = {}
        byp: dict[int, list] = {}
        for s, p, o in itri:
            out.setdefault(s, []).append((p, o))
            inc.setdefault(o, []).append((p, s))
            sp.setdefault((s, p), []).append(o)
            op.setdefault((o, p), []).append(s)
            byp.setdefault(p, []).append((s, o))
        self._out = {k: tuple(sorted(v)) for k, v in out.items()}
        self._in = {k: tuple(sorted(v)) for k, v in inc.items()}
        self._sp = {k: tuple(sorted(v)) for k, v in sp.items()}
        self._op = {k: tuple(sorted(v)) for k, v in op.items()}
        self._byp = {k: tuple(sorted(v)) for k, v in byp.items()}
        self._pair_preds: dict[tuple[int, int], tuple[int, ...]] | None = None

    # -- construction ------------------------------------------------------

    @classmethod
    def load(cls, path: str | Path) -> "KnowledgeGraph":
        """Parse a UTF-8 TSV triple file (subject<TAB>predicate<TAB>object)."""
        triples = []
        with open(path, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.rstrip("\n").rstrip("\r")
                if not line:
                    continue
                fields = line.split("\t")
                if len(fields) != 3 or not all(fields):
                    raise ValueError(
                        f"{path}: line {lineno}: expected 3 tab-separated fields, got {line!r}"
                    )
                triples.append(tuple(fields))
        if not triples:
            raise ValueError(f"{path}: empty graph")
        g = cls(triples)
        if g.duplicates_collapsed:
            log.info("%s: collapsed %d duplicate triples", path, g.duplicates_collapsed)
        return g

    def save(self, path: str | Path) -> None:
        """Write the graph back out as sorted TSV (load/save round-trips)."""
        with open(path, "w", encoding="utf-8") as fh:
            for s, p, o in self.triples():
                fh.write(f"{s}\t{p}\t{o}\n")

    # -- queries -----------------------------------------------------------

    def __len__(self) -> int:
        return len(self._tri)

    def __contains__(self, t: Triple) -> bool:
        s, p, o = t
        si = self._eid.get(s)
        pi = self._pid.get(p)
        oi = self._eid.get(o)
        if si is None or pi is None or oi is None:
            return False
        return (si, pi, oi) in self._tri

    def __eq__(self, other) -> bool:
        if not isinstance(other, KnowledgeGraph):
            return NotImplemented
        return set(self.triples()) == set(other.triples())

    def __hash__(self):
        raise TypeError("KnowledgeGraph is not hashable")

    @property
    def entities(self) -> tuple[str, ...]:
        return self._ents

    @property
    def predicates(self) -> tuple[str, ...]:
        return self._preds

    @property
    def handles(self) -> HandleIndex:
        """The integer-handle indices, for the rule miner; read-only."""
        return HandleIndex(
            self._tri, self._sp, self._op, self._byp, self._out, self._in,
            self._eid, self._pid, self._ents,
        )

    @property
    def pair_predicates(self) -> dict[tuple[int, int], tuple[int, ...]]:
        """(subject, object) handles -> predicate handles linking them;
        built on first use, read-only."""
        if self._pair_preds is None:
            pp: dict[tuple[int, int], list] = {}
            for s, p, o in self._tri:
                pp.setdefault((s, o), []).append(p)
            self._pair_preds = {k: tuple(sorted(v)) for k, v in pp.items()}
        return self._pair_preds

    def triples(self) -> Iterator[Triple]:
        """All triples in lexicographic order."""
        ents, preds = self._ents, self._preds
        for s, p, o in sorted(self._tri):
            yield (ents[s], preds[p], ents[o])

    def outgoing(self, e: str) -> tuple[tuple[str, str], ...]:
        """(predicate, object) pairs for edges leaving e; unknown entity -> ()."""
        ei = self._eid.get(e)
        if ei is None:
            return ()
        ents, preds = self._ents, self._preds
        return tuple((preds[p], ents[o]) for p, o in self._out.get(ei, ()))

    def incoming(self, e: str) -> tuple[tuple[str, str], ...]:
        """(predicate, subject) pairs for edges entering e."""
        ei = self._eid.get(e)
        if ei is None:
            return ()
        ents, preds = self._ents, self._preds
        return tuple((preds[p], ents[s]) for p, s in self._in.get(ei, ()))

    def objects(self, s: str, p: str) -> tuple[str, ...]:
        """Objects o with (s, p, o) in the graph."""
        si = self._eid.get(s)
        pi = self._pid.get(p)
        if si is None or pi is None:
            return ()
        ents = self._ents
        return tuple(ents[o] for o in self._sp.get((si, pi), ()))

    def subjects(self, o: str, p: str) -> tuple[str, ...]:
        """Subjects s with (s, p, o) in the graph."""
        oi = self._eid.get(o)
        pi = self._pid.get(p)
        if oi is None or pi is None:
            return ()
        ents = self._ents
        return tuple(ents[s] for s in self._op.get((oi, pi), ()))

    def pairs(self, p: str) -> tuple[tuple[str, str], ...]:
        """All (subject, object) pairs of predicate p."""
        pi = self._pid.get(p)
        if pi is None:
            return ()
        ents = self._ents
        return tuple((ents[s], ents[o]) for s, o in self._byp.get(pi, ()))

    def has_subject(self, s: str, p: str) -> bool:
        """True if some (s, p, y') exists (the partial-completeness witness)."""
        si = self._eid.get(s)
        pi = self._pid.get(p)
        if si is None or pi is None:
            return False
        return (si, pi) in self._sp

    # -- mutation by copy --------------------------------------------------

    def remove(self, victims: Iterable[Triple]) -> "KnowledgeGraph":
        """New graph without the victim triples; every victim must be present."""
        victims = set(victims)
        for t in victims:
            if t not in self:
                raise ValueError(f"triple not in graph: {t}")
        remaining = [t for t in self.triples() if t not in victims]
        return KnowledgeGraph(remaining)

    def rename_entities(self, mapping: dict[str, str]) -> "KnowledgeGraph":
        """Apply a bijective entity renaming; every entity must be mapped."""
        missing = [e for e in self._ents if e not in mapping]
        if missing:
            raise ValueError(f"mapping is missing entities, e.g. {missing[0]!r}")
        if len(set(mapping[e] for e in self._ents)) != len(self._ents):
            raise ValueError("entity mapping is not injective")
        return KnowledgeGraph(
            (mapping[s], p, mapping[o]) for s, p, o in self.triples()
        )

    def anonymize(self, seed: int) -> tuple["KnowledgeGraph", dict[str, str]]:
        """Replace entity ids with a seeded permutation of decimal index strings.

        Returns the renamed graph and the original->index mapping. Predicate
        names are kept; structure is isomorphic and the same seed always
        yields the same mapping.
        """
        rng = random.Random(seed)
        indices = list(range(len(self._ents)))
        rng.shuffle(indices)
        mapping = {e: str(i) for e, i in zip(self._ents, indices)}
        return self.rename_entities(mapping), mapping


def write_anonymization_map(mapping: dict[str, str], path: str | Path) -> None:
    """JSON map {original_id: {index, label}}; the original id doubles as label."""
    payload = {orig: {"index": idx, "label": orig} for orig, idx in mapping.items()}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)


def sha256_file(path: str | Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()
