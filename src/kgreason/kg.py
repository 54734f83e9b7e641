"""In-memory knowledge graph: loading, indexing, copy-on-remove, anonymization.

Triples are (subject, predicate, object) id strings. Entities and predicates
are interned to integer handles; handles are assigned in
lexicographic id order, so sorting by handle equals sorting by id string. A
graph keeps one sorted list of (s, p, o) handle triples, which `triples()`,
`save()` and `remove()` read as it is. The rule miner joins over the public,
read-only handle indices, in which an entity handle is a position in
`entities` and a predicate handle one in `predicates`:

    tri  frozenset of (s, p, o)
    sp   (s, p) -> objects             op   (o, p) -> subjects
    byp  p -> (s, o) pairs
    out  s -> (p, o) pairs             inc  o -> (p, s) pairs
    eid  entity id -> handle           pid  predicate -> handle

The values of sp, op, byp, out and inc are sorted tuples. Each of these
indices, and tri, is built from the list, or from one re-sort of it, the
first time it is read, so its tuples come out in deterministic lexicographic
order without a sort per key, and a stage pays only for the indices it
reads: the joins of `bench` read tri, sp, op and byp, and never build the
edge lists out and inc.

Every pinned artifact but one is written in one of two JSON encodings,
defined here and nowhere else: `json_line` (one line, sorted keys) for each
row of a rules file, bundle record file, predictions file and trace, and for
the state digest's payload; `json_document` (indent 2, sorted keys) for the
manifests, the anonymization map and `inspect`'s output. The one other is
`eval`'s report, in a third layout with one writer, `evaluate.write_report`:
`json.dump` at indent 2, its keys in report order. `read_rows` is the one
reader of JSON-lines files, refusing by file and line a row that lacks a
field or holds one of the wrong kind (`mistyped`), and `write_rows` writes
each one written whole. Every hash is `sha256`, the interpreter's built-in
SHA-256: `hashlib` would load OpenSSL's libcrypto, a few MB of RSS, to hash
a few hundred bytes at a time, and is only the fallback where the built-in
module is missing.
"""

from __future__ import annotations

import json
import logging
import random
from functools import cached_property
from itertools import groupby
from operator import itemgetter
from pathlib import Path
from typing import Iterable, Iterator, Mapping

try:
    from _sha2 import sha256  # Python 3.12+
except ImportError:
    try:
        from _sha256 import sha256  # Python 3.10 and 3.11
    except ImportError:
        from hashlib import sha256

log = logging.getLogger(__name__)

Triple = tuple[str, str, str]

# one shared encoder each; `encode` keeps no state between calls
json_line = json.JSONEncoder(sort_keys=True).encode
json_document = json.JSONEncoder(indent=2, sort_keys=True).encode

# the kinds of value a row field can be required to hold, each named by the
# words a refusal uses; ANY holds every value
STRING, STRINGS, TRIPLE, ANY = "a string", "a list of strings", "three strings", None
STRING_OR_STRINGS = "a string or a list of strings"


def mistyped(row: dict, kinds: Mapping[str, str | None]) -> str | None:
    """`<field> <value> is not <kind>` for the first field named in `kinds`
    whose value in `row` is not of its kind, or None if every one is."""
    for name, kind in kinds.items():
        value = row[name]
        if isinstance(value, str):
            fits = kind in (ANY, STRING, STRING_OR_STRINGS)
        else:
            fits = kind is ANY or (kind != STRING and isinstance(value, list)
                                   and all(isinstance(v, str) for v in value)
                                   and (kind != TRIPLE or len(value) == 3))
        if not fits:
            return f"{name} {value!r} is not {kind}"
    return None


def read_rows(path: str | Path, fields: Mapping[str, str | None],
              split: str = "all") -> Iterator[dict]:
    """Yield the named fields of each row of a JSON-lines file in `split`
    ("all" for every row), in file order; a row with no split reads as "".
    A line that is no JSON object, or a row of the split that lacks a field
    or holds one not of its kind in `fields`, is refused with a ValueError
    naming the file and the line."""
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                row = json.loads(line)
            except json.JSONDecodeError:
                row = None
            if not isinstance(row, dict):
                raise ValueError(f"{path}: line {lineno}: not a JSON object")
            if split in ("all", row.get("split", "")):
                try:
                    row = {k: row[k] for k in fields}
                except KeyError as err:
                    raise ValueError(f"{path}: line {lineno}: missing field {err}") from None
                if why := mistyped(row, fields):
                    raise ValueError(f"{path}: line {lineno}: {why}")
                yield row


def write_rows(path: str | Path, rows: Iterable[dict]) -> None:
    """Each row as one `json_line`, written as it comes."""
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json_line(row) + "\n")


_FIRST, _FIRST_TWO = itemgetter(0), itemgetter(0, 1)
_LAST_TWO, _LAST = itemgetter(1, 2), itemgetter(2)


def _group(rows: list, key, value) -> dict:
    """{key(row): tuple of value(row)} over rows sorted by key, so every
    tuple comes out in row order."""
    return {k: tuple(map(value, run)) for k, run in groupby(rows, key)}


def read_triples(path: str | Path) -> Iterator[Triple]:
    """Each triple of a UTF-8 TSV file (subject<TAB>predicate<TAB>object) in
    file order, duplicates kept and blank lines skipped; a line without three
    non-empty fields, or a file with no triple, raises a ValueError."""
    n = 0
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
            n += 1
            yield tuple(fields)
    if not n:
        raise ValueError(f"{path}: empty graph")


class KnowledgeGraph:
    """Immutable indexed triple set.

    Holds the interned entity and predicate tables and one sorted list of
    (s, p, o) handle triples. The handle indices listed in the module
    docstring, and `pair_predicates`, are each built from that list the
    first time they are read and cached: a racing first read may build one
    twice, but publishes it only once it is complete, so the graph is safe
    to share across concurrent readers. Mutation ops return new graphs.
    """

    def __init__(self, triples: Iterable[Triple]):
        # each id string is kept once, under a handle in order of first
        # appearance, and the triples only as handle tuples; the handles are
        # renumbered into id order once everything is read
        first: dict[str, int] = {}
        pfirst: dict[str, int] = {}
        tri = set()
        raw = 0
        for s, p, o in triples:
            raw += 1
            tri.add((first.setdefault(s, len(first)), pfirst.setdefault(p, len(pfirst)),
                     first.setdefault(o, len(first))))
        ents, preds = sorted(first), sorted(pfirst)
        eid = {e: i for i, e in enumerate(ents)}
        pid = {p: i for i, p in enumerate(preds)}
        enew, pnew = [eid[e] for e in first], [pid[p] for p in pfirst]  # in handle order
        spo = sorted([(enew[s], pnew[p], enew[o]) for s, p, o in tri])
        self._ents, self.eid, self._preds, self.pid = tuple(ents), eid, tuple(preds), pid
        self._spo: list[tuple[int, int, int]] = spo
        self.duplicates_collapsed = raw - len(tri)

    # -- handle indices, each built on first read; read-only -------------------

    @cached_property
    def tri(self) -> frozenset:
        return frozenset(self._spo)

    @cached_property
    def sp(self) -> dict:
        return _group(self._spo, _FIRST_TWO, _LAST)

    @cached_property
    def op(self) -> dict:
        return _group(sorted([(o, p, s) for s, p, o in self._spo]), _FIRST_TWO, _LAST)

    @cached_property
    def byp(self) -> dict:
        return _group(sorted([(p, s, o) for s, p, o in self._spo]), _FIRST, _LAST_TWO)

    @cached_property
    def out(self) -> dict:
        return _group(self._spo, _FIRST, _LAST_TWO)

    @cached_property
    def inc(self) -> dict:
        return _group(sorted([(o, p, s) for s, p, o in self._spo]), _FIRST, _LAST_TWO)

    @cached_property
    def pair_predicates(self) -> dict[tuple[int, int], tuple[int, ...]]:
        """(subject, object) handles -> predicate handles linking them."""
        pp: dict[tuple[int, int], list] = {}
        for s, p, o in self._spo:  # sorted, so each pair's predicates come in order
            pp.setdefault((s, o), []).append(p)
        return {k: tuple(v) for k, v in pp.items()}

    # -- construction ------------------------------------------------------

    @classmethod
    def load(cls, path: str | Path) -> "KnowledgeGraph":
        """The graph of a TSV file parsed by `read_triples`; duplicates collapse."""
        g = cls(read_triples(path))
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
        return len(self._spo)

    def __contains__(self, t: Triple) -> bool:
        # an unknown id looks up None, which no handle triple holds
        s, p, o = t
        return (self.eid.get(s), self.pid.get(p), self.eid.get(o)) in self.tri

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

    def triples(self) -> Iterator[Triple]:
        """All triples in lexicographic order."""
        ents, preds = self._ents, self._preds
        for s, p, o in self._spo:
            yield (ents[s], preds[p], ents[o])

    def outgoing(self, e: str) -> tuple[tuple[str, str], ...]:
        """(predicate, object) pairs for edges leaving e; unknown entity -> ()."""
        ents, preds = self._ents, self._preds
        return tuple((preds[p], ents[o]) for p, o in self.out.get(self.eid.get(e), ()))

    def incoming(self, e: str) -> tuple[tuple[str, str], ...]:
        """(predicate, subject) pairs for edges entering e."""
        ents, preds = self._ents, self._preds
        return tuple((preds[p], ents[s]) for p, s in self.inc.get(self.eid.get(e), ()))

    def objects(self, s: str, p: str) -> tuple[str, ...]:
        """Objects o with (s, p, o) in the graph."""
        ents = self._ents
        return tuple(ents[o] for o in self.sp.get((self.eid.get(s), self.pid.get(p)), ()))

    def subjects(self, o: str, p: str) -> tuple[str, ...]:
        """Subjects s with (s, p, o) in the graph."""
        ents = self._ents
        return tuple(ents[s] for s in self.op.get((self.eid.get(o), self.pid.get(p)), ()))

    # -- mutation by copy --------------------------------------------------

    def remove(self, victims: Iterable[Triple]) -> "KnowledgeGraph":
        """New graph without the victim triples; every victim must be present.
        Survivors keep their order; handles are renumbered, in order, only
        when an entity or a predicate loses its last triple."""
        victims = set(victims)
        for t in victims:
            if t not in self:
                raise ValueError(f"triple not in graph: {t}")
        eid, pid = self.eid, self.pid
        drop = {(eid[s], pid[p], eid[o]) for s, p, o in victims}
        spo = [t for t in self._spo if t not in drop]
        ents, preds = self._ents, self._preds
        kept_ents = {s for s, _, _ in spo} | {o for _, _, o in spo}
        kept_preds = {p for _, p, _ in spo}
        if len(kept_ents) < len(ents) or len(kept_preds) < len(preds):
            enew = {e: i for i, e in enumerate(sorted(kept_ents))}
            pnew = {p: i for i, p in enumerate(sorted(kept_preds))}
            spo = [(enew[s], pnew[p], enew[o]) for s, p, o in spo]
            ents = tuple(ents[e] for e in enew)
            preds = tuple(preds[p] for p in pnew)
            eid = {e: i for i, e in enumerate(ents)}
            pid = {p: i for i, p in enumerate(preds)}
        g = KnowledgeGraph.__new__(KnowledgeGraph)
        g._ents, g.eid, g._preds, g.pid, g._spo = ents, eid, preds, pid, spo
        g.duplicates_collapsed = 0
        return g

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
        return KnowledgeGraph((mapping[s], p, mapping[o]) for s, p, o in self.triples()), mapping


def write_anonymization_map(mapping: dict[str, str], path: str | Path) -> None:
    """JSON map {original_id: {index, label}}; the original id doubles as label."""
    payload = {orig: {"index": idx, "label": orig} for orig, idx in mapping.items()}
    Path(path).write_text(json_document(payload), encoding="utf-8")


def sha256_file(path: str | Path) -> str:
    h = sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()
