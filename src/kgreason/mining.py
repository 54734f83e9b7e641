"""Breadth-first Horn rule mining with support / head coverage / confidence /
PCA confidence, plus the grounding enumeration the benchmark builder uses.

Counting semantics: support is the number of distinct grounded heads whose
body also holds; confidence denominators count distinct head-argument pairs
projected from body groundings (not raw substitution tuples); the PCA
denominator keeps only pairs whose subject has at least one fact of the head
predicate.

Joins run over the graph's interned integer handles, with a join order
fixed once per rule (bound atoms first), and all of them in one engine,
_project, set at a time: each atom extends or filters a set of rows with one
comprehension over the sp / op / byp / tri indices, and after each atom the
rows keep only the variables a later atom or the projection still needs, so
every step deduplicates (semi-join reduction, then join: Yannakakis, VLDB
1981; AMIE 3 gets the same effect from per-variable count queries). The
steps are built once per shape of plan. The metrics project each body
component onto the head variables it holds. Grounding enumeration, like the
count query below, joins the head in after the body, so it yields only the
support groundings (body and head both hold) and decodes them to entity ids
as they are read.
An existence check -- head_binding_check, whose head bindings enter the
body as constants, or a body component holding neither head variable -- is
a projection onto no variable, non-empty iff the body holds.
Handles are assigned in lexicographic id order, so integer ordering doubles
as the deterministic lexicographic ordering the public contracts promise.

Refinement works on plain tuples: a candidate is its canonical signature
(rules.signature) plus the key formatted from it, and a HornRule is built
only for a candidate that enters the queue. mine() applies both prunings of
AMIE+ before any signature is computed. At the length cap only closed
candidates can be output, and the open ones are never built: refine tells
them apart on the raw atoms. And the head-coverage gate is a count query
(the projection query of AMIE): each parent's head and body are joined
once, onto X, Y and the variables its refinements read, and one pass over
those rows per operator and variable counts, for every one-atom refinement
at once, the distinct (X, Y) pairs the new atom holds on -- its support. A
signature and key are computed only for the refinements whose support
clears the head's threshold. A refinement keeps its parent's head, so
mine() runs one search per head predicate, each with its own queue and its
own set of enqueued keys, and sorts their concatenated outputs.
"""

from __future__ import annotations

import functools
import itertools
import logging
import math
import time
from collections import Counter, deque
from collections.abc import Sequence
from dataclasses import dataclass
from operator import itemgetter
from pathlib import Path
from typing import NamedTuple

from .kg import ANY, STRING, KnowledgeGraph, read_rows, write_rows
from .rules import (
    RULE_TYPES,
    Atom,
    HornRule,
    Term,
    canonicalize,  # noqa: F401  unused here; perfbench/traced.py patches it until ROADMAP item 1
    check_rule_shape,  # noqa: F401  likewise
    classify_rule,
    rule_from_json,
    rule_from_signature,
    rule_to_json,
    signature,
    signature_key,
    term_tag,
    variable_symbol,
)

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class RuleMetrics:
    support: int
    head_coverage: float
    confidence: float
    pca_confidence: float

    def to_json(self) -> dict:
        return {
            "support": self.support,
            "hc": self.head_coverage,
            "conf": self.confidence,
            "pca_conf": self.pca_confidence,
        }

    @classmethod
    def from_json(cls, obj: dict) -> "RuleMetrics":
        """The metrics of a rules row; a support that is no integer, or a
        rate that is no number, raises a TypeError."""
        support, *rates = values = obj["support"], obj["hc"], obj["conf"], obj["pca_conf"]
        if type(support) is not int or any(type(r) not in (int, float) for r in rates):
            raise TypeError(f"support, hc, conf, pca_conf {values!r}: not an integer and three numbers")
        return cls(*values)


@dataclass(frozen=True)
class MinedRule:
    rule_id: str
    rule: HornRule
    metrics: RuleMetrics
    rule_type: str


@dataclass
class MinerConfig:
    min_confidence: float = 0.3
    min_head_coverage: float = 0.1
    pca_threshold: float = 0.4
    max_rule_length: int = 4       # atom count including the head
    allow_instantiated_atoms: bool = False

    def __post_init__(self):
        for name in ("min_confidence", "min_head_coverage", "pca_threshold"):
            v = getattr(self, name)
            if not 0.0 < v <= 1.0:
                raise ValueError(f"{name} must be in (0, 1], got {v}")
        if self.max_rule_length < 2:
            raise ValueError("max_rule_length must be >= 2")


# -- compiled rules over integer handles ------------------------------------

# argspec (is_var, x): variable index when is_var, else entity handle
# (-2 marks a constant absent from the graph, which can never match)


class _Compiled(NamedTuple):
    head: tuple
    body: tuple
    nvars: int
    var_names: tuple


def _compile(g: KnowledgeGraph, rule: HornRule) -> _Compiled:
    """Compile a rule as written, tagged as in rules.signature: variables
    are numbered by first appearance, and variable "v{i}" becomes index i."""
    tags: dict[str, str] = {}
    rows = [(a.predicate, term_tag(a.arg1, tags), term_tag(a.arg2, tags)) for a in rule.atoms()]

    def carg(tag: str):
        return (True, int(tag[1:])) if tag[0] == "v" else (False, g.eid.get(tag[2:], -2))

    head, *body = [(g.pid.get(p, -1), carg(t1), carg(t2)) for p, t1, t2 in rows]
    return _Compiled(head, tuple(body), len(tags), tuple(tags))


def _make_plan(body) -> tuple:
    """Join order fixed once per rule: fully bound atoms first, half-bound
    next, unbound scans last. Order never changes results, only cost."""
    bound = set()
    remaining = list(body)
    plan = []
    while remaining:
        best_cost = best_i = None
        for i, (p, a1, a2) in enumerate(remaining):
            b1 = (not a1[0]) or (a1[1] in bound)
            b2 = (not a2[0]) or (a2[1] in bound)
            cost = 0 if (b1 and b2) else (1 if (b1 or b2) else 2)
            if best_cost is None or cost < best_cost:
                best_cost, best_i = cost, i
                if cost == 0:
                    break
        atom = remaining.pop(best_i)
        plan.append(atom)
        _, a1, a2 = atom
        if a1[0]:
            bound.add(a1[1])
        if a2[0]:
            bound.add(a2[1])
    return tuple(plan)


@functools.lru_cache(maxsize=4096)
def _steps(shape: tuple, natoms: int) -> tuple | None:
    """The steps of _project for one shape of plan and projection, built
    once: a shape lists the argspecs of the plan's atoms, then those of the
    projection, with None for each constant.

    Rows hold the values of a schema of argspecs. Each constant gets a
    column of its own, bound from the start, and each variable gets one
    from the atom that binds it. After every step the schema keeps only what
    a later atom or the key still needs. A step is (kind, position of the
    first argument, position of the second, picker of the old columns kept,
    whether the new column is kept, the columns of a scan). The result also
    holds the key picker at the end, None where the rows are the keys. None
    when a projected variable occurs in no atom."""
    consts = itertools.count()
    flat = [a or (False, next(consts)) for a in shape]
    atoms, proj = list(zip(flat[0 : 2 * natoms : 2], flat[1 : 2 * natoms : 2])), flat[2 * natoms :]
    if not {a for a in proj if a[0]} <= set(flat[: 2 * natoms]):
        return None
    schema = [a for a in flat if not a[0]]
    steps = []
    for k, (a1, a2) in enumerate(atoms):
        needed = {a for atom in atoms[k + 1 :] for a in atom} | set(proj)
        kept = [i for i, a in enumerate(schema) if a in needed]
        j1 = schema.index(a1) if a1 in schema else None
        j2 = schema.index(a2) if a2 in schema else None
        if j1 is not None and j2 is not None:
            kind, new = "tri", ()
        elif j1 is not None:
            kind, new = "sp", (a2,)
        elif j2 is not None:
            kind, new = "op", (a1,)
        else:
            kind, new = "scan", tuple(dict.fromkeys((a1, a2)))
        new = tuple(a for a in new if a in needed)
        scan = tuple((a1, a2).index(a) for a in new) if kind == "scan" else None
        steps.append((kind, j1, j2, _picker(kept), bool(new), scan))
        schema = [schema[i] for i in kept] + list(new)
    if len(proj) > 1 and schema == proj:
        return tuple(steps), None
    return tuple(steps), _picker([schema.index(a) for a in proj], scalar=len(proj) == 1)


def _picker(idx, scalar=False):
    """row -> the tuple of row[i] for i in idx, or row[idx[0]] when scalar.
    Consecutive positions are taken as a slice, so every picker runs in C."""
    if scalar:
        return itemgetter(idx[0])
    lo = idx[0] if idx else 0
    if list(idx) == list(range(lo, lo + len(idx))):
        return itemgetter(slice(lo, lo + len(idx)))
    return itemgetter(*idx)


def _facts(g: KnowledgeGraph, atom) -> list | tuple:
    """The (s, o) pairs of the facts that one atom matches, as its
    constants and a repeated variable constrain them."""
    p, (v1, x1), (v2, x2) = atom
    if not v1 and not v2:
        return [(x1, x2)] if (x1, p, x2) in g.tri else []
    if not v1:
        return [(x1, o) for o in g.sp.get((x1, p), ())]
    if not v2:
        return [(s, x2) for s in g.op.get((x2, p), ())]
    facts = g.byp.get(p, ())
    return [f for f in facts if f[0] == f[1]] if x1 == x2 else facts


def _columns(facts, cols) -> set:
    """A new set of the distinct tuples of columns `cols` (0: s, 1: o) of facts."""
    if cols == (0, 1):
        return set(facts)
    if cols == (1, 0):
        return {(o, s) for s, o in facts}
    if cols:
        i = cols[0]
        return {(f[i],) for f in facts}
    return {()} if facts else set()


def _project(g: KnowledgeGraph, plan, proj) -> set:
    """Distinct projections of the groundings of plan onto proj.

    proj holds argspecs; keys are values for one argspec, value tuples for
    more and () for none, so an empty proj is an existence check.
    The join runs set at a time (semi-join reduction, then join): every
    step extends or filters a set of rows with one comprehension over the
    graph's indices, then drops the columns no later atom and no key
    needs, so the set deduplicates rows that only differed there. A
    variable no later atom or key needs is only checked to exist. The set
    is empty when a projected variable occurs in no atom. Only the indices
    a step reads are built.
    """
    args = [a for atom in plan for a in atom[1:]] + list(proj)
    compiled = _steps(tuple(a if a[0] else None for a in args), len(plan))
    if compiled is None:
        return set()
    steps, key = compiled
    rows = {tuple(a[1] for a in args if not a[0])}
    for (p, a1, a2), (kind, j1, j2, pick, extend, scan) in zip(plan, steps):
        if not rows:
            return set()
        if kind == "tri":
            tri = g.tri
            rows = {pick(r) for r in rows if (r[j1], p, r[j2]) in tri}
        elif kind != "scan":
            # sp binds the object from the subject, op the subject from the object
            index, j = (g.sp, j1) if kind == "sp" else (g.op, j2)
            if extend:
                rows = {
                    b + (v,) for r in rows for b in (pick(r),) for v in index.get((r[j], p), ())
                }
            else:
                rows = {pick(r) for r in rows if (r[j], p) in index}
        else:
            values = _columns(_facts(g, (p, a1, a2)), scan)
            bases = {pick(r) for r in rows}
            rows = values if bases == {()} else {b + v for b in bases for v in values}
    return rows if key is None else {key(r) for r in rows}


def _components(body) -> list[tuple[set, list]]:
    """(variables, atoms) of each connected component of a compiled body.
    Atoms connect through shared variables, head variables included;
    constants do not connect."""
    groups: list[tuple[set, list]] = []
    for atom in body:
        vs = {a[1] for a in atom[1:] if a[0]}
        atoms = [atom]
        rest = []
        for gvars, gatoms in groups:
            if gvars & vs:
                vs |= gvars
                atoms = gatoms + atoms
            else:
                rest.append((gvars, gatoms))
        groups = rest + [(vs, atoms)]
    return groups


def _head_projections(g: KnowledgeGraph, c: _Compiled) -> tuple | None:
    """(pairs, xs, ys): each connected component of c's body projected onto
    the head variables it holds, (X, Y) pairs, X values or Y values, with
    None for what no component holds. A component with neither only has to
    hold once. None when a component has no grounding. c's head must hold
    two distinct variables X and Y; only its body is read."""
    _, hx, hy = c.head
    pairs = xs = ys = None
    for vs, atoms in _components(c.body):
        plan = _make_plan(atoms)
        if hx[1] in vs and hy[1] in vs:
            found = pairs = _project(g, plan, (hx, hy))
        elif hx[1] in vs:
            found = xs = _project(g, plan, (hx,))
        elif hy[1] in vs:
            found = ys = _project(g, plan, (hy,))
        else:
            found = _project(g, plan, ())
        if not found:
            return None
    return pairs, xs, ys


def _empty_body_metrics(g: KnowledgeGraph, chead) -> RuleMetrics:
    """Metrics for a body-less candidate: every substitution satisfies the
    empty body, so the denominators are computed arithmetically."""
    heads = len(_facts(g, chead))
    n_ents = len(g.entities)
    _, a1, a2 = chead
    head_vars = {a[1] for a in (a1, a2) if a[0]}
    body_count = n_ents ** len(head_vars)
    conf = heads / body_count if body_count else 0.0
    p = chead[0]
    if a1[0]:
        n_subj = len({s for s, _ in g.byp.get(p, ())})
        per_subject = n_ents if (a2[0] and a2[1] != a1[1]) else 1
        pca_den = n_subj * per_subject
    else:
        has = (a1[1], p) in g.sp
        pca_den = (n_ents if a2[0] else 1) if has else 0
    pca = heads / pca_den if pca_den else 0.0
    hc = 1.0 if heads else 0.0
    return RuleMetrics(heads, hc, conf, pca)


# -- public operations -------------------------------------------------------


def compute_metrics(g: KnowledgeGraph, rule: HornRule) -> RuleMetrics:
    """Support, head coverage, confidence and PCA confidence of rule in g.
    A head p(X, Y) is read off per-component projections (_head_projections),
    with xs × ys counted, never built; any other head off the whole body. A
    body lacking X or Y projects no pair and reads 0 on every metric, PCA
    confidence included, where the exhaustive oracle and the head-coverage
    gate let the missing variable range over every entity (ROADMAP 2(e))."""
    c = _compile(g, rule)
    if not rule.body:
        return _empty_body_metrics(g, c.head)
    h_p, hx, hy = c.head
    facts = _facts(g, c.head)
    pairs = set()  # a body lacking X or Y projects no pair
    if not (hx[0] and hy[0] and hx != hy):
        pairs = _project(g, _make_plan(c.body), (hx, hy))
    elif {hx[1], hy[1]} <= {a[1] for atom in c.body for a in atom[1:] if a[0]}:
        pairs, xs, ys = _head_projections(g, c) or (pairs, None, None)
    if pairs is None:  # separate components hold X and Y
        covered = xs.intersection(map(itemgetter(0), facts))
        support = sum(1 for x, y in facts if x in covered and y in ys)
        body_pairs, pca_den = len(xs) * len(ys), len(covered) * len(ys)
    else:
        support = sum(1 for x, y in pairs if (x, h_p, y) in g.tri)
        body_pairs, pca_den = len(pairs), sum(1 for x, _ in pairs if (x, h_p) in g.sp)
    confidence = support / body_pairs if body_pairs else 0.0
    pca = support / pca_den if pca_den else 0.0
    hc = support / len(facts) if facts else 0.0
    return RuleMetrics(support, hc, confidence, pca)


class _Groundings(Sequence):
    """Sorted value tuples read as {variable: entity id} dicts, each dict
    built only when its item is read."""

    def __init__(self, rows: list, names: tuple, ents: tuple):
        self.rows, self.names, self.ents = rows, names, ents

    def __len__(self) -> int:
        return len(self.rows)

    def __getitem__(self, i: int) -> dict[str, str]:
        return dict(zip(self.names, map(self.ents.__getitem__, self.rows[i])))


def enumerate_groundings(g: KnowledgeGraph, rule: HornRule) -> Sequence[dict[str, str]]:
    """The rule's support groundings: total substitutions under which every
    body atom and the head hold in g. A rule whose head holds a variable
    that no body atom holds has none.

    One join of body and head, the head last so that it filters as soon as
    its arguments are bound. Deterministic: sorted lexicographically over
    bound entity ids with variables in canonical (first-appearance,
    head-first) order. The result is a read-only sequence that decodes an
    item only when it is read, so sampling a few pays for those few.
    """
    c = _compile(g, rule)
    sols = set()
    # joined in, the head must not bind a variable that the body leaves free
    if len({a[1] for atom in c.body for a in atom[1:] if a[0]}) == c.nvars:
        every = tuple((True, i) for i in range(c.nvars))
        sols = _project(g, _make_plan(c.body + (c.head,)), every)
    if c.nvars == 1:
        sols = {(v,) for v in sols}
    return _Groundings(sorted(sols), c.var_names, g.entities)


def _substitute(a: Atom, sigma: dict[str, str]) -> tuple[str, str, str]:
    s = sigma[a.arg1.name] if a.arg1.is_var else a.arg1.name
    o = sigma[a.arg2.name] if a.arg2.is_var else a.arg2.name
    return (s, a.predicate, o)


def substitute_head(rule: HornRule, sigma: dict[str, str]) -> tuple[str, str, str]:
    return _substitute(rule.head, sigma)


def substitute_body(rule: HornRule, sigma: dict[str, str]) -> list[tuple[str, str, str]]:
    return [_substitute(a, sigma) for a in rule.body]


def head_binding_check(g: KnowledgeGraph, rule: HornRule):
    """A test of head triples: whether some grounding of the rule body
    exists in g under the variable bindings that a head triple forces.

    A head constant matches only the same id, and a head variable only an
    entity of g. The rule is compiled once; for each head triple the test
    is asked about, the bindings enter the body as constants, and that body
    is planned (_make_plan) and projected onto no variable."""
    c = _compile(g, rule)

    def holds(head_triple: tuple[str, str, str]) -> bool:
        s, p, o = head_triple
        if p != rule.head.predicate:
            return False
        bound: dict[tuple, tuple] = {}  # head variable argspec -> constant argspec
        for arg, term, name in zip(c.head[1:], rule.head.args, (s, o)):
            if term.is_var:
                const = (False, g.eid.get(name, -2))
                if const[1] < 0 or bound.setdefault(arg, const) != const:
                    return False
            elif term.name != name:
                return False
        body = [(bp, bound.get(a1, a1), bound.get(a2, a2)) for bp, a1, a2 in c.body]
        return bool(_project(g, _make_plan(body), ()))

    return holds


class _Refinements(list):
    """refine()'s (key, signature) pairs, plus `counted`: how many one-atom
    refinements its operators define, the ones with support 0 included."""

    def __init__(self, items, counted: int):
        super().__init__(items)
        self.counted = counted


def _supported(g: KnowledgeGraph, rule: HornRule, min_head_coverage, dangling, fresh,
               closing, anchors) -> list[tuple]:
    """The atoms of rule's refinements, by the operators refine() lists,
    whose head coverage reaches min_head_coverage: the count query of AMIE.

    The head and body are joined once, projected onto X, Y and the
    variables the operators read; X and Y are bound by a head fact in every
    row. A refinement's support is the number of distinct (x, y) pairs of
    the rows its atom holds on, so one set of (x, y, label) per operator and
    variable, counted per label, gives the support of every atom at once.
    The head must be p(X, Y) with X and Y distinct, as mine() builds."""
    c = _compile(g, rule)
    heads = len(g.byp.get(c.head[0], ()))
    if not heads:
        return []
    # smallest support whose ratio clears the threshold, with guards
    # against float rounding either way
    stop = max(1, math.ceil(min_head_coverage * heads))
    while stop / heads < min_head_coverage:
        stop += 1
    while stop > 1 and (stop - 1) / heads >= min_head_coverage:
        stop -= 1
    read = list(dict.fromkeys([*rule.head.args, *dangling, *itertools.chain(*closing), *anchors]))
    at = {v: i for i, v in enumerate(read)}
    index = dict(zip(c.var_names, range(c.nvars)))
    rows = _project(g, _make_plan((c.head, *c.body)), tuple((True, index[v.name]) for v in read))
    pairs, out, inc, preds, ents = g.pair_predicates, g.out, g.inc, g.predicates, g.entities

    def passing(found: set) -> list:
        return [e for e, n in Counter(map(itemgetter(2), found)).items() if n >= stop]

    atoms = []
    for v in dangling:
        i = at[v]
        found = {(r[0], r[1], p) for r in rows for p, _ in out.get(r[i], ())}
        atoms += [(preds[p], v, fresh) for p in passing(found)]
        found = {(r[0], r[1], p) for r in rows for p, _ in inc.get(r[i], ())}
        atoms += [(preds[p], fresh, v) for p in passing(found)]
    for v1, v2 in closing:
        i, j = at[v1], at[v2]
        found = {(r[0], r[1], p) for r in rows for p in pairs.get((r[i], r[j]), ())}
        atoms += [(preds[p], v1, v2) for p in passing(found)]
    for v in anchors:
        i = at[v]
        found = {(r[0], r[1], e) for r in rows for e in out.get(r[i], ())}
        atoms += [(preds[p], v, Term.const(ents[o])) for p, o in passing(found)]
        found = {(r[0], r[1], e) for r in rows for e in inc.get(r[i], ())}
        atoms += [(preds[p], Term.const(ents[s]), v) for p, s in passing(found)]
    return atoms


def refine(rule: HornRule, g: KnowledgeGraph, cfg: MinerConfig) -> list[tuple[str, tuple]]:
    """Candidate rules one body atom longer, by the dangling / closing /
    instantiated operators, deduplicated by canonical form: (key, signature)
    pairs sorted by key, where rule_from_signature(signature) is the
    canonical candidate and key is its key(). rule's head must be p(X, Y).

    The two prunings of AMIE+ that mine() needs apply before any signature
    is computed. Candidates that reach the length cap are built only if
    closed (every variable occurs at least twice), the only ones mine() can
    output there. That is read off the raw atoms: a dangling atom brings a
    variable that occurs once, and a closing or instantiated atom closes the
    rule iff it takes every variable that occurs once in the parent. And
    candidates are built only if their head coverage reaches
    cfg.min_head_coverage, which one count query over the parent's join
    gives for every atom at once (_supported)."""
    if rule.length >= cfg.max_rule_length:
        return []
    parent = [(a.predicate, *a.args) for a in rule.atoms()]
    # reuse the parent's variable Terms: `atom in parent` then matches by identity
    occurrences = Counter(t for _, *args in parent for t in args if t.is_var)
    existing = list(occurrences)
    names = {t.name for t in existing}
    fresh = Term.var(
        next(variable_symbol(i) for i in itertools.count() if variable_symbol(i) not in names)
    )
    at_cap = rule.length + 1 == cfg.max_rule_length
    once = {t for t, n in occurrences.items() if n == 1} if at_cap else set()
    dangling = [] if at_cap else existing
    closing = [(v1, v2) for v1, v2 in itertools.permutations(existing, 2) if once <= {v1, v2}]
    anchors = [v for v in existing if once <= {v}] if cfg.allow_instantiated_atoms else []
    counted = len(g.predicates) * (2 * len(dangling) + len(closing)) + len(anchors) * (
        len(g.sp) + len(g.op)
    )
    atoms = _supported(g, rule, cfg.min_head_coverage, dangling, fresh, closing, anchors)
    candidates: dict[str, tuple] = {}
    for atom in atoms:
        if atom not in parent:
            sig = signature(parent + [atom])
            candidates.setdefault(signature_key(sig), sig)
    return _Refinements(sorted(candidates.items()), counted)


def _closed(rule: HornRule) -> bool:
    """Every variable of the rule occurs at least twice."""
    return min(Counter(v for a in rule.atoms() for v in a.variables()).values()) >= 2


def mine(g: KnowledgeGraph, cfg: MinerConfig | None = None) -> list[MinedRule]:
    """Breadth-first queue mining, one search per head predicate: a
    refinement keeps its parent's head, so no two heads share a rule.

    A dequeued rule is output iff it is closed (connected and safe follow by
    construction), its PCA confidence beats the threshold and every mined
    ancestor's PCA confidence, and its standard confidence reaches min_confidence.
    It is refined iff shorter than the length cap and not yet at PCA 1.0;
    refinements enqueue iff head coverage passes and they were not enqueued
    before. Output is sorted by head predicate, length, then canonical form.
    """
    cfg = cfg or MinerConfig()
    if len(g) == 0:
        raise ValueError("empty graph")
    output = [found for p in g.predicates for found in _mine_head(g, cfg, p)]
    output.sort(key=lambda rm: (rm[0].head.predicate, rm[0].length, rm[0].key()))
    return [
        MinedRule(f"r{i:04d}", rule, met, classify_rule(rule))
        for i, (rule, met) in enumerate(output)
    ]


def _mine_head(g: KnowledgeGraph, cfg: MinerConfig, p: str) -> list[tuple[HornRule, RuleMetrics]]:
    """The (rule, metrics) pairs mine() outputs with head p(X, Y), in the
    order its FIFO queue, seeded with p(X, Y), dequeues them.

    Each dequeued rule's metrics come from one compute_metrics call, which
    the output test and the refinement test both read. Candidates that fail
    the head coverage gate, and open candidates at the cap, which could
    never be output, are never built: refine counts every refinement's
    support on the parent's join and skips them before computing a
    signature. The debug log line of the head gives the refinements
    counted, the candidates built and the rules enqueued."""
    started = time.perf_counter()
    queue = deque([(rule_from_signature(((p, "v0", "v1"),)), 0.0)])
    seen: set[str] = set()
    output: list[tuple[HornRule, RuleMetrics]] = []
    counted = candidates = 0
    while queue:
        rule, ancestor_conf = queue.popleft()
        met = compute_metrics(g, rule)
        if (
            rule.body
            and _closed(rule)
            and met.pca_confidence > cfg.pca_threshold
            and met.pca_confidence > ancestor_conf
            and met.confidence >= cfg.min_confidence
        ):
            output.append((rule, met))
            ancestor_conf = met.pca_confidence
        if rule.length < cfg.max_rule_length and met.pca_confidence < 1.0:
            # a candidate at the cap is never refined, so only a closed
            # one can be output (with a p(X,Y) head closed implies safe,
            # and refinement keeps rules connected): refine builds no
            # other, and none that fails the head coverage gate
            refined = refine(rule, g, cfg)
            counted += refined.counted
            candidates += len(refined)
            for key, sig in refined:
                if key not in seen:
                    seen.add(key)
                    queue.append((rule_from_signature(sig), ancestor_conf))
    log.debug(
        "head %s: %d refinements counted, %d candidates built, %d enqueued, %.2f s",
        p, counted, candidates, len(seen), time.perf_counter() - started,
    )
    return output


# -- the rules file ----------------------------------------------------------


def rule_type_histogram(mined: list[MinedRule]) -> dict[str, int]:
    hist = dict.fromkeys(RULE_TYPES, 0)
    for mr in mined:
        hist[mr.rule_type] += 1
    hist["total"] = len(mined)
    return hist


def write_rules_jsonl(mined: list[MinedRule], path: str | Path) -> None:
    write_rows(path, ({"id": mr.rule_id, **rule_to_json(mr.rule), "metrics": mr.metrics.to_json(),
                       "type": mr.rule_type} for mr in mined))


def read_rules_jsonl(path: str | Path) -> list[MinedRule]:
    """The rules of a rules file, its rows read by `read_rows`; a rule whose
    head, body or metrics do not parse, or whose type is no rule type, is
    refused with a ValueError naming the file and the rule."""
    mined = []
    for r in read_rows(path, {"id": STRING, "head": ANY, "body": ANY, "metrics": ANY, "type": ANY}):
        if r["type"] not in RULE_TYPES:
            raise ValueError(f"{path}: rule {r['id']}: unknown rule type {r['type']!r}")
        try:
            rule, metrics = rule_from_json(r), RuleMetrics.from_json(r["metrics"])
        except (LookupError, TypeError, ValueError) as err:
            raise ValueError(f"{path}: rule {r['id']}: bad head, body or metrics: {err!r}") from None
        mined.append(MinedRule(r["id"], rule, metrics, r["type"]))
    return mined
