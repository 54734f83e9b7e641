"""Breadth-first Horn rule mining with support / head coverage / confidence /
PCA confidence, plus the grounding enumeration the benchmark builder uses.

Counting semantics: support is the number of distinct grounded heads whose
body also holds; confidence denominators count distinct head-argument pairs
projected from body groundings (not raw substitution tuples); the PCA
denominator keeps only pairs whose subject has at least one fact of the head
predicate.

The join engine runs on the graph's interned integer handles with a join
order fixed once per rule (bound atoms first). Handles are assigned in
lexicographic id order, so integer ordering doubles as the deterministic
lexicographic ordering the public contracts promise.

Refinement works on plain tuples: a candidate is its canonical signature
(rules.signature) plus the key formatted from it, and a HornRule is built
only for a candidate that enters the queue. The head-coverage gate on that
queue counts set-at-a-time (the count-query rewriting of AMIE+ and AMIE 3):
each distinct body is projected once onto the head variables -- an (X, Y)
pair set, or X and Y value sets for bodies whose components hold only one of
them -- and one pass over the smallest projection yields the support of
every head predicate. Only those per-body counts are memoised; they and the
set of enqueued keys are dropped whenever the search reaches the next rule
length, as no body or key of a shorter rule comes up again.
"""

from __future__ import annotations

import itertools
import json
import logging
import math
import time
from collections import deque
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

from .kg import HandleIndex, KnowledgeGraph
from .rules import (
    Atom,
    HornRule,
    Term,
    canonicalize,  # noqa: F401  unused here, but perfbench/traced.py patches it
    check_rule_shape,
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
        return cls(obj["support"], obj["hc"], obj["conf"], obj["pca_conf"])


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
    ancestor_metric: str = "pca"   # confidence used for the better-than-ancestors check

    def __post_init__(self):
        for name in ("min_confidence", "min_head_coverage", "pca_threshold"):
            v = getattr(self, name)
            if not 0.0 < v <= 1.0:
                raise ValueError(f"{name} must be in (0, 1], got {v}")
        if self.max_rule_length < 2:
            raise ValueError("max_rule_length must be >= 2")
        if self.ancestor_metric not in ("pca", "standard"):
            raise ValueError("ancestor_metric must be 'pca' or 'standard'")


# -- compiled rules over integer handles ------------------------------------

# argspec (is_var, x): variable index when is_var, else entity handle
# (-2 marks a constant absent from the graph, which can never match)


class _Compiled(NamedTuple):
    head: tuple
    body: tuple
    nvars: int
    var_names: tuple


def _compile_tagged(gv: HandleIndex, rows, names: tuple = ()) -> _Compiled:
    """Compile (predicate, tag, tag) rows, head first, tagged as in rules.signature:
    variable "v{i}" becomes index i, named names[i] or else variable_symbol(i)."""

    def carg(tag: str):
        return (True, int(tag[1:])) if tag[0] == "v" else (False, gv.eid.get(tag[2:], -2))

    head, *body = [(gv.pid.get(p, -1), carg(t1), carg(t2)) for p, t1, t2 in rows]
    nvars = len({t for row in rows for t in row[1:] if t[0] == "v"})
    return _Compiled(head, tuple(body), nvars, names or tuple(map(variable_symbol, range(nvars))))


def _compile(gv: HandleIndex, rule: HornRule) -> _Compiled:
    """Compile a rule as written, variables numbered by first appearance."""
    tags: dict[str, str] = {}
    rows = [(a.predicate, term_tag(a.arg1, tags), term_tag(a.arg2, tags)) for a in rule.atoms()]
    return _compile_tagged(gv, rows, tuple(tags))


def _make_plan(body, prebound) -> tuple:
    """Join order fixed once per rule: fully bound atoms first, half-bound
    next, unbound scans last. Order never changes results, only cost."""
    bound = set(prebound)
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


def _exists(gv, plan, k, binding) -> bool:
    """Existentially evaluate plan[k:] against the current binding."""
    if k == len(plan):
        return True
    p, a1, a2 = plan[k]
    v1 = binding[a1[1]] if a1[0] else a1[1]
    v2 = binding[a2[1]] if a2[0] else a2[1]
    if v1 is not None and v2 is not None:
        return (v1, p, v2) in gv.tri and _exists(gv, plan, k + 1, binding)
    if v1 is not None:
        idx = a2[1]
        for o in gv.sp.get((v1, p), ()):
            binding[idx] = o
            if _exists(gv, plan, k + 1, binding):
                binding[idx] = None
                return True
        binding[idx] = None
        return False
    if v2 is not None:
        idx = a1[1]
        for s in gv.op.get((v2, p), ()):
            binding[idx] = s
            if _exists(gv, plan, k + 1, binding):
                binding[idx] = None
                return True
        binding[idx] = None
        return False
    if a1[1] == a2[1]:
        idx = a1[1]
        for s, o in gv.byp.get(p, ()):
            if s == o:
                binding[idx] = s
                if _exists(gv, plan, k + 1, binding):
                    binding[idx] = None
                    return True
        binding[idx] = None
        return False
    i1, i2 = a1[1], a2[1]
    for s, o in gv.byp.get(p, ()):
        binding[i1] = s
        binding[i2] = o
        if _exists(gv, plan, k + 1, binding):
            binding[i1] = None
            binding[i2] = None
            return True
    binding[i1] = None
    binding[i2] = None
    return False


def _head_grounding_count(gv, chead) -> int:
    """Distinct substitutions of the head atom's variables that land in G."""
    p, a1, a2 = chead
    if a1[0] and a2[0] and a1[1] != a2[1]:
        return len(gv.byp.get(p, ()))
    same_var = a1[0] and a2[0] and a1[1] == a2[1]
    n = 0
    for s, o in gv.byp.get(p, ()):
        if not a1[0] and s != a1[1]:
            continue
        if not a2[0] and o != a2[1]:
            continue
        if same_var and s != o:
            continue
        n += 1
    return n


def _project(gv, plan, nvars, proj, keep=None, visit=None) -> set:
    """Distinct projections of the groundings of plan onto proj.

    proj holds one argspec (keys are its values) or two (keys are value
    pairs). A key is recorded once the walk has bound it and the remaining
    atoms hold existentially. Keys outside `keep`, when given, are dropped
    without that check. `visit(key)` sees each new key and stops the walk by
    returning True, leaving the set partial.
    """
    h1 = proj[0]
    h2 = proj[-1]
    as_pair = len(proj) == 2
    n = len(plan)
    binding = [None] * nvars
    keys: set = set()

    def dfs(k) -> bool:
        p1 = binding[h1[1]] if h1[0] else h1[1]
        p2 = binding[h2[1]] if h2[0] else h2[1]
        if p1 is not None and p2 is not None:
            key = (p1, p2) if as_pair else p1
            if key in keys or (keep is not None and key not in keep):
                return False
            if _exists(gv, plan, k, binding):
                keys.add(key)
                return visit is not None and visit(key)
            return False
        if k == n:
            return False
        p, a1, a2 = plan[k]
        v1 = binding[a1[1]] if a1[0] else a1[1]
        v2 = binding[a2[1]] if a2[0] else a2[1]
        if v1 is not None and v2 is not None:
            return (v1, p, v2) in gv.tri and dfs(k + 1)
        if v1 is not None:
            idx = a2[1]
            for o in gv.sp.get((v1, p), ()):
                binding[idx] = o
                if dfs(k + 1):
                    binding[idx] = None
                    return True
            binding[idx] = None
            return False
        if v2 is not None:
            idx = a1[1]
            for s in gv.op.get((v2, p), ()):
                binding[idx] = s
                if dfs(k + 1):
                    binding[idx] = None
                    return True
            binding[idx] = None
            return False
        if a1[1] == a2[1]:
            idx = a1[1]
            for s, o in gv.byp.get(p, ()):
                if s == o:
                    binding[idx] = s
                    if dfs(k + 1):
                        binding[idx] = None
                        return True
            binding[idx] = None
            return False
        i1, i2 = a1[1], a2[1]
        for s, o in gv.byp.get(p, ()):
            binding[i1] = s
            binding[i2] = o
            if dfs(k + 1):
                binding[i1] = None
                binding[i2] = None
                return True
        binding[i1] = None
        binding[i2] = None
        return False

    dfs(0)
    return keys


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


def _head_supports(gv, pair_preds, c: _Compiled) -> dict[int, int]:
    """Support of `body => h(X, Y)` for every head predicate h at once.

    c's head must hold two distinct variables X and Y; only its body is
    read. Each connected body component is projected onto the head
    variables it mentions: (X, Y) pairs, X values or Y values. A component
    with neither only has to hold once. One pass over the smallest
    projection then counts, per predicate, the facts that fall inside it.
    This is the count-query rewriting of AMIE+.
    """
    _, hx, hy = c.head
    pairs = xs = ys = None
    for vs, atoms in _components(c.body):
        plan = _make_plan(atoms, ())
        if hx[1] in vs and hy[1] in vs:
            pairs = _project(gv, plan, c.nvars, (hx, hy), keep=pair_preds)
            found = bool(pairs)
        elif hx[1] in vs:
            xs = _project(gv, plan, c.nvars, (hx,), keep=gv.out)
            found = bool(xs)
        elif hy[1] in vs:
            ys = _project(gv, plan, c.nvars, (hy,), keep=gv.inc)
            found = bool(ys)
        else:
            found = _exists(gv, plan, 0, [None] * c.nvars)
        if not found:
            return {}
    counts: dict[int, int] = {}
    if pairs is not None:
        for pair in pairs:
            for p in pair_preds[pair]:
                counts[p] = counts.get(p, 0) + 1
    elif xs is not None and (ys is None or len(xs) <= len(ys)):
        for s in xs:
            for p, o in gv.out[s]:
                if ys is None or o in ys:
                    counts[p] = counts.get(p, 0) + 1
    elif ys is not None:
        for o in ys:
            for p, s in gv.inc[o]:
                if xs is None or s in xs:
                    counts[p] = counts.get(p, 0) + 1
    else:
        # the body holds whatever X and Y are: every fact is supported
        counts = {p: len(facts) for p, facts in gv.byp.items()}
    return counts


def _pca_below_one(gv, c: _Compiled) -> bool:
    """Whether PCA confidence is strictly below 1.0, with early exit on the
    first covered-but-missing head pair."""
    h_p, h1, h2 = c.head
    covered = missing = False

    def visit(pair) -> bool:
        nonlocal covered, missing
        s, o = pair
        if (s, h_p) in gv.sp:
            covered = True
            missing = (s, h_p, o) not in gv.tri
        return missing

    _project(gv, _make_plan(c.body, ()), c.nvars, (h1, h2), visit=visit)
    return missing or not covered  # empty PCA denominator means PCA confidence 0


def _empty_body_metrics(g: KnowledgeGraph, gv, chead) -> RuleMetrics:
    """Metrics for a body-less candidate: every substitution satisfies the
    empty body, so the denominators are computed arithmetically."""
    heads = _head_grounding_count(gv, chead)
    n_ents = len(g.entities)
    _, a1, a2 = chead
    head_vars = {a[1] for a in (a1, a2) if a[0]}
    body_count = n_ents ** len(head_vars)
    conf = heads / body_count if body_count else 0.0
    p = chead[0]
    if a1[0]:
        n_subj = len({s for s, _ in gv.byp.get(p, ())})
        per_subject = n_ents if (a2[0] and a2[1] != a1[1]) else 1
        pca_den = n_subj * per_subject
    else:
        has = (a1[1], p) in gv.sp
        pca_den = (n_ents if a2[0] else 1) if has else 0
    pca = heads / pca_den if pca_den else 0.0
    hc = 1.0 if heads else 0.0
    return RuleMetrics(heads, hc, conf, pca)


class _HeadCoverageGate:
    """Whether a candidate's head coverage reaches the threshold, given its
    canonical signature (with a p(X,Y) head) and key.

    Keys read "<body> => <head>". Canonical bodies do not depend on the head
    predicate (the head comes first in every ordering), so each body's
    support for every head predicate is counted once and kept in `supports`,
    keyed by the body's text; the projections behind the counts are not.
    """

    def __init__(self, g: KnowledgeGraph, min_head_coverage: float):
        self.gv = g.handles
        self.pair_preds = g.pair_predicates
        self.min_head_coverage = min_head_coverage
        self.supports: dict[str, dict[int, int]] = {}
        self.heads: dict[tuple, tuple[int, int, int]] = {}

    def _head(self, head: tuple) -> tuple[int, int, int]:
        """(predicate handle, support needed or 0 for never, key suffix length)"""
        chead = _compile_tagged(self.gv, (head,)).head
        heads = _head_grounding_count(self.gv, chead)
        stop = 0
        if heads:
            # smallest support whose ratio clears the threshold, with
            # guards against float rounding either way
            stop = max(1, math.ceil(self.min_head_coverage * heads))
            while stop / heads < self.min_head_coverage:
                stop += 1
            while stop > 1 and (stop - 1) / heads >= self.min_head_coverage:
                stop -= 1
        # the key of the body-less rule is "true => <head>"
        return chead[0], stop, len(signature_key((head,))) - len("true")

    def __call__(self, sig: tuple, key: str) -> bool:
        head = self.heads.get(sig[0])
        if head is None:
            head = self.heads[sig[0]] = self._head(sig[0])
        pid, stop, cut = head
        if not stop:
            return False
        body = key[:-cut]
        supports = self.supports.get(body)
        if supports is None:
            supports = _head_supports(self.gv, self.pair_preds, _compile_tagged(self.gv, sig))
            self.supports[body] = supports
        return supports.get(pid, 0) >= stop


# -- public operations -------------------------------------------------------


def compute_metrics(g: KnowledgeGraph, rule: HornRule) -> RuleMetrics:
    gv = g.handles
    c = _compile(gv, rule)
    if not rule.body:
        return _empty_body_metrics(g, gv, c.head)
    h_p, h1, h2 = c.head
    body_pairs = _project(gv, _make_plan(c.body, ()), c.nvars, (h1, h2))
    support = sum(1 for s, o in body_pairs if (s, h_p, o) in gv.tri)
    confidence = support / len(body_pairs) if body_pairs else 0.0
    pca_den = sum(1 for x, _ in body_pairs if (x, h_p) in gv.sp)
    pca = support / pca_den if pca_den else 0.0
    heads = _head_grounding_count(gv, c.head)
    hc = support / heads if heads else 0.0
    return RuleMetrics(support, hc, confidence, pca)


def enumerate_groundings(
    g: KnowledgeGraph, rule: HornRule, cap: int | None = None
) -> list[tuple[dict[str, str], bool]]:
    """Total substitutions satisfying every body atom, each with a flag for
    whether the substituted head triple is present in g.

    Deterministic: sorted lexicographically over bound entity ids with
    variables in canonical (first-appearance, head-first) order; at most
    `cap` results when a cap is given.
    """
    if cap is not None and cap <= 0:
        return []
    gv = g.handles
    c = _compile(gv, rule)
    plan = _make_plan(c.body, ())
    n = len(plan)
    sols: set = set()
    binding = [None] * c.nvars

    def dfs(k):
        if k == n:
            if all(b is not None for b in binding):
                sols.add(tuple(binding))
            return
        p, a1, a2 = plan[k]
        v1 = binding[a1[1]] if a1[0] else a1[1]
        v2 = binding[a2[1]] if a2[0] else a2[1]
        if v1 is not None and v2 is not None:
            if (v1, p, v2) in gv.tri:
                dfs(k + 1)
            return
        if v1 is not None:
            idx = a2[1]
            for o in gv.sp.get((v1, p), ()):
                binding[idx] = o
                dfs(k + 1)
            binding[idx] = None
            return
        if v2 is not None:
            idx = a1[1]
            for s in gv.op.get((v2, p), ()):
                binding[idx] = s
                dfs(k + 1)
            binding[idx] = None
            return
        if a1[1] == a2[1]:
            idx = a1[1]
            for s, o in gv.byp.get(p, ()):
                if s == o:
                    binding[idx] = s
                    dfs(k + 1)
            binding[idx] = None
            return
        i1, i2 = a1[1], a2[1]
        for s, o in gv.byp.get(p, ()):
            binding[i1] = s
            binding[i2] = o
            dfs(k + 1)
        binding[i1] = None
        binding[i2] = None

    dfs(0)
    ordered = sorted(sols)
    if cap is not None:
        ordered = ordered[:cap]
    h_p, h1, h2 = c.head
    ents = gv.ents
    out = []
    for b in ordered:
        sigma = {name: ents[val] for name, val in zip(c.var_names, b)}
        s = b[h1[1]] if h1[0] else h1[1]
        o = b[h2[1]] if h2[0] else h2[1]
        present = (s, h_p, o) in gv.tri
        out.append((sigma, present))
    return out


def _substitute(a: Atom, sigma: dict[str, str]) -> tuple[str, str, str]:
    s = sigma[a.arg1.name] if a.arg1.is_var else a.arg1.name
    o = sigma[a.arg2.name] if a.arg2.is_var else a.arg2.name
    return (s, a.predicate, o)


def substitute_head(rule: HornRule, sigma: dict[str, str]) -> tuple[str, str, str]:
    return _substitute(rule.head, sigma)


def substitute_body(rule: HornRule, sigma: dict[str, str]) -> list[tuple[str, str, str]]:
    return [_substitute(a, sigma) for a in rule.body]


def body_holds_with_head_binding(
    g: KnowledgeGraph, rule: HornRule, head_triple: tuple[str, str, str]
) -> bool:
    """True if some grounding of the rule body exists in g under the variable
    bindings forced by the given head triple."""
    s, p, o = head_triple
    if p != rule.head.predicate:
        return False
    gv = g.handles
    c = _compile(gv, rule)
    binding = [None] * c.nvars
    for t, val in ((c.head[1], gv.eid.get(s, -2)), (c.head[2], gv.eid.get(o, -2))):
        if t[0]:
            if val < 0:
                return False
            if binding[t[1]] is not None and binding[t[1]] != val:
                return False
            binding[t[1]] = val
        elif t[1] != val:
            return False
    prebound = {i for i, b in enumerate(binding) if b is not None}
    plan = _make_plan(c.body, prebound)
    return _exists(gv, plan, 0, binding)


def refine(rule: HornRule, g: KnowledgeGraph, cfg: MinerConfig) -> list[tuple[str, tuple]]:
    """Candidate rules one body atom longer, by the dangling / closing /
    instantiated operators, deduplicated by canonical form: (key, signature)
    pairs sorted by key, where rule_from_signature(signature) is the
    canonical candidate and key is its key()."""
    if rule.length >= cfg.max_rule_length:
        return []
    parent = [(a.predicate, *a.args) for a in rule.atoms()]
    # reuse the parent's variable Terms: `atom in parent` then matches by identity
    terms = {t.name: t for _, *args in parent for t in args if t.is_var}
    existing = list(terms.values())
    fresh = Term.var(
        next(variable_symbol(i) for i in itertools.count() if variable_symbol(i) not in terms)
    )
    candidates: dict[str, tuple] = {}

    def add(atom: tuple):
        if atom in parent:
            return
        sig = signature(parent + [atom])
        candidates.setdefault(signature_key(sig), sig)

    preds = g.predicates
    for p in preds:
        for v in existing:
            add((p, v, fresh))
            add((p, fresh, v))
    for p in preds:
        for v1, v2 in itertools.permutations(existing, 2):
            add((p, v1, v2))
    if cfg.allow_instantiated_atoms:
        for p in preds:
            subjects = [Term.const(s) for s in sorted({s for s, _ in g.pairs(p)})]
            objects = [Term.const(o) for o in sorted({o for _, o in g.pairs(p)})]
            for v in existing:
                for c in objects:
                    add((p, v, c))
                for c in subjects:
                    add((p, c, v))
    return sorted(candidates.items())


def mine(g: KnowledgeGraph, cfg: MinerConfig | None = None) -> list[MinedRule]:
    """Breadth-first queue mining.

    A dequeued rule is output iff it is closed (connected and safe follow by
    construction), its PCA confidence beats the threshold and every mined
    ancestor's confidence, and its standard confidence beats min_confidence.
    It is refined iff shorter than the length cap and not yet at PCA 1.0;
    refinements enqueue iff head coverage passes and they were not enqueued
    before. Output is sorted by head predicate, length, then canonical form.

    Full metrics are only computed where the algorithm needs them: shape-valid
    dequeued rules get the exact figures, open rules below the length cap get
    a PCA<1 early-exit check, and open rules at the cap get nothing.
    """
    cfg = cfg or MinerConfig()
    if len(g) == 0:
        raise ValueError("empty graph")
    gv = g.handles

    queue = deque((rule_from_signature(((p, "v0", "v1"),)), 0.0) for p in g.predicates)  # p(X,Y)
    hc_gate = _HeadCoverageGate(g, cfg.min_head_coverage)

    def criterion_conf(m: RuleMetrics) -> float:
        return m.pca_confidence if cfg.ancestor_metric == "pca" else m.confidence

    output: list[tuple[HornRule, RuleMetrics]] = []
    while queue:
        # one rule length at a time; the next length's rules queue up behind
        # this one's, and no key or body recurs across lengths
        length, size, started = queue[0][0].length, len(queue), time.perf_counter()
        seen: set[str] = set()
        hc_gate.supports.clear()
        candidates = 0
        for _ in range(size):
            rule, ancestor_conf = queue.popleft()
            met: RuleMetrics | None = None
            mined_now = False
            if not rule.body:
                met = compute_metrics(g, rule)
            elif check_rule_shape(rule).all_ok():
                met = compute_metrics(g, rule)
                if (
                    met.pca_confidence > cfg.pca_threshold
                    and criterion_conf(met) > ancestor_conf
                    and met.confidence >= cfg.min_confidence
                ):
                    output.append((rule, met))
                    mined_now = True
            child_conf = max(ancestor_conf, criterion_conf(met)) if mined_now else ancestor_conf
            if rule.length < cfg.max_rule_length and (
                _pca_below_one(gv, _compile(gv, rule)) if met is None
                else met.pca_confidence < 1.0
            ):
                refined = refine(rule, g, cfg)
                candidates += len(refined)
                for key, sig in refined:
                    if key not in seen and hc_gate(sig, key):
                        seen.add(key)
                        queue.append((rule_from_signature(sig), child_conf))
        log.debug(
            "length %d: %d rules dequeued, %d candidates, %d enqueued, %.2f s",
            length, size, candidates, len(queue), time.perf_counter() - started,
        )

    output.sort(key=lambda rm: (rm[0].head.predicate, rm[0].length, rm[0].key()))
    return [
        MinedRule(f"r{i:04d}", rule, met, classify_rule(rule))
        for i, (rule, met) in enumerate(output)
    ]


# -- persistence -------------------------------------------------------------


def rule_type_histogram(mined: list[MinedRule]) -> dict[str, int]:
    hist = {t: 0 for t in ("symmetry", "inversion", "hierarchy", "composition", "other")}
    for mr in mined:
        hist[mr.rule_type] += 1
    hist["total"] = len(mined)
    return hist


def write_rules_jsonl(mined: list[MinedRule], path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for mr in mined:
            row = {
                "id": mr.rule_id,
                **rule_to_json(mr.rule),
                "metrics": mr.metrics.to_json(),
                "type": mr.rule_type,
            }
            fh.write(json.dumps(row, sort_keys=True) + "\n")


def read_jsonl(path: str | Path):
    """Yield the JSON value on each non-blank line of a file, one at a time."""
    with open(path, encoding="utf-8") as fh:
        yield from (json.loads(line) for line in fh if line.strip())


def read_rules_jsonl(path: str | Path) -> list[MinedRule]:
    return [
        MinedRule(r["id"], rule_from_json(r), RuleMetrics.from_json(r["metrics"]), r["type"])
        for r in read_jsonl(path)
    ]
