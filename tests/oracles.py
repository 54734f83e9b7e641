"""Independent brute-force oracles the fast implementations are checked
against. Deliberately naive: exhaustive substitution for rule metrics,
exhaustive walk enumeration for exploration, plain set arithmetic for the
report metrics."""

from __future__ import annotations

import itertools
import logging
import time
from collections import deque

from kgreason.bench import RemovalEntry, RemovalPlan, _stable_rng
from kgreason.env import INVERSE_PREFIX
from kgreason.kg import KnowledgeGraph
from kgreason.mining import (
    MinedRule,
    MinerConfig,
    RuleMetrics,
    _closed,
    _compile,
    _facts,
    _make_plan,
    compute_metrics,
    refine,
    substitute_body,
    substitute_head,
)
from kgreason.rules import Atom, HornRule, Term, classify_rule, rule_from_signature, variable_symbol

log = logging.getLogger(__name__)


def _apply(term, sigma):
    return sigma[term.name] if term.is_var else term.name


def exhaustive_metrics(g: KnowledgeGraph, rule: HornRule):
    """(support, head_coverage, confidence, pca_confidence) by enumerating
    every substitution of the rule's variables over all entities."""
    return metrics_from_body_pairs(g, rule.head, exhaustive_body_pairs(g, rule))


def exhaustive_body_pairs(g: KnowledgeGraph, rule: HornRule) -> set:
    """The (head subject, head object) pair of every substitution of the
    rule's variables over all entities that makes each body atom a fact of
    g. The head's predicate plays no part, so rules that differ only in it
    share one set."""
    ents = g.entities
    names = rule.variables()
    head = rule.head
    body_pairs = set()
    for combo in itertools.product(ents, repeat=len(names)):
        sigma = dict(zip(names, combo))
        if all(
            (_apply(a.arg1, sigma), a.predicate, _apply(a.arg2, sigma)) in g
            for a in rule.body
        ):
            body_pairs.add((_apply(head.arg1, sigma), _apply(head.arg2, sigma)))
    return body_pairs


def metrics_from_body_pairs(g: KnowledgeGraph, head: Atom, body_pairs: set):
    """`exhaustive_metrics` of the rule with this head whose body yields
    body_pairs (see `exhaustive_body_pairs`)."""
    support_pairs = {(x, y) for x, y in body_pairs if (x, head.predicate, y) in g}
    head_vars = []
    for t in (head.arg1, head.arg2):
        if t.is_var and t.name not in head_vars:
            head_vars.append(t.name)
    head_groundings = 0
    for combo in itertools.product(g.entities, repeat=len(head_vars)):
        sigma = dict(zip(head_vars, combo))
        if (_apply(head.arg1, sigma), head.predicate, _apply(head.arg2, sigma)) in g:
            head_groundings += 1

    support = len(support_pairs)
    hc = support / head_groundings if head_groundings else 0.0
    conf = support / len(body_pairs) if body_pairs else 0.0
    pca_den = sum(1 for x, _ in body_pairs if g.objects(x, head.predicate))
    pca = support / pca_den if pca_den else 0.0
    return support, hc, conf, pca


def exhaustive_holding_heads(g: KnowledgeGraph, rule: HornRule) -> set:
    """The head triples whose body holds: a triple is in the set iff some
    substitution of the rule's variables over all entities turns the head
    into it and every body atom into a fact of g. One enumeration answers
    the question for every triple."""
    p = rule.head.predicate
    return {(s, p, o) for s, o in exhaustive_body_pairs(g, rule)}


def permutation_canonicalize(rule: HornRule) -> HornRule:
    """Canonical form: variables renamed by first appearance (head first) under
    the body-atom ordering that minimizes the rule signature."""
    best_sig = None
    best_perm = None
    for perm in itertools.permutations(rule.body):
        mapping: dict[str, int] = {}

        def tag(t: Term) -> str:
            if not t.is_var:
                return f"c:{t.name}"
            if t.name not in mapping:
                mapping[t.name] = len(mapping)
            return f"v{mapping[t.name]}"

        sig = tuple(
            (a.predicate, tag(a.arg1), tag(a.arg2)) for a in (rule.head,) + perm
        )
        if best_sig is None or sig < best_sig:
            best_sig = sig
            best_perm = perm

    mapping = {}

    def rename(t: Term) -> Term:
        if not t.is_var:
            return t
        if t.name not in mapping:
            mapping[t.name] = variable_symbol(len(mapping))
        return Term.var(mapping[t.name])

    def ra(a: Atom) -> Atom:
        return Atom(a.predicate, rename(a.arg1), rename(a.arg2))

    head = ra(rule.head)
    body = tuple(ra(a) for a in best_perm)
    return HornRule(head, body)


def permutation_refine(rule: HornRule, g: KnowledgeGraph, cfg) -> list[HornRule]:
    """Candidate rules one body atom longer, by the dangling / closing /
    instantiated operators, canonicalized by permutation_canonicalize and
    deduplicated, sorted by key."""
    if rule.length >= cfg.max_rule_length:
        return []
    existing = rule.variables()
    fresh = next(
        variable_symbol(i) for i in itertools.count() if variable_symbol(i) not in existing
    )
    candidates: dict[str, HornRule] = {}

    def add(atom: Atom):
        if atom == rule.head or atom in rule.body:
            return
        cand = permutation_canonicalize(HornRule(rule.head, rule.body + (atom,)))
        candidates.setdefault(cand.key(), cand)

    preds = g.predicates
    for p in preds:
        for v in existing:
            add(Atom(p, Term.var(v), Term.var(fresh)))
            add(Atom(p, Term.var(fresh), Term.var(v)))
    for p in preds:
        for v1, v2 in itertools.permutations(existing, 2):
            add(Atom(p, Term.var(v1), Term.var(v2)))
    if cfg.allow_instantiated_atoms:
        for p in preds:
            pairs = [(s, o) for s, q, o in g.triples() if q == p]
            subjects = sorted({s for s, _ in pairs})
            objects = sorted({o for _, o in pairs})
            for v in existing:
                for c in objects:
                    add(Atom(p, Term.var(v), Term.const(c)))
                for c in subjects:
                    add(Atom(p, Term.const(c), Term.var(v)))
    return [candidates[k] for k in sorted(candidates)]


# the backtracking join the miner ran before its set-at-a-time engine, kept
# verbatim for the walk oracles below
def _walk(g, plan, k, binding, leaf=None) -> bool:
    """Bind plan[k:] depth first. Wherever every atom holds, the result is
    True without a leaf and leaf() with one; a True result stops the walk.
    Bindings made here are undone before returning."""
    if k == len(plan):
        return True if leaf is None else leaf()
    p, a1, a2 = plan[k]
    v1 = binding[a1[1]] if a1[0] else a1[1]
    v2 = binding[a2[1]] if a2[0] else a2[1]
    if v1 is not None and v2 is not None:
        return (v1, p, v2) in g.tri and _walk(g, plan, k + 1, binding, leaf)
    if v1 is not None or v2 is not None:
        if v1 is not None:
            idx, values = a2[1], g.sp.get((v1, p), ())
        else:
            idx, values = a1[1], g.op.get((v2, p), ())
        for val in values:
            binding[idx] = val
            if _walk(g, plan, k + 1, binding, leaf):
                binding[idx] = None
                return True
        binding[idx] = None
        return False
    i1, i2 = a1[1], a2[1]
    for s, o in _facts(g, plan[k]):
        binding[i1] = s
        binding[i2] = o
        if _walk(g, plan, k + 1, binding, leaf):
            binding[i1] = binding[i2] = None
            return True
    binding[i1] = binding[i2] = None
    return False


def walk_project(g, plan, nvars, proj, keep=None, visit=None) -> set:
    """The walk-based projection the set-at-a-time miner engine replaced,
    kept verbatim as its oracle.

    Distinct projections of the groundings of plan onto proj.

    proj holds one argspec (keys are its values) or two (keys are value
    pairs). The walk binds plan up to the first depth at which the key is
    bound, and records the key once the remaining atoms hold existentially.
    Keys outside `keep`, when given, are dropped without that check.
    `visit(key)` sees each new key and stops the walk by returning True,
    leaving the set partial.
    """
    need = {a[1] for a in proj if a[0]}
    depth = 0
    while need:
        if depth == len(plan):
            return set()  # the projection is never bound
        need -= {a[1] for a in plan[depth][1:] if a[0]}
        depth += 1
    rest = plan[depth:]
    h1 = proj[0]
    h2 = proj[-1]
    as_pair = len(proj) == 2
    binding = [None] * nvars
    keys: set = set()

    def leaf() -> bool:
        p1 = binding[h1[1]] if h1[0] else h1[1]
        key = (p1, binding[h2[1]] if h2[0] else h2[1]) if as_pair else p1
        if key in keys or (keep is not None and key not in keep):
            return False
        if _walk(g, rest, 0, binding):
            keys.add(key)
            return visit is not None and visit(key)
        return False

    _walk(g, plan[:depth], 0, binding, leaf)
    return keys


def walk_exists(g, plan, nvars) -> bool:
    """Whether plan has a grounding, by the walk: the oracle of a
    projection onto no variable."""
    return _walk(g, plan, 0, [None] * nvars)


def walk_groundings(g: KnowledgeGraph, rule: HornRule) -> list[tuple[dict[str, str], bool]]:
    """The walk-based enumerate_groundings the set-at-a-time miner engine
    replaced, kept verbatim as its oracle.

    Total substitutions satisfying every body atom, each with a flag for
    whether the substituted head triple is present in g.

    Deterministic: sorted lexicographically over bound entity ids with
    variables in canonical (first-appearance, head-first) order.
    """
    c = _compile(g, rule)
    sols: set = set()
    binding = [None] * c.nvars

    def leaf() -> bool:
        if None not in binding:
            sols.add(tuple(binding))
        return False

    _walk(g, _make_plan(c.body), 0, binding, leaf)
    h_p, h1, h2 = c.head
    ents = g.entities
    out = []
    for b in sorted(sols):
        sigma = {name: ents[val] for name, val in zip(c.var_names, b)}
        s = b[h1[1]] if h1[0] else h1[1]
        o = b[h2[1]] if h2[0] else h2[1]
        present = (s, h_p, o) in g.tri
        out.append((sigma, present))
    return out


def reference_plan_removals(g: KnowledgeGraph, mined: list, cfg):
    """plan_removals as it was when it sampled the head-present body
    groundings, kept as the oracle of the version that samples support
    groundings; its groundings come from walk_groundings."""
    ordered = sorted(mined, key=lambda mr: (-mr.metrics.pca_confidence, mr.rule.key()))
    removed: set = set()
    witness_used: set = set()
    entries: list = []
    per_rule: dict[str, int] = {}
    for mr in ordered:
        groundings = [
            sigma for sigma, present in walk_groundings(g, mr.rule) if present
        ]
        rng = _stable_rng(cfg.seed, "removal", mr.rule.key())
        k = min(cfg.groundings_per_rule, len(groundings))
        sample = rng.sample(groundings, k)
        count = 0
        for sigma in sample:
            head_t = substitute_head(mr.rule, sigma)
            witness = set(substitute_body(mr.rule, sigma))
            if head_t[0] == head_t[2]:
                continue  # a question about a self-loop would name its own answer
            if head_t in removed or head_t in witness_used or head_t in witness:
                continue
            if witness & removed:
                continue
            removed.add(head_t)
            witness_used.update(witness)
            entries.append(
                RemovalEntry(mr.rule_id, dict(sorted(sigma.items())), head_t, tuple(sorted(witness)))
            )
            count += 1
        per_rule[mr.rule_id] = count
    return RemovalPlan(entries, per_rule)


def reference_graph_tables(triples) -> dict:
    """The string-set constructor KnowledgeGraph ran before it interned ids
    as it read them, kept as that loader's oracle: every distinct string
    triple held in a set, the entity and predicate tables sorted from it.
    Returns "ents" and "preds" (the tables), "eid" and "pid" (id -> handle),
    "triples" (sorted id triples) and "duplicates_collapsed"."""
    tri = set()
    raw = 0
    for s, p, o in triples:
        raw += 1
        tri.add((s, p, o))
    ents = sorted({s for s, _, _ in tri} | {o for _, _, o in tri})
    preds = sorted({p for _, p, _ in tri})
    return {
        "ents": tuple(ents),
        "preds": tuple(preds),
        "eid": {e: i for i, e in enumerate(ents)},
        "pid": {p: i for i, p in enumerate(preds)},
        "triples": sorted(tri),
        "duplicates_collapsed": raw - len(tri),
    }


def reference_graph_index(triples) -> dict:
    """The eager index builder KnowledgeGraph ran in its constructor before
    it kept one sorted handle list and built each index on first read, kept
    as that graph's oracle: every index collected in a dict per key and each
    key's values sorted on their own. Returns every field the graph exposes:
    the handle indices by their attribute names ("tri", "sp", "op", "byp",
    "out", "inc", "eid", "pid"), plus "pair_predicates" and the fields of
    `reference_graph_tables`."""
    tables = reference_graph_tables(triples)
    eid, pid = tables["eid"], tables["pid"]
    itri = {(eid[s], pid[p], eid[o]) for s, p, o in tables["triples"]}
    out, inc, sp, op, byp, pp = {}, {}, {}, {}, {}, {}
    for s, p, o in itri:
        out.setdefault(s, []).append((p, o))
        inc.setdefault(o, []).append((p, s))
        sp.setdefault((s, p), []).append(o)
        op.setdefault((o, p), []).append(s)
        byp.setdefault(p, []).append((s, o))
        pp.setdefault((s, o), []).append(p)

    def sort_values(index):
        return {k: tuple(sorted(v)) for k, v in index.items()}

    return {
        "tri": frozenset(itri),
        "sp": sort_values(sp),
        "op": sort_values(op),
        "byp": sort_values(byp),
        "out": sort_values(out),
        "inc": sort_values(inc),
        "pair_predicates": sort_values(pp),
        **tables,
    }


def closed_signature(sig: tuple) -> bool:
    """Whether every variable of a rules.signature occurs at least twice."""
    tags = [t for row in sig for t in row[1:] if t[0] == "v"]
    return all(tags.count(t) > 1 for t in tags)


def exhaustive_groundings(g: KnowledgeGraph, rule: HornRule):
    """Every total substitution satisfying the body, with head-present flag."""
    ents = g.entities
    names = rule.variables()
    out = []
    for combo in itertools.product(ents, repeat=len(names)):
        sigma = dict(zip(names, combo))
        if all(
            (_apply(a.arg1, sigma), a.predicate, _apply(a.arg2, sigma)) in g
            for a in rule.body
        ):
            head_t = (
                _apply(rule.head.arg1, sigma),
                rule.head.predicate,
                _apply(rule.head.arg2, sigma),
            )
            out.append((sigma, head_t in g))
    out.sort(key=lambda pair: tuple(pair[0][v] for v in names))
    return out


def enumerate_walks(g: KnowledgeGraph, start: str, hops: int, include_inverse: bool = False):
    """All walks from start up to the hop limit, as triple chains. With
    include_inverse, a walk also takes each edge (s, p, o) backwards from o,
    as the step (o, inv_p, s)."""
    walks = []

    def extend(node, chain):
        if chain:
            walks.append(tuple(chain))
        if len(chain) == hops:
            return
        steps = list(g.outgoing(node))
        if include_inverse:
            steps += [("inv_" + pred, s) for pred, s in g.incoming(node)]
        for pred, nxt in steps:
            chain.append((node, pred, nxt))
            extend(nxt, chain)
            chain.pop()

    extend(start, [])
    return walks


def exhaustive_relation_paths(g: KnowledgeGraph, start: str, hops: int,
                              include_inverse: bool = False):
    return {tuple(t[1] for t in walk) for walk in enumerate_walks(g, start, hops, include_inverse)}


def reference_ground(g: KnowledgeGraph, e: str, paths, cfg):
    """The breadth-first ground that built every chain of a path, sorted
    them and only then cut them to the per-path cap, kept as the oracle of
    the depth-first walk that stops at the cap."""
    chains = []
    for path in sorted(set(paths), key=lambda p: (len(p), p)):
        per_path = []
        partial = [(e, ())]
        for pred in path:
            nxt = []
            for node, chain in partial:
                if cfg.include_inverse and pred.startswith(INVERSE_PREFIX):
                    base = pred[len(INVERSE_PREFIX):]
                    for s in g.subjects(node, base):
                        nxt.append((s, chain + ((node, pred, s),)))
                else:
                    for o in g.objects(node, pred):
                        nxt.append((o, chain + ((node, pred, o),)))
            partial = nxt
            if not partial:
                break
        per_path = sorted(chain for _, chain in partial)
        cap = cfg.max_groundings_per_path
        if cap is not None:
            per_path = per_path[:cap]
        chains.extend(per_path)
    ordered = tuple(sorted(set(chains), key=lambda c: (len(c), c)))
    frontier = sorted(
        {ent for chain in ordered for t in chain for ent in (t[0], t[2])} - {e}
    )
    return ordered, tuple(frontier)


def naive_report(gold_sets, pred_sets, hard_answers):
    """Six metrics straight from their set-arithmetic definitions."""
    n = len(gold_sets)
    hits = prec = rec = f1 = hard = 0.0
    for a, p, h in zip(gold_sets, pred_sets, hard_answers):
        inter = p & a
        hits += 1.0 if inter else 0.0
        prec += len(inter) / len(p) if p else 0.0
        rec += len(inter) / len(a) if a else 0.0
        f1 += 2 * len(inter) / (len(p) + len(a)) if (p or a) else 0.0
        hard += 1.0 if h in p else 0.0
    hits /= n
    hard /= n
    return {
        "hits_any": hits,
        "precision": prec / n,
        "recall": rec / n,
        "f1": f1 / n,
        "hits_hard": hard,
        "hhr": hard / hits if hits > 0 else 0.0,
    }


def reference_mine(g: KnowledgeGraph, cfg: MinerConfig | None = None) -> list[MinedRule]:
    """Breadth-first queue mining.

    mine() as it was when every head predicate shared one queue, taken one
    rule length at a time, kept as the oracle of the one search per head.

    A dequeued rule is output iff it is closed (connected and safe follow by
    construction), its PCA confidence beats the threshold and every mined
    ancestor's PCA confidence, and its standard confidence reaches min_confidence.
    It is refined iff shorter than the length cap and not yet at PCA 1.0;
    refinements enqueue iff head coverage passes and they were not enqueued
    before. Output is sorted by head predicate, length, then canonical form.

    Each dequeued rule's metrics come from one compute_metrics call, which
    the output test and the refinement test both read. Candidates that fail
    the head coverage gate, and open candidates at the cap, which could
    never be output, are never built: refine counts every refinement's
    support on the parent's join and skips them before computing a
    signature. The debug log line of each length gives the refinements
    counted and the candidates built.
    """
    cfg = cfg or MinerConfig()
    if len(g) == 0:
        raise ValueError("empty graph")
    queue = deque((rule_from_signature(((p, "v0", "v1"),)), 0.0) for p in g.predicates)  # p(X,Y)
    output: list[tuple[HornRule, RuleMetrics]] = []
    while queue:
        # one rule length at a time; the next length's rules queue up behind
        # this one's, and no key recurs across lengths
        length, size, started = queue[0][0].length, len(queue), time.perf_counter()
        seen: set[str] = set()
        counted = candidates = 0
        for _ in range(size):
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
            "length %d: %d rules dequeued, %d refinements counted, %d candidates built,"
            " %d enqueued, %.2f s",
            length, size, counted, candidates, len(queue), time.perf_counter() - started,
        )

    output.sort(key=lambda rm: (rm[0].head.predicate, rm[0].length, rm[0].key()))
    return [
        MinedRule(f"r{i:04d}", rule, met, classify_rule(rule))
        for i, (rule, met) in enumerate(output)
    ]
