"""Independent brute-force oracles the fast implementations are checked
against. Deliberately naive: exhaustive substitution for rule metrics,
exhaustive walk enumeration for exploration, plain set arithmetic for the
report metrics."""

from __future__ import annotations

import itertools

from kgreason.kg import KnowledgeGraph
from kgreason.rules import Atom, HornRule, Term, variable_symbol


def _apply(term, sigma):
    return sigma[term.name] if term.is_var else term.name


def exhaustive_metrics(g: KnowledgeGraph, rule: HornRule):
    """(support, head_coverage, confidence, pca_confidence) by enumerating
    every substitution of the rule's variables over all entities."""
    ents = g.entities
    names = rule.variables()
    head = rule.head
    body_pairs = set()
    support_pairs = set()
    for combo in itertools.product(ents, repeat=len(names)):
        sigma = dict(zip(names, combo))
        if all(
            (_apply(a.arg1, sigma), a.predicate, _apply(a.arg2, sigma)) in g
            for a in rule.body
        ):
            pair = (_apply(head.arg1, sigma), _apply(head.arg2, sigma))
            body_pairs.add(pair)
            if (pair[0], head.predicate, pair[1]) in g:
                support_pairs.add(pair)

    head_vars = []
    for t in (head.arg1, head.arg2):
        if t.is_var and t.name not in head_vars:
            head_vars.append(t.name)
    head_groundings = 0
    for combo in itertools.product(ents, repeat=len(head_vars)):
        sigma = dict(zip(head_vars, combo))
        if (_apply(head.arg1, sigma), head.predicate, _apply(head.arg2, sigma)) in g:
            head_groundings += 1

    support = len(support_pairs)
    hc = support / head_groundings if head_groundings else 0.0
    conf = support / len(body_pairs) if body_pairs else 0.0
    pca_den = sum(1 for x, _ in body_pairs if g.has_subject(x, head.predicate))
    pca = support / pca_den if pca_den else 0.0
    return support, hc, conf, pca


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
            subjects = sorted({s for s, _ in g.pairs(p)})
            objects = sorted({o for _, o in g.pairs(p)})
            for v in existing:
                for c in objects:
                    add(Atom(p, Term.var(v), Term.const(c)))
                for c in subjects:
                    add(Atom(p, Term.const(c), Term.var(v)))
    return [candidates[k] for k in sorted(candidates)]


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


def enumerate_walks(g: KnowledgeGraph, start: str, hops: int):
    """All walks from start up to the hop limit, as triple chains."""
    walks = []

    def extend(node, chain):
        if chain:
            walks.append(tuple(chain))
        if len(chain) == hops:
            return
        for pred, nxt in g.outgoing(node):
            chain.append((node, pred, nxt))
            extend(nxt, chain)
            chain.pop()

    extend(start, [])
    return walks


def exhaustive_relation_paths(g: KnowledgeGraph, start: str, hops: int):
    return {tuple(t[1] for t in walk) for walk in enumerate_walks(g, start, hops)}


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
