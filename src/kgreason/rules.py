"""Horn rule types: atoms, canonical forms, shape checks, taxonomy.

A rule is body -> head over binary atoms. Output rules must be connected
(atoms transitively linked through shared terms), closed (every variable in
at least two atoms) and safe (head variables all appear in the body).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import NamedTuple

VARIABLE_ALPHABET = ("X", "Y", "Z", "W", "V", "U", "T", "S")

RULE_TYPES = ("symmetry", "inversion", "hierarchy", "composition", "other")


def variable_symbol(i: int) -> str:
    if i < len(VARIABLE_ALPHABET):
        return VARIABLE_ALPHABET[i]
    return f"V{i - len(VARIABLE_ALPHABET) + 1}"


@dataclass(frozen=True)
class Term:
    """Either a variable from the canonical alphabet or an entity constant."""

    is_var: bool
    name: str

    @staticmethod
    def var(name: str) -> "Term":
        return Term(True, name)

    @staticmethod
    def const(entity: str) -> "Term":
        return Term(False, entity)

    def __repr__(self) -> str:
        return self.name if self.is_var else f"'{self.name}'"


@dataclass(frozen=True)
class Atom:
    predicate: str
    arg1: Term
    arg2: Term

    @property
    def args(self) -> tuple[Term, Term]:
        return (self.arg1, self.arg2)

    def variables(self) -> list[str]:
        return [t.name for t in self.args if t.is_var]

    def terms_key(self) -> frozenset[str]:
        # shared-term connectivity key: variables and constants both connect
        return frozenset(f"v:{t.name}" if t.is_var else f"c:{t.name}" for t in self.args)

    def __repr__(self) -> str:
        return f"{self.predicate}({self.arg1!r},{self.arg2!r})"


@dataclass(frozen=True)
class HornRule:
    """head holds when every body atom holds; body may be empty mid-search."""

    head: Atom
    body: tuple[Atom, ...] = ()

    @property
    def length(self) -> int:
        # atom count including the head
        return len(self.body) + 1

    def atoms(self) -> tuple[Atom, ...]:
        return (self.head,) + self.body

    def variables(self) -> list[str]:
        """Distinct variables in first-appearance order, head first."""
        return list(dict.fromkeys(v for atom in self.atoms() for v in atom.variables()))

    def key(self) -> str:
        return format_rule(self)

    def __repr__(self) -> str:
        return format_rule(self)


def format_rule(rule: HornRule) -> str:
    body = " & ".join(map(repr, rule.body)) or "true"
    return f"{body} => {rule.head!r}"


class ShapeCheck(NamedTuple):
    connected: bool
    closed: bool
    safe: bool

    def all_ok(self) -> bool:
        return self.connected and self.closed and self.safe


def check_rule_shape(rule: HornRule) -> ShapeCheck:
    """Connectedness / closedness / safety for a rule with >= 1 body atom.
    No stage calls it; perfbench and the tests do, until ROADMAP item 1."""
    if not rule.body:
        raise ValueError("shape checks need at least one body atom")
    atoms = rule.atoms()

    # connected: the atom graph linked by shared terms has one component
    n = len(atoms)
    keys = [a.terms_key() for a in atoms]
    component = {0}
    grew = True
    while grew:
        grew = False
        for i in range(n):
            if i in component:
                continue
            if any(keys[i] & keys[j] for j in component):
                component.add(i)
                grew = True
    connected = len(component) == n

    counts: dict[str, int] = {}
    for atom in atoms:
        for v in atom.variables():
            counts[v] = counts.get(v, 0) + 1
    closed = all(c >= 2 for c in counts.values())

    body_vars = {v for a in rule.body for v in a.variables()}
    safe = set(rule.head.variables()) <= body_vars

    return ShapeCheck(connected, closed, safe)


def term_tag(t: Term, tags: dict[str, str]) -> str:
    """t's signature tag: "c:{name}" for a constant; for a variable, its tag
    in `tags` (name -> tag), where a variable not yet seen gets "v{len(tags)}"."""
    if not t.is_var:
        return "c:" + t.name
    return tags.get(t.name) or tags.setdefault(t.name, f"v{len(tags)}")


def signature(atoms) -> tuple:
    """Canonical signature of the rule whose (predicate, Term, Term) atoms are
    given head first: the least sequence of (predicate, term tag, term tag)
    rows over all body orderings, tagging terms in reading order. Two rules
    are equal up to variable renaming and body order iff their signatures
    are equal.

    Orderings grow one atom at a time, and only with the atoms whose next row
    is least (all of them on a tie): a larger row at some position can never
    start the minimum, so the other orderings need not be tried.
    """
    tags: dict[str, str] = {}
    (p, a1, a2), rest = atoms[0], tuple(atoms[1:])
    partial = [(((p, term_tag(a1, tags), term_tag(a2, tags)),), tags, rest)]
    best = None
    while partial:
        rows, tags, rest = partial.pop()
        if len(rest) > 1:
            least = None
            for i, (p, a1, a2) in enumerate(rest):
                t = tags.copy()
                row = (p, term_tag(a1, t), term_tag(a2, t))
                if least is None or row < least:
                    least, picks = row, [(i, t)]
                elif row == least:
                    picks.append((i, t))
            partial += [(rows + (least,), t, rest[:i] + rest[i + 1:]) for i, t in picks]
            continue
        for p, a1, a2 in rest:
            rows += ((p, term_tag(a1, tags), term_tag(a2, tags)),)
        if best is None or rows < best:
            best = rows
    return best


@functools.lru_cache(maxsize=1 << 16)
def _tag_term(tag: str) -> tuple[Term, str]:
    """The Term a signature tag stands for, and its text in rule keys."""
    t = Term.var(variable_symbol(int(tag[1:]))) if tag[0] == "v" else Term.const(tag[2:])
    return t, repr(t)


def signature_key(sig: tuple) -> str:
    """key() of the rule a signature stands for, without building it."""
    texts = [f"{p}({_tag_term(t1)[1]},{_tag_term(t2)[1]})" for p, t1, t2 in sig]
    return f"{' & '.join(texts[1:]) or 'true'} => {texts[0]}"


def rule_from_signature(sig: tuple) -> HornRule:
    """The canonical rule a signature stands for: variable i is
    variable_symbol(i)."""
    head, *body = (Atom(p, _tag_term(t1)[0], _tag_term(t2)[0]) for p, t1, t2 in sig)
    return HornRule(head, tuple(body))


def canonicalize(rule: HornRule) -> HornRule:
    """Canonical form: variables renamed by first appearance (head first) under
    the body-atom ordering that minimizes the rule signature."""
    return rule_from_signature(signature([(a.predicate, *a.args) for a in rule.atoms()]))


def classify_rule(rule: HornRule) -> str:
    """One of symmetry / inversion / hierarchy / composition / other."""
    (hp, h1, h2), *body = signature([(a.predicate, *a.args) for a in rule.atoms()])
    args = sorted((a1, a2) for _, a1, a2 in body)
    if any(t.startswith("c:") for t in (h1, h2, *(t for pair in args for t in pair))):
        return "other"
    if len(body) == 1:
        if args[0] == (h2, h1):
            return "symmetry" if body[0][0] == hp else "inversion"
        if args[0] == (h1, h2) and body[0][0] != hp:
            return "hierarchy"
    # the middle variable of a canonical composition comes third: v2
    elif h1 != h2 and args == sorted([(h1, "v2"), ("v2", h2)]):
        return "composition"
    return "other"


# -- wire format -----------------------------------------------------------


def term_to_json(t: Term):
    return t.name if t.is_var else {"const": t.name}


def _string(value) -> str:
    if not isinstance(value, str):
        raise TypeError(f"{value!r} is not a string")
    return value


def term_from_json(obj) -> Term:
    if isinstance(obj, str):
        return Term.var(obj)
    return Term.const(_string(obj["const"]))


def atom_to_json(a: Atom) -> dict:
    return {"p": a.predicate, "args": [term_to_json(a.arg1), term_to_json(a.arg2)]}


def atom_from_json(obj: dict) -> Atom:
    t1, t2 = obj["args"]
    return Atom(_string(obj["p"]), term_from_json(t1), term_from_json(t2))


def rule_to_json(rule: HornRule) -> dict:
    return {"head": atom_to_json(rule.head), "body": [atom_to_json(a) for a in rule.body]}


def rule_from_json(obj: dict) -> HornRule:
    return HornRule(
        head=atom_from_json(obj["head"]),
        body=tuple(atom_from_json(a) for a in obj["body"]),
    )
