"""Independent reference answers and method-property checks.

Short plain-Python fixpoints for the paper's recursive predicates and a
BFS for transitive closure.  They share no code with ``repro``: inputs
arrive as sets of tuples, and every checker returns a list of problems
(empty when the answer is right).
"""

from __future__ import annotations

from collections import defaultdict, deque
from typing import Iterable


def _index(rows: Iterable[tuple], column: int) -> dict:
    out: dict = defaultdict(list)
    for row in rows:
        out[row[column]].append(row)
    return out


def university_answers(edb: dict[str, set]) -> dict[str, set]:
    """eval/eval_support of Example 3.2 by semi-naive iteration.

    eval(P, S, T) :- super(P, S, T).
    eval(P, S, T) :- works_with(P, P0), eval(P0, S, T),
                     expert(P, F), field(T, F).
    eval_support(P, S, T, M) :- eval(P, S, T), pays(M, G, S, T).
    """
    colleagues = _index(edb.get("works_with", ()), 1)  # P0 -> rows
    expert = defaultdict(set)
    for p, f in edb.get("expert", ()):
        expert[p].add(f)
    fields = defaultdict(set)
    for t, f in edb.get("field", ()):
        fields[t].add(f)
    evals = set(edb.get("super", ()))
    delta = set(evals)
    while delta:
        new = set()
        for p0, s, t in delta:
            for p, _ in colleagues.get(p0, ()):
                if expert[p] & fields[t]:
                    fact = (p, s, t)
                    if fact not in evals:
                        new.add(fact)
        evals |= new
        delta = new
    pays = defaultdict(list)
    for m, g, s, t in edb.get("pays", ()):
        pays[(s, t)].append(m)
    support = {(p, s, t, m) for p, s, t in evals
               for m in pays.get((s, t), ())}
    return {"eval": evals, "eval_support": support}


def genealogy_answers(edb: dict[str, set]) -> dict[str, set]:
    """anc of Example 4.3: left-linear closure of par."""
    by_child = _index(edb.get("par", ()), 0)
    anc = set(edb.get("par", ()))
    delta = set(anc)
    while delta:
        new = set()
        for x, xa, z, za in delta:
            for _, _, y, ya in by_child.get(z, ()):
                fact = (x, xa, y, ya)
                if fact not in anc:
                    new.add(fact)
        anc |= new
        delta = new
    return {"anc": anc}


def organization_answers(edb: dict[str, set]) -> dict[str, set]:
    """triple of Example 4.1.

    triple(E1, E2, E3) :- same_level(E1, E2, E3).
    triple(E1, E2, E3) :- boss(U, E3, R), experienced(U), triple(U, E1, E2).
    """
    experienced = {row[0] for row in edb.get("experienced", ())}
    bosses = defaultdict(set)
    for u, e3, _ in edb.get("boss", ()):
        if u in experienced:
            bosses[u].add(e3)
    triples = set(edb.get("same_level", ()))
    delta = set(triples)
    while delta:
        new = set()
        for u, e1, e2 in delta:
            for e3 in bosses.get(u, ()):
                fact = (e1, e2, e3)
                if fact not in triples:
                    new.add(fact)
        triples |= new
        delta = new
    return {"triple": triples}


def successors(edges: Iterable[tuple]) -> dict:
    succ: dict = defaultdict(list)
    for a, b in edges:
        succ[a].append(b)
    return succ


def reach_with(succ: dict, source) -> set:
    """Nodes reachable from ``source`` in one or more steps (BFS)."""
    seen: set = set()
    queue = deque(succ.get(source, ()))
    while queue:
        node = queue.popleft()
        if node in seen:
            continue
        seen.add(node)
        queue.extend(succ.get(node, ()))
    return seen


#: Row-hash sums are kept to 64 bits.
_MASK = (1 << 64) - 1


def digest(rows: Iterable[tuple]) -> tuple[int, int]:
    """An order-free fingerprint of an answer: (rows, sum of row hashes).

    Lets a run check every answer without keeping a copy of it.  Equal
    sets give equal digests; string hashes differ between processes, so
    only digests made in one process are compared.
    """
    count = total = 0
    for row in rows:
        count += 1
        total += hash(row)
    return count, total & _MASK


def compare_digest(label: str, got: tuple[int, int],
                   want: tuple[int, int]) -> list[str]:
    """Problems found comparing two answers' digests."""
    if got == want:
        return []
    return [f"{label}: {got[0]} rows, expected {want[0]}"
            + (" (contents differ)" if got[0] == want[0] else "")]


def compare(label: str, got: Iterable[tuple], want: set) -> list[str]:
    """Problems found comparing an answer set with its reference."""
    got = set(got)
    if got == want:
        return []
    missing = len(want - got)
    extra = len(got - want)
    return [f"{label}: {len(got)} rows, expected {len(want)} "
            f"({missing} missing, {extra} unexpected)"]


# -- integrity constraints of the generated databases ----------------------

def university_ic_problems(edb: dict[str, set]) -> list[str]:
    """ic1: works_with(P2, P1), expert(P1, F) -> expert(P2, F).
    ic2: pays(M, G, S, T), M > 10000 -> doctoral(S)."""
    problems = []
    fields = defaultdict(set)
    for p, f in edb.get("expert", ()):
        fields[p].add(f)
    bad = sum(len(fields[p1] - fields[p2])
              for p2, p1 in edb.get("works_with", ()))
    if bad:
        problems.append(f"university ic1 violated {bad} times")
    doctoral = {row[0] for row in edb.get("doctoral", ())}
    bad = sum(1 for m, _, s, _ in edb.get("pays", ())
              if m > 10000 and s not in doctoral)
    if bad:
        problems.append(f"university ic2 violated {bad} times")
    return problems


def genealogy_ic_problems(edb: dict[str, set]) -> list[str]:
    """ic1: nobody aged 50 or less has a great-grandchild:
    Ya <= 50, par(Z, Za, Y, Ya), par(Z2, Z2a, Z, Za),
    par(Z3, Z3a, Z2, Z2a) -> ."""
    par = edb.get("par", set())
    children = defaultdict(set)  # parent -> children
    for child, _, parent, _ in par:
        children[parent].add(child)
    bad = 0
    for _, _, y, ya in par:
        if ya > 50:
            continue
        grand = {g for c in children[y] for g in children[c]}
        if any(children[g] for g in grand):
            bad += 1
    return [f"genealogy ic1 violated {bad} times"] if bad else []


def organization_ic_problems(edb: dict[str, set]) -> list[str]:
    """ic1: boss(E, B, R), R = executive -> experienced(B)."""
    experienced = {row[0] for row in edb.get("experienced", ())}
    bad = sum(1 for _, b, r in edb.get("boss", ())
              if r == "executive" and b not in experienced)
    return [f"organization ic1 violated {bad} times"] if bad else []
