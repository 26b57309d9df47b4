"""Running words through a Dfa or an Nfa: the reference semantics that the
tests check determinize, minimize and the shuffle NFA against. Reading a
subset table and its refinement blocks apart from how they number states,
which the array subset construction and the loop do differently."""


def dfa_run(d, word, start=None):
    """The state d reaches from start (its initial state by default)."""
    q = d.initial if start is None else start
    for x in word:
        q = d.transitions[d.alphabet.index(x)].images[q - 1]
    return q


def dfa_accepts(d, word):
    return dfa_run(d, word) in d.finals


def nfa_step(a, states, x):
    """The successors in a of the frozenset states on letter x."""
    i = a.alphabet.index(x)
    out = set()
    for q in states:
        out |= a.transitions[q - 1][i]
    return frozenset(out)


def nfa_accepts(a, word):
    current = frozenset([a.initial])
    for x in word:
        current = nfa_step(a, current, x)
    return bool(current & a.finals)


def subset_steps(subsets, table):
    """{subset: its successor subset on each letter} of a subset table,
    table[i][li] being the 1-based id of the successor of subsets[i]."""
    steps = {s: tuple(subsets[j - 1] for j in row) for s, row in zip(subsets, table)}
    assert len(steps) == len(subsets), "a subset has two ids"
    return steps


def blocks(items, block):
    """The partition of items by their block numbers, as a set of frozensets."""
    classes = {}
    for x, b in zip(items, block):
        classes.setdefault(b, set()).add(x)
    return {frozenset(c) for c in classes.values()}
