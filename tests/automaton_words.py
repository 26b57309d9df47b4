"""Running words through a Dfa or an Nfa: the reference semantics that the
tests check determinize, minimize and the shuffle NFA against."""


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
