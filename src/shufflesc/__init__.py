"""Workbench for the state complexity of the shuffle operation.

Core objects: complete DFAs built from transformations (automata), the
shuffle product NFA and the valid-subset bound f(m, n) (shuffle), BFS
and lemma-replay certification over the extremal subset automaton
(reach), unique-in-transition distinguishability (disting), and
exhaustive witness search over small DFA pairs (search).
"""

from .automata import (
    Dfa,
    FormatError,
    Nfa,
    Transformation,
    canonical_key,
    determinize,
    dfa_from_dict,
    dfa_to_dict,
    load_dfa,
    dump_dfa,
    minimize,
    state_complexity,
)
from .shuffle import (
    GridSizeError,
    ProductSubset,
    ShuffleNfa,
    bound_f,
    build_shuffle_nfa,
    count_valid_subsets,
    ideal_bound,
    is_valid,
    min_alphabet_lower_bound,
    okhotin_witness,
    projections,
    shuffle_state_complexity,
    sigma_star_dfa,
)
from .reach import (
    Certificate,
    CertificationGapError,
    CheckpointError,
    ExtremalLetter,
    ReachReport,
    bfs_reach,
    certify,
    direct_smaller_check,
    dump_letters,
    extremal_step,
    greedy_alphabet,
    load_letters,
    reduce_containment,
    reduce_permutation,
    reduce_single_element,
    sperner_limit,
    verify_certificate,
)
from .disting import (
    UniqueInEdge,
    brute_subsets_pairwise_distinct,
    subsets_pairwise_distinct,
    ternary_witness,
    unique_in_subgraph,
    uniquely_distinguishable,
)
from .search import (
    SearchSpace,
    SearchVolumeError,
    count_nonisomorphic_witness_right_dfas,
    max_shuffle_complexity,
    min_witness_alphabet,
    pair_canonical_key,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
