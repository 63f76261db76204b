"""Conjunctive-query counting through hypergraph decompositions and
quantified star size.

The package splits into: hypergraph structure (components, S-components),
decompositions (join tree, GHD, hingetree, tree, fractional) with a
violation-reporting verifier, independent-set machinery behind star size,
a relational engine with the decomposition-guided counting pipeline, and
generators for the reduction constructions used in testing.
"""

from .decomposition import (
    DecompKind,
    DecompNode,
    Decomposition,
    NotAcyclic,
    Violation,
    WidthReport,
    blocks_hypergraph,
    ghd_search,
    gyo_join_tree,
    hinge_decompose,
    induced_decomposition,
    tree_decompose,
    verify,
)
from .engine import (
    CountResult,
    QueryInstance,
    Relation,
    Structure,
    atom_relation,
    count_brute,
    count_cq_via_fractional,
    count_cq_via_ghd,
    natural_join,
    project,
    semijoin,
)
from .errors import (
    BindError,
    BudgetExceeded,
    CqstarError,
    DecompositionInvalid,
    IdMismatch,
    InvariantViolation,
    NotHinge,
    TooLarge,
    UncoverableVertex,
    UnknownVariable,
    UnknownVertex,
    VariableWithoutAtom,
    WidthNotOne,
)
from .generators import (
    SimpleGraph,
    SplitMix64,
    gen_clique_star_instance,
    gen_g_star,
    gen_is_hardness_hypergraph,
    gen_obs_equivalent,
    gen_random_acyclic,
    gen_random_instance,
)
from .hypergraph import (
    Atom,
    Hypergraph,
    Query,
    SComponent,
    SHypergraph,
    from_query,
    s_components,
)
from .starsize import (
    ISMethod,
    ISWitness,
    StarWitness,
    acyclic_is_and_cover,
    approx_is,
    max_is_brute,
    max_is_ghd_dp,
    max_is_hinge_fpt,
    s_star_size,
)

__all__ = [name for name in dir() if not name.startswith("_")]
