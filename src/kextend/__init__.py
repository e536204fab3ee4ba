"""Certify k-extendibility of small graphs, with machine-checkable
witnesses, and verify the surrounding matching-theory properties against
independent brute-force oracles."""

__version__ = "0.1.0"

from .graphs import (
    Bipartition,
    Edge,
    Graph,
    GraphParseError,
    OddCycle,
    VertexSet,
    bipartition,
    complete_bipartite,
    complete_graph,
    components,
    cycle_graph,
    delete_vertices,
    empty_graph,
    from_edges,
    is_connected,
    min_degree,
    neighborhood,
    parse_edge_list,
    parse_graph6,
    path_graph,
    to_edge_list,
    to_graph6,
)
from .matching import (
    AlternatingPath,
    DeficiencyWitness,
    Matching,
    enumerate_matchings,
    extends_to_perfect,
    find_augmenting_path,
    has_perfect_matching,
    koenig_ore_deficiency,
    matching_number,
    maximum_matching,
)
from .connectivity import (
    CutWitness,
    is_k_connected,
    vertex_connectivity,
)
from .extendibility import (
    ExtendibilityCertificate,
    HallViolator,
    extendibility_number,
    hall_surplus_check,
    is_k_extendible,
    peel,
)
from .verifier import (
    CorpusSpec,
    Report,
    PROPERTY_IDS,
    generate_corpus,
    run_corpus,
)

__all__ = [name for name in dir() if not name.startswith("_")]
