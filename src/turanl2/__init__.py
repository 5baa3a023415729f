"""Exact l2-norm machinery for tetrahedron-free 3-graphs.

Core objects: 3-graphs with codegree/link/shadow/norm primitives, the cyclic
and bipartite extremal constructions with closed-form norms, vertex-colored
Mantel symmetrization, bad/missing edge classification with local-improvement
toggles and a two-phase driver, desk-scale extremal censuses, and exact
verification of the supporting simplex inequality.
"""

from .census import (
    CensusReport,
    census_colored_mantel,
    census_k43,
    census_tripartite_triangle_free,
)
from .classification import (
    Checklist,
    EdgeClassification,
    FamilyStats,
    Thresholds,
    check_phase_one_hypotheses,
    check_phase_two_hypotheses,
    classify_edges,
    construction_edges,
    family_stats,
    optimize_partition,
)
from .colored import (
    ColoredGraph,
    DirectedView,
    EquivalenceClasses,
    FactsReport,
    build_lambda,
    check_symmetrized_facts,
    class_symmetrize,
    degree_sum_on_path,
    equivalence_classes,
    graph_l2_norm,
    is_cyclic_triangle_free,
    is_locally_maximal,
    is_locally_symmetrized,
    locally_symmetrize,
    rho3,
    symmetrize,
)
from .constructions import (
    Composition3,
    Partition3,
    balancedness_sweep,
    build_b,
    build_balanced_c,
    build_c,
    c_l2_closed,
    compositions_of,
)
from .errors import TuranL2Error
from .hypergraph import (
    Graph,
    ThreeGraph,
    canonical_form,
    codegree,
    contains_k43,
    count_s2,
    delete_vertex,
    find_k43,
    induce,
    l2_norm,
    link,
    make_graph,
    make_pair_graph,
    shadow,
    two_norm_degree,
)
from .improvement import (
    DeltaReport,
    DriverTrace,
    apply_toggle,
    build_queues,
    generate_phase_instance,
    two_phase_driver,
    verify_toggle_increase,
)
from .inequality import (
    certify_simplex_inequality,
    margin,
    verify_simplex_inequality,
)

__version__ = "0.1.0"
