"""Search toolkit for small Kochen-Specker vector systems.

Pipelines: orderly enumeration of connected square-free graphs in canonical
form, exact 101-colourability, embedding onto cubic integer grids, and
interval branch-and-prune embeddability verdicts.
"""

from .graphs import (
    Graph,
    Graph6Error,
    encode_upper_triangle,
    every_vertex_in_triangle,
    graph6_decode,
    graph6_encode,
    graph_from_code,
    is_connected,
    is_square_free,
    min_degree,
    triangles,
)
from .orderly import (
    CanonicalBudgetExceeded,
    Filters,
    SubtreeTicket,
    brute_force_classes,
    canonical_code,
    canonical_label,
    enumerate_graphs,
    extend,
    is_canonical,
    list_tickets,
)
from .colouring import (
    export_dimacs_101,
    is_k_colourable,
    solve_101,
    validate_101,
)
from .grids import (
    GridEmbedding,
    GridSystem,
    direction_count,
    generate_grid,
    get_grid,
    grid_embed,
    minimize_uncolourable,
    enumerate_grid_subsystems,
    normalize_direction,
    validate_grid_embedding,
)
from .constraints import (
    ConstraintSystem,
    NoEdgesError,
    build_constraint_system,
    contract_explain,
)
from .intervals import IntervalBox, WidthUnderflow, bisect
from .embedding import (
    Inconclusive,
    ProvedEmbeddable,
    ProvedUnembeddable,
    decide_embeddability,
    prove_root_in_box,
)
from .pipeline import JobSpec, evaluate_graph, report_counts, run_search
from .verify import verify_known

__version__ = "0.1.0"
