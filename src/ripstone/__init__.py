"""ripstone: Vietoris-Rips complexes of regular polytope skeleta, verified.

Builds the distance-threshold clique complexes of the five platonic solid
edge graphs, computes their integer homology by column reduction with
clearing and unit pivots (Smith normal form where a pivot is not a unit),
certifies discrete Morse matchings, and traces the dodecahedron's ten
distance-3 tetrahedra down to explicit homology classes.
"""

import types

from .cubeseries import face_count, skeleton_betti_top, verify_cube_series, verify_cube_vr2
from .errors import (
    FormatError,
    ParameterError,
    PreconditionError,
    RipstoneError,
    SearchFailure,
    StructuralError,
)
from .formats import (
    parse_chain,
    parse_complex,
    parse_matching,
    parse_simplex_list,
    serialize_chain,
    serialize_complex,
    serialize_matching,
)
from .homology import (
    Chain,
    HomologyResult,
    SNFResult,
    cycle_class,
    euler_characteristic,
    homology,
    make_chain,
    simplex_boundary,
    smith_normal_form,
)
from .morse import (
    FlowChain,
    Matching,
    MatchingReport,
    check_matching,
    critical_complex_homology,
    fan_matching,
    fan_triangulation,
    find_matching,
    flip_matching_update,
    matching_from_pairs,
    morse_flow,
)
from .patterns import diameter3_tetrahedra, embeddings
from .pipelines import symmetry_report, trace_dodecahedron, verify_main_theorem
from .polytopes import (
    SOLIDS,
    DistanceMatrix,
    DistanceTable,
    PolytopeGraph,
    build_solid,
    combinatorial_metric,
    cube_graph,
    distance_table,
    solid_info,
)
from .reports import Report, ReportRow, row
from .simplicial import (
    Complex,
    antipodal_free_complex,
    delete_open_cells,
    from_faces,
    full_simplex_complex,
    maximal_simplices,
    simplex,
    vr_complex,
)
from .symmetry import (
    CharacterData,
    PermGroup,
    automorphisms,
    conjugacy_classes,
    rotation_subgroup,
    tetrahedra_orbits,
    verify_remark,
)

__version__ = "0.1.0"

# every public name imported above; the submodules bound on import are not
__all__ = sorted(
    name
    for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, types.ModuleType)
)
