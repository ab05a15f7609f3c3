"""Exact combinatorics of compactified Jacobians on stable weighted graphs.

Decides, for a stable weighted graph and an integer degree d, whether the
degree-d compactified Jacobian is of Neron type, via degree class groups,
balanced multidegree enumeration and stratum indices; includes a census
generator for brute-force cross-checks on small graphs.
"""

from ._kernel import KERNEL_NAME
from .balance import (
    BalancedSet,
    alpha,
    d_special_subcurve,
    enumerate_balanced,
    equality_subcurves,
    is_balanced,
    is_d_general,
    is_strictly_balanced,
    is_weakly_d_general,
    m_lower_bound,
)
from .classgroup import (
    ClassGroup,
    class_group,
    intersection_matrix,
    smith_normal_form,
)
from .graphs import (
    GraphFormatError,
    WeightedGraph,
    blow_up,
    census,
    contract_separating,
    graph_from_dict,
    graph_id,
    graph_to_dict,
    is_tree_like,
    load_graph,
    separating_edges,
)
from .locus import (
    AuditRow,
    CodimReport,
    VineCurve,
    codim_report,
    d_special_vine_scan,
    gcd_remark_audit,
    predicted_codim,
    vine,
)
from .neron import (
    ExtremalPair,
    NeronVerdict,
    RouteDisagreement,
    Stratum,
    TheoremCheckError,
    UniquenessError,
    component_count,
    extremal_pair,
    is_neron_type,
    s_of_mu,
    strata_index,
)

__version__ = "0.1.0"
