"""Self-similar lattices, their spectra, and the renormalization map.

The package builds finitely ramified self-similar lattices carrying
electrical-network data, computes Neumann / Dirichlet / Neumann-Dirichlet
spectra and density-of-states approximants of the associated operators,
and implements the renormalization map at three levels: a rational map on
symmetric matrices, a symplectic reduction on Lagrangian frames, and a
polynomial lift on Grassmann-algebra coefficient tables.
"""

from types import ModuleType as _ModuleType

from .errors import (
    AtInfinity,
    ConfigError,
    DegreeUnresolved,
    FractalSpectraError,
    InvalidStructure,
    NonPositiveWeight,
    NotADirichletForm,
    NotEquivariant,
    NotHermitian,
    NotSymmetric,
    OrderUnstable,
    ResidueUnresolved,
    SingularInterior,
    ZeroScale,
)
from .grassmann import (
    GrassmannElement,
    exp_eta,
    glue_morphism,
    interior_reduce,
    mul,
    pair,
    phi_curve,
    renorm_lift,
    tau_scale,
    tau_translate,
    vanishing_order,
)
from .linalg import (
    Subspace,
    generalized_sym_eig,
    generalized_sym_eigvals,
    is_positive_definite,
    kernel_basis,
    sym_eig,
)
from .network import (
    ElectricalNetwork,
    VertexPartition,
    current,
    energy,
    glue,
    glue_network,
    harmonic_extension,
    network_from_q,
    q_matrix,
    trace_map,
)
from .renorm import (
    CoordinateChart,
    HomogeneousPoint,
    balance_report,
    bidegree_estimate,
    coords_eval,
    divisor_orders,
    frame_from_pairs,
    g_map,
    orbit,
    s_hat,
    symmetric_chart,
    t_iterate,
    t_map,
)
from .selfsim import (
    Lattice,
    SelfSimilarStructure,
    assemble_measure,
    assemble_network,
    assemble_q,
    build_lattice,
    builtin_structures,
    gamma_bar,
    gamma_bar_semi,
    interval,
    sierpinski,
    validate,
)
from .spectra import (
    SpectrumReport,
    char_det,
    dirichlet_spectrum,
    dos_histogram,
    green_proxy,
    level_spectrum,
    nd_spectrum,
    neumann_spectrum,
)
from .symplectic import (
    CoisotropicSubspace,
    LagrangianFrame,
    compose,
    from_sym,
    in_siegel,
    reduce_frame,
    reduction_defect,
    subspace_distance,
    to_sym,
    w_glue,
    w_renorm,
    w_trace,
)
from .config import StructureConfig, load_config

__all__ = [
    name
    for name in dir()
    if not name.startswith("_") and not isinstance(globals()[name], _ModuleType)
]
