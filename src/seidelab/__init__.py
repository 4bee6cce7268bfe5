"""Seidel energy verification laboratory.

Computational companions to the proof that every graph of order n has
Seidel energy at least 2n-2, with equality exactly on the switching class
of the complete graph: Seidel matrices and switching, odd pairs, exact
elementary symmetric functions of the squared spectrum, the singular
integral energy representation, per-lemma checkers, and scan drivers that
reproduce the proof's computer-search steps at desk scale.
"""

from .analytic import (
    CubicCoefficients,
    QuadratureSpec,
    base_integral_check,
    cp_constant,
    cp_constant_quadrature,
    cubic_bound_rhs,
    cubic_integral_lhs,
    energy_by_integral,
)
from .graphs import (
    Graph,
    Graph6Error,
    complement,
    complete_graph,
    cycle_graph,
    empty_graph,
    encode_graph6,
    parse_graph6,
    path_graph,
    seidel_matrix,
)
from .search import (
    AllGraphs,
    BoundaryFamily,
    Graph6Stream,
    ScanReport,
    scan,
)
from .seidel import (
    count_odd_pairs,
    is_sc_equivalent_to_complete,
    switch,
    switching_class_key,
)
from .spectral import (
    ExactCharPoly,
    Spectrum,
    cauchy_binet_check,
    char_poly_exact,
    eigenvalues,
    elementary_symmetric_A2,
    p_energy,
)
from .verify import (
    VerificationReport,
    run_checks,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
