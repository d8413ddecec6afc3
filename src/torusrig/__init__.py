"""Rigidity, sparsity and reduction calculus for torus graphs with one hole.

The toolkit constructs torus graphs with a single hole, decides
(3,6)-tightness and generic minimal 3-rigidity, classifies hole boundaries
into the seventeen detachment forms, reduces by one greedy contraction
sequence down to the two uncontractible graphs, and reverses that sequence
into a vertex-splitting construction certificate rooted at K3.  Fission, the
key lemma's move at a critical cycle, is available on its own.

``check`` decides (3,6)-tightness for any number of holes, but minimal
rigidity follows from tightness only for one hole: two octahedra glued at an
antipodal pair form a tight two-hole torus graph of rank 3|V| - 7.  So the
reduction and certificate commands refuse more than one hole.

Twelve public names have no caller in the package, only in the tests and the
benchmark; each stays public for a reason.  ``find_critical_cycle_through``
and ``fission`` are the key lemma's search and move, which the benchmark
runs.  ``contract`` is one contraction of a hole, which the benchmark's
key-lemma check calls and its tracer times; greedy reduction builds its leaf
with one refill instead.  ``divide`` is the paper's division move,
``cut_hole`` and ``cut_holes`` build its torus with one or several holes,
and ``double_banana`` is its flexible graph that meets the Maxwell count.
``is_in_T`` is the main theorem's class 𝒯 and ``is_uncontractible`` the
test that ends the reduction; the acceptance criteria import both, and
``is_isomorphic``, which the benchmark's tracer times.  ``rigidity_matrix``
is the matrix ``generic_rank`` ranks, which the tests rank densely as an
oracle.  ``is_min_3_rigid`` is the decision the acceptance criteria ask of
every tight graph; a certificate's rank check takes the rank it decides by
instead, to name it when it falls short.
"""

from .complexes import (ClosedWalk, DiscMap, SurfaceComplex, TorusComplex,
                        TorusWithHole, cut_hole, cut_holes, rectangular_torus)
from .graphs import Graph, double_banana, freedom, is_isomorphic
from .catalog import (Classification, DetachmentWord, build_H, classify,
                      parse_word, the_17)
from .homology import crossover_class, walk_homology
from .reduction import (Certificate, EdgeClass, SeparatingCycle, certify,
                        classify_edge, contract, divide, fission,
                        find_critical_cycle_through, is_uncontractible,
                        reduce_greedy, verify_certificate)
from .rigidity import (RigidityReport, generic_rank, is_min_3_rigid,
                       rigidity_matrix, rigidity_report, random_placement)
from .sparsity import SparsityVerdict, Status, check_3_6, is_in_T

__version__ = "0.1.0"

__all__ = [
    "ClosedWalk", "DiscMap", "SurfaceComplex", "TorusComplex", "TorusWithHole",
    "cut_hole", "cut_holes", "rectangular_torus",
    "Graph", "double_banana", "freedom", "is_isomorphic",
    "Classification", "DetachmentWord", "build_H", "classify", "parse_word",
    "the_17",
    "crossover_class", "walk_homology",
    "Certificate", "EdgeClass", "SeparatingCycle", "certify",
    "classify_edge", "contract", "divide", "fission",
    "find_critical_cycle_through", "is_uncontractible", "reduce_greedy",
    "verify_certificate",
    "RigidityReport", "generic_rank", "is_min_3_rigid", "rigidity_matrix",
    "rigidity_report", "random_placement",
    "SparsityVerdict", "Status", "check_3_6", "is_in_T",
]
