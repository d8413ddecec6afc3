"""Exception hierarchy for torusrig.

Structural errors signal invalid inputs; the *test-failure signals*
(NoCriticalCycle, StuckButContractible, TrivialClassFound) flag violations of
theorems that hold on the class of tight single-hole torus graphs, so they
should never fire on validated inputs from that class.
"""


class TorusRigError(Exception):
    """Base class for all torusrig errors."""


class BadArgument(TorusRigError):
    """A parameter such as a CLI option is out of range."""


# -- records and complex construction ---------------------------------------

class MalformedRecord(TorusRigError):
    """A JSON graph record does not have the documented shape."""


class LoopEdge(TorusRigError):
    """A face repeats a corner, inducing a loop edge."""


class DuplicateFace(TorusRigError):
    """Two faces share the same corner set."""


class EdgeInThreeFaces(TorusRigError):
    """An edge is incident to more than two faces."""


class NonSimple(TorusRigError):
    """The underlying graph is not simple."""


class NotClosedSurface(TorusRigError):
    """Complex is not a closed connected surface of the expected type."""


class TooSmall(TorusRigError):
    """Grid dimensions too small to yield a simple quotient."""


# -- hole cutting -----------------------------------------------------------

class NotADisc(TorusRigError):
    """Face set does not carry a triangulated-disc structure."""


class NotFaceConnected(TorusRigError):
    """Face set is not connected under shared-edge adjacency."""


class HoleInteraction(TorusRigError):
    """Two hole regions share an edge or a face."""


class SingleHoleRequired(TorusRigError):
    """Operation is defined only for graphs with exactly one hole."""


# -- sparsity / rigidity ----------------------------------------------------

class TooFewVertices(TorusRigError):
    pass


class MissingCoordinate(TorusRigError):
    """Placement does not cover every vertex."""


# -- reduction --------------------------------------------------------------

class NotTight(TorusRigError):
    """A move or certificate that needs a (3,6)-tight graph got another."""


class UnknownEdge(TorusRigError):
    pass


class NotContractible(TorusRigError):
    """Edge is blocked, on the boundary, or contraction breaks the surface."""


class InvalidAnchors(TorusRigError):
    pass


class NotAnEdge(TorusRigError):
    pass


class InvalidCycle(TorusRigError):
    """Separating cycle data does not describe an enlargement of the hole."""


class NoMatchingCatalogGraph(TorusRigError):
    pass


class NoCriticalCycle(TorusRigError):
    """Key-lemma violation signal; must never fire on tight inputs."""


class StuckButContractible(TorusRigError):
    """Greedy-contraction lemma violation signal."""


class ReplayMismatch(TorusRigError):
    """Certificate replay did not reproduce the target graph."""


# -- catalog ----------------------------------------------------------------

class BadToken(TorusRigError):
    pass


class SumNot9(TorusRigError):
    pass


class WalkNot9(TorusRigError):
    pass


# -- homology ---------------------------------------------------------------

class NotACrossover(TorusRigError):
    pass


class TrivialClassFound(TorusRigError):
    """A crossover edge with trivial homology class; impossible on tight inputs."""
