"""The benchmark tracer's ``maxflow`` binding of ``sparsity.densest_extension``."""

from .sparsity import densest_extension
