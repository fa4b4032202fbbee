"""Deterministic simulation and analysis of decentralized asynchronous
SGD: per-node protocol execution over configurable topologies, exact
gradient-set staleness measurement, and evaluators for the matching
stepsize and convergence-rate formulas."""

# The staleness kernel is pure Python.  The constant and the `kernel:`
# line it feeds in summary.txt remain because perfbench stamps results
# with them.
KERNEL_IMPL = "pure"

__version__ = "0.1.0"
__all__ = ["KERNEL_IMPL", "__version__"]
