"""Multivariate Hawkes processes on node networks.

Event streams live on the nodes of an undirected topology; excitation
travels along a directed causal graph between event *types* and propagates
between *nodes* through powers of the normalized adjacency. The package
simulates such processes, fits their rate parameters by EM, and recovers
the causal graph by penalized greedy search.

The package root exports nothing but ``__version__``: import names from
their submodules (``from hawkesnet.simulate import SimConfig``), so a
program loads only the layers it uses.
"""

__version__ = "0.1.0"
