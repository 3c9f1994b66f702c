"""Hierarchical sparse coding for video with a reweighted quadratic solver.

The package infers sparse states and causes for video frames through a
stack of layers, learns the layer matrices unsupervised, and ships
reference solvers plus metrics and a command-line interface for
benchmarking, training, clustering, and reconstruction.  Callers import
the submodules; the package itself holds only the version.
"""

__version__ = "0.1.0"
