"""Exact top Borel-Moore homology dimensions of type-C partial Springer fibers.

The modules are the API: import each name from the module that defines it
(labels, partitions, hyperoctahedral, springer, tensor, geometry, theta,
limits, verify), so ``import springerc`` loads no submodule.
"""

__version__ = "0.1.0"
