"""Curvature machinery for octonionic planes and quaternionic Grassmannians.

Submodule map:
    octonion_table the signed basis table, in pure Python
    octonion       division-algebra arithmetic over the eight-dimensional basis
    operators      self-adjoint operators, eigenclusters, the Jacobi build
    cayley_plane   sixteen-dimensional curvature tensor, Jacobi operators
    grassmannian   Kaehler + quaternionic structure bundles and their tensor
    tube_flow      branch kernel and Riccati evolution, focal-configuration
                   search, tube spectra built from its core catalog,
                   proportional-eigenvalue sweep
    isoparametric  mean-curvature profiles, pole stripping, power-sum cascade
    certificates   verdict objects shared by the oracles
    errors         the exception types
    cli            command-line front end

The package re-exports nothing, so ``import curvadapt`` loads no
submodule: import each name from its submodule.  operators, cayley_plane,
grassmannian and octonion import numpy.  The other modules import numpy,
or those four, only inside the functions that do linear algebra.  The
cli's handlers import the submodules they call in their own bodies, so
importing the cli loads errors and no other submodule, and no numpy.
"""

__version__ = "0.1.0"
