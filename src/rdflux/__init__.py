"""Residual-distribution solvers for steady 2D conservation laws.

The package splits per-triangle flux residuals to mesh nodes and
marches the nodal states in pseudo-time to a steady state.  Two
distribution families are provided: a characteristic-decomposition
upwind scheme and a relaxation-derived scheme that needs only a
wave-speed bound, plus linear-preserving limiting and a convergence
correction on top of either.

Modules
-------
mesh, meshgen          triangulations, geometry, generators
physics                conservation laws (advection, Burgers, gas dynamics)
smallmat               the N scheme's batched star solve
distribution           per-triangle residual splitting
limiting               nonlinear limiting and the convergence correction
boundary               strong boundary enforcement
solver                 pseudo-time marching driver
config, vtkio, cli     run configuration, result emission, command line
verify                 built-in property suites
"""
from .boundary import BoundarySet
from .config import build_problem, load_config, preset, preset_names
from .errors import (
    ConfigError,
    DegenerateElement,
    Diverged,
    InvalidArgument,
    InvalidTopology,
    NonPhysicalState,
    RdfluxError,
    StagnantField,
)
from .mesh import Mesh, load_mesh, save_mesh
from .physics import Advection, Burgers, Euler, RotatingAdvection
from .solver import SolveResult, Solver, SolverConfig

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "Mesh",
    "load_mesh",
    "save_mesh",
    "Advection",
    "RotatingAdvection",
    "Burgers",
    "Euler",
    "BoundarySet",
    "Solver",
    "SolverConfig",
    "SolveResult",
    "build_problem",
    "load_config",
    "preset",
    "preset_names",
    "RdfluxError",
    "InvalidArgument",
    "ConfigError",
    "NonPhysicalState",
    "DegenerateElement",
    "InvalidTopology",
    "StagnantField",
    "Diverged",
]
