"""nlosc: rings of nonlocally coupled driven oscillators, reduced to a
single high-order initial value problem and solved by non-polynomial
spline collocation.

The public surface is organized by module:

* :mod:`nlosc.expr`    -- tiny closed-form expression language in t
* :mod:`nlosc.chain`   -- oscillator rings, reduction, trajectory recovery
* :mod:`nlosc.spline`  -- one solver for every even order 2N (N-oscillator
  rings): weight sets, the closure table, truncation diagnostics
* :mod:`nlosc.verify`  -- benchmark cases, error tables, convergence, oracle
* :mod:`nlosc.cli`     -- command-line front end
"""

from nlosc.chain import (
    HighOrderIVP,
    OscillatorChain,
    TrajectorySet,
    initial_derivatives,
    recover_trajectories,
    reduce_chain,
)
from nlosc.expr import Expression, differentiate, evaluate, parse, taylor, to_text
from nlosc.spline import (
    IMPROVED_SET4,
    IMPROVED_SET6,
    GridSolution,
    WeightSet,
    derive_parameters6,
    solve,
)

__version__ = "0.1.0"

__all__ = [
    "Expression",
    "parse",
    "evaluate",
    "differentiate",
    "taylor",
    "to_text",
    "OscillatorChain",
    "HighOrderIVP",
    "TrajectorySet",
    "reduce_chain",
    "initial_derivatives",
    "recover_trajectories",
    "WeightSet",
    "GridSolution",
    "IMPROVED_SET4",
    "IMPROVED_SET6",
    "solve",
    "derive_parameters6",
    "__version__",
]
