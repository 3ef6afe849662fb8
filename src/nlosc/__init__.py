"""nlosc: rings of nonlocally coupled driven oscillators, reduced to a
single high-order initial value problem and solved by non-polynomial
spline collocation.

The public surface is organized by module:

* :mod:`nlosc.expr`    -- tiny closed-form expression language in t
* :mod:`nlosc.chain`   -- oscillator rings, reduction, trajectory recovery
* :mod:`nlosc.spline4` -- solver for 4th-order problems (two-oscillator rings)
* :mod:`nlosc.spline6` -- solver for 6th-order problems (three-oscillator rings)
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
from nlosc.spline4 import IMPROVED_SET4, CoefficientSet4, GridSolution, solve4
from nlosc.spline6 import IMPROVED_SET6, CoefficientSet6, derive_parameters6, solve6

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
    "CoefficientSet4",
    "CoefficientSet6",
    "GridSolution",
    "IMPROVED_SET4",
    "IMPROVED_SET6",
    "solve4",
    "solve6",
    "derive_parameters6",
    "__version__",
]
