"""nlosc: rings of nonlocally coupled driven oscillators, reduced to a
single high-order initial value problem and solved by non-polynomial
spline collocation.

The public surface is organized by module, each importing only those
above it:

* :mod:`nlosc.expr`    -- tiny closed-form expression language in t
* :mod:`nlosc.spline`  -- one solver for every even order 2N (N-oscillator
  rings): ``Method(name, weights, closure).solve(ivp, n)``, the only solve
  path, and its records, the problem ``HighOrderIVP`` and the solved grid
  ``GridSolution``; weight sets, the closure table, truncation diagnostics
* :mod:`nlosc.chain`   -- oscillator rings, reduced to a ``HighOrderIVP``,
  and trajectory recovery from its ``GridSolution``
* :mod:`nlosc.verify`  -- benchmark cases, presets, error tables, convergence
* :mod:`nlosc.cli`     -- command-line front end
"""

from nlosc.chain import OscillatorChain, recover_trajectories, reduce_chain
from nlosc.expr import Expression, evaluate, parse, taylor, to_text
from nlosc.spline import (
    IMPROVED_SET4,
    IMPROVED_SET6,
    GridSolution,
    HighOrderIVP,
    Method,
    WeightSet,
    truncation_brackets,
    zeroing_weights,
)

__version__ = "0.1.0"

__all__ = [
    "Expression",
    "parse",
    "evaluate",
    "taylor",
    "to_text",
    "OscillatorChain",
    "HighOrderIVP",
    "reduce_chain",
    "recover_trajectories",
    "WeightSet",
    "GridSolution",
    "IMPROVED_SET4",
    "IMPROVED_SET6",
    "Method",
    "truncation_brackets",
    "zeroing_weights",
    "__version__",
]
