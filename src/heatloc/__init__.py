"""heatloc: off-grid localization of instantaneous heat sources.

Recovers positions and amplitudes of point heat sources from a handful of
spatiotemporal temperature samples by total-variation-norm minimization over
measures, solved through adaptive grid refinement of discretized dual
problems.  Includes a certificate lab that numerically verifies the
soft-recovery guarantees and a fixed-grid smoothed-l0 baseline.

The package root exports the names of the library example; everything else
lives in the submodules (``heatloc.bench``, ``heatloc.certificates``, ...).
"""

from .field import SparseMeasure
from .operators import MeasurementOperator, SampleSet, measure
from .refinement import RefinementConfig, run_refinement

__all__ = [
    "MeasurementOperator",
    "RefinementConfig",
    "SampleSet",
    "SparseMeasure",
    "measure",
    "run_refinement",
]

__version__ = "0.1.0"
