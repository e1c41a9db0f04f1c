"""Entanglement of two identical bosons from spatial overlap and
indistinguishability.

The public surface, by layer:

* `core_state`      -- value types and the factorized single-particle inner
                       product
* `nolabel_algebra` -- calculus of unordered two-boson kets (expansion over
                       detectors, post-selection)
* `fq_oracle`       -- dense two-slot tensors that re-derive everything by
                       brute force; a reference for `verification` and the
                       tests, imported by no production route
* `entanglement`    -- distinguishability trace, Wootters and closed-form
                       concurrence, occupation-weighted entanglement
* `optics`          -- Gaussian wavepackets, Hong-Ou-Mandel dips, Poisson
                       counts, Gaussian dip fitting, Monte Carlo error bars
* `verification`    -- fifteen randomized cross-check suites that yield
                       their deviations; `run_suites` reports the largest,
                       and one above the suite's tolerance, or a nan, fails
                       `twoboson verify`
* `cli`             -- `twoboson` command-line front end
"""

__version__ = "0.1.0"

from .core_state import (
    ATOL_EXACT,
    ATOL_PIPELINE,
    BasisMismatchError,
    DistVector,
    SingleParticleState,
    SpatialAmplitudes,
    Spin,
    SpinDensityMatrix,
    ValidationError,
    inner_single,
)
from .nolabel_algebra import (
    SymmetricTwoBosonState,
    expand_in_detector_basis,
    postselect_one_per_detector,
    project_single,
    transition_two,
)
from .entanglement import (
    NumberDistribution,
    concurrence_closed_form,
    entanglement_of_particles,
    number_distribution,
    trace_out_distinguishability,
    wootters_concurrence,
)
from .optics import (
    FitResult,
    concurrence_optical,
    fit_gaussian_dip,
    gaussian_overlap,
    hom_coincidence,
    monte_carlo_errorbars,
    simulate_counts,
    spatial_amplitudes_from_theta,
)

__all__ = [name for name in dir() if not name.startswith("_")]
