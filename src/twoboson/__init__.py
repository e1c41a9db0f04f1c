"""Entanglement of two identical bosons from spatial overlap and
indistinguishability.

The package root imports nothing: import each library name from its module,
as in `from twoboson.entanglement import wootters_concurrence`.

The front end, which loads no numpy: importing `cli`, building its parser,
`--help`, `--version`, a bad option value and a missing required option
load only

* `cli`          -- `twoboson` command-line front end
* `wavepacket`   -- the default wavepacket width, the overlap conventions'
                    names and the sigma/delta conversion, which `optics`
                    imports back

The production layer, which a `twoboson` command loads when it runs:

* `core_state`   -- value types, the factorized single-particle inner
                    product, the detector amplitudes and the (up, down) check
* `entanglement` -- the direct (1,1) pass, Wootters and closed-form
                    concurrence, occupation-weighted entanglement
* `optics`       -- Gaussian wavepackets, Hong-Ou-Mandel dips, Poisson
                    counts, Gaussian dip fitting, Monte Carlo error bars

The reference layer, which only `twoboson verify` and the tests load:

* `nolabel_algebra` -- unordered two-boson kets (expansion over detectors,
                       post-selection), traced by the composed route's
                       `entanglement.trace_out_distinguishability`
* `fq_oracle`       -- dense two-slot tensors that re-derive everything by
                       brute force
* `verification`    -- fifteen randomized cross-check suites that yield their
                       deviations; one above its tolerance, or a nan, fails
"""

__version__ = "0.1.0"
