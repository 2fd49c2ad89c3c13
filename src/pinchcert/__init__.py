"""pinchcert: certified pinching thresholds for minimal surfaces in spheres.

Subpackages:

- :mod:`pinchcert.exact_poly` -- exact rational polynomial algebra, Sturm
  chains, certified root isolation and sign certificates.
- :mod:`pinchcert.pinching_bounds` -- the closed-form gap bounds, threshold
  polynomials and certificate constructors.
- :mod:`pinchcert.param_search` -- deterministic sweeps over the free
  certificate parameters, with certified threshold enclosures.
- :mod:`pinchcert.calabi_lab` -- spherical-harmonic minimal immersions and
  numerical verification of their pointwise curvature identities.
- :mod:`pinchcert.shrinker_bridge` -- the self-shrinker / spherical minimal
  surface dictionary and the rigidity classifier.
- :mod:`pinchcert.report_cli` -- command-line front end emitting replayable
  JSON certificates and markdown summaries.
"""

__version__ = "1.0.0"

REPORT_SCHEMA = "pinchcert-report/2"

# The lab's sample bound and failure type live here, outside
# :mod:`pinchcert.calabi_lab`, so the command line can name them without
# importing the lab and numpy; ``calabi_lab`` exports both under these names.

#: the most samples one lab scan takes; larger counts are refused before
#: anything is allocated
MAX_SAMPLES = 1_000_000


class FrameDegeneracyError(RuntimeError):
    """The induced metric of a lab sample is singular."""
