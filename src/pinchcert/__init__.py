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
