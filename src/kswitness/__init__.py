"""kswitness: valuations on spheres, descent-circle geometry, finite
certificate extraction, and exact non-colorability of classic ray sets.

The package splits along the problem's own joints:

- ``sphere_geom``: latitude-convention coordinates, descent circles, the
  two-step descent, rotations, orthonormal triads;
- ``valuation``: the oracle interface plus the explicit constructions
  (2D, and the 3D near-miss families; in 1D a valuation is a constant,
  which ``FunctionValuation`` wraps), the basis sum rule, and the
  d >= 4 -> 3 reduction from one read of the standard basis;
- ``witness``: the certificate extractor;
- ``kssets``: exact integer ray sets, orthogonality graphs, basis
  enumeration, and the {0,1}-coloring solver with bundled classic data;
- ``cli``: the ``kswitness`` command-line front door.

The names below are re-exported lazily: ``import kswitness`` loads no
submodule.  numpy loads only on the batch path (``evaluate_many`` and the
``plot`` grids), never on first use of a name.
"""

_EXPORTS = {
    "sphere_geom": (
        "EPS_NORM", "EPS_ORTHO", "DescentAwayFromEquator", "DescentCircle",
        "DomainError", "NotOrthogonal", "SphPoint", "Triad", "descent_theta",
        "equator_crossings", "from_cartesian", "perp_of_apex", "rotation_to_pole",
        "to_cartesian", "two_step_chain", "two_step_delta_phi",
    ),
    "valuation": (
        "FourSegmentValuation", "FunctionValuation", "Generator2D", "NotABasis",
        "OracleSpecError", "PolarCapValuation", "ReducedValuation", "RotatedValuation",
        "StepMeridianValuation", "Valuation", "Valuation2D", "Valuation2DRotated",
        "build_oracle", "check_basis", "reduce_dimension",
    ),
    "witness": ("WitnessConfig", "WitnessReport", "extract_witness"),
    "kssets": (
        "ColoringResult", "DuplicateRay", "OrthoGraph", "RaySet", "RaySetFormatError",
        "build_ortho_graph", "enumerate_bases", "find_valuation", "load_bundled",
        "load_ray_set", "verify_assignment",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)
__version__ = "0.1.0"


def __getattr__(name: str):
    module = _HOME.get(name)
    if module is None:
        # Not an export: lets ``from kswitness import cli`` fall through to
        # the submodule import.
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # __import__ rather than importlib.import_module, which
    # ``python -X importtime`` does not log.
    value = getattr(__import__(f"{__name__}.{module}", fromlist=(name,)), name)
    globals()[name] = value
    return value
