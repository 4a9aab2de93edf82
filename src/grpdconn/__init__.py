"""Numerical Lie groupoids, multiplicative connections, and transport.

Layers:

- ``geometry``, ``smoothmap``, ``integrate``, ``linalg``: coordinate patches,
  maps with analytic or finite-difference Jacobians, guarded RK4, subspace
  tests in the flat patch gauge.
- ``groupoid``, ``catalog``: groupoids as coordinate data with closed-form
  samplers; the example catalog.
- ``tangent``: tangent structure maps, subgroupoid closure checks, exact
  splitting correspondences.
- ``connection``, ``transport``: horizontal lifts, multiplicativity checks
  (pointwise and path-based), parallel transport, holonomy, completeness
  probes, and theorem cross-checks.
- ``constructions``: pullback lifts, gluing, fibre averaging, exhaustion
  functions, level schedules, and the interval-certified complete builder.
  A trivializing atlas declares each window's shift once (``SineShift``:
  value, derivative, interval extension), reads its fibre from the family,
  and owns the one window-weight function that the glued lift, the
  builder's lift and the certificate share. A ``LevelSchedule`` holds its
  atlas, profile and levels and derives its depth, radii and disjointness;
  the builder, its recheck and the disjointness proof read that record.
- ``scenarios``, ``cli``: the named scenario registry and its CLI.

Exported beyond what the scenarios run, each for a statement of the paper:
``vb_subgroupoid_check`` with ``kernel_frames``, ``full_tangent_frames``,
``core_side_decomposition`` and ``tangent_structure_maps`` (a multiplicative
connection is a VB-subgroupoid of TG); ``glue_local_trivial(atlas)``,
which glues the chart-flat lifts of a ``TrivializingAtlas`` through its
normalised window bumps (locally trivial families admit one);
``multiplicative_vf_lift`` (a multiplicative connection on a family lifts
base vector fields to multiplicative ones); ``morphism_check`` (a
submersion of groupoids is a morphism); ``constant_path`` and ``subpath``
(parallel transport is a cocycle along paths).
"""

from .config import Config, DEFAULT, parse_config_file
from .geometry import Patch, Point, ProductSpace, Space, Tangent, distance
from .smoothmap import PairMap, SmoothMap, jacobian
from .integrate import TrajectoryOutcome, dump_trajectory, integrate
from .linalg import subspace_residual
from .groupoid import (
    CheckReport,
    FibrationVerdict,
    Groupoid,
    GroupoidMorphism,
    check_axioms,
    fibration_probe,
    morphism_check,
)
from .catalog import default_instances
from .tangent import (
    SubbundleFrame,
    VBFiberData,
    core_side_decomposition,
    full_tangent_frames,
    kernel_frames,
    splitting_correspondence,
    tangent_structure_maps,
    vb_subgroupoid_check,
)
from .connection import (
    Connection,
    MultiplicativityReport,
    Rejection,
    action_connection,
    complement_check,
    kernel_connection,
    multiplicativity_check_pointwise,
    multiplicative_vf_lift,
)
from .transport import (
    ProbeVerdict,
    TransportOutcome,
    completeness_probe,
    current_groupoid_check,
    holonomy,
    parallel_transport,
    theorem_crosscheck_kernel,
    transport_multiplicativity_check,
)
from .constructions import (
    CompletenessCertificate,
    HaarFiberQuadrature,
    LevelSchedule,
    SineShift,
    TrivializingAtlas,
    complete_connection_builder,
    flatness_certificate_check,
    glue_local_trivial,
    haar_average,
    invariant_exhaustion,
    level_schedule,
    morita_connection,
    proper_family_connection,
)
from .paths import BasePath, constant_path, coordinate_path, subpath
from .scenarios import ReportDocument, emit_report, list_scenarios, run_scenario

__version__ = "0.1.0"
