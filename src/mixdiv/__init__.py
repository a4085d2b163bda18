"""Mixed f-divergences for vectors of measures on finite measure spaces.

Core surface:

* :mod:`mixdiv.measures`    spaces, densities, exact integration
* :mod:`mixdiv.generators`  scalar generators and the adjoint t*f(1/t)
* :mod:`mixdiv.divergence`  classical / mixed / interpolated divergences
* :mod:`mixdiv.audit`       inequality checks and the randomized suite
* :mod:`mixdiv.geometry`    sphere grids and affine surface areas
* :mod:`mixdiv.cli`         batch jobs and JSON reports
* :mod:`mixdiv.report`      the indent-2 JSON report writer
"""

from .audit import (
    AuditConfig,
    AuditReport,
    ProportionalityVerdict,
    Tolerances,
    audit_suite,
    build_nk,
    check_alexandrov_fenchel,
    check_concave_upper,
    check_corollary,
    check_interpolation,
    check_jensen_bound,
    effectively_proportional,
    reports_to_json,
    violations,
)
from .divergence import (
    IthMixedSpec,
    PairTriple,
    f_dissimilarity,
    f_divergence,
    ith_bhattacharyya,
    ith_hellinger,
    ith_kl,
    ith_mixed,
    ith_mixed_reference,
    ith_renyi,
    ith_total_variation,
    mixed_bhattacharyya,
    mixed_divergence,
    mixed_divergence_k,
    mixed_hellinger,
    mixed_kl,
    mixed_renyi,
    mixed_total_variation,
)
from .generators import (
    Generator,
    MultivariateGenerator,
    adjoint,
    eval_generator,
    generator_from_spec,
    make_generator,
    matusita_affinity,
    paired,
    toussaint_affinity,
)
from .geometry import (
    EllipsoidBody,
    SphereGrid,
    ball,
    body_densities,
    ith_mixed_affine_surface_area,
    mixed_affine_surface_area,
    sphere_grid,
)
from .measures import (
    EPS_NORM,
    Density,
    MeasureSpace,
    MeasureVector,
    integrate,
    make_space,
    make_vector,
    validate_density,
)

__version__ = "0.1.0"
