"""Security-analysis toolkit for a continuous-variable QKD protocol with an
untrusted dual-homodyne relay: worst-case key rates under correlated
two-mode Gaussian attacks, brute-force minimization certificates,
numerical checks of the minimization proofs, transmissivity sweeps and a
classical simulation of the self-aligned plug-and-play optics."""

from .core import (
    AncillaState,
    AttackCoords,
    DomainError,
    EmptyDomainError,
    LinkPair,
    NonphysicalStateError,
    ParameterError,
    ProtocolParams,
    SymmetricDegenerateError,
    attack_coords,
    chi_equivalent,
    entropy_h,
    g_max,
    is_physical,
    log_ratio_g,
)
from .keyrate import (
    KeyRateReport,
    key_rate,
    key_rate_closed,
    key_rate_min_chi,
    key_rate_min_thermal,
    mutual_information,
)
from .attack import (
    ArgMinReport,
    AttackGrid,
    RateProfile,
    min_rate_brute,
    physical_bounds,
    rate_profile_y,
)
from .proofs import (
    LambdaProbe,
    MonotoneProbe,
    PositivityProbe,
    RegionVerdict,
    classify_nu_regions,
    run_verification_suite,
    verify_lambda_minimization,
    verify_monotone_chi,
    verify_monotone_thermal,
    verify_p_prime_positive,
)
from .sweep import (
    ChiKnowledge,
    RelayScanReport,
    SweepConfig,
    SweepRecord,
    SweepTable,
    ThermalKnowledge,
    export,
    relay_scan,
    run_sweep,
)
from .optics import (
    AlignmentReport,
    Pulse,
    RoutingError,
    SchemeConfig,
    check_self_alignment,
    propagate,
)

__version__ = "0.1.0"
