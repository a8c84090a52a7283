"""Decoherent discrete-time quantum walks on the line.

Two independent computation routes for position moments of a walker evolved
by a translation-invariant Kraus channel:

* ``simulator`` -- brute-force density-matrix evolution (the oracle),
* ``moments`` -- exact momentum-space transfer-matrix engine,

plus closed-form diffusion constants for the broken-line noise model in
``brokenline`` and channel builders / serialization in ``channels``.
"""

from .brokenline import (
    DiffusionResult,
    critical_p,
    diffusion_closed_form,
    diffusion_integral,
)
from .channels import (
    HADAMARD,
    BrokenLineParams,
    KrausTerm,
    WalkChannel,
    build_broken_line,
    build_coherent,
    build_coin_channel,
    channel_from_dict,
    channel_to_dict,
    completeness_residual,
    dephasing_channel,
    is_coin_channel,
    load_channel,
    momentum_grid,
    save_channel,
    validate_completeness,
)
from .errors import (
    BallisticRegimeError,
    BracketingError,
    CompletenessError,
    DomainError,
    DQWalkError,
    InvalidCoinKrausError,
    NonRealMomentError,
    NonUnitaryCoinError,
    NotACoinChannelError,
    NotContractingError,
    PhaseConstraintError,
    QuadratureTooCoarseWarning,
    UnnormalizedCoinError,
)
from .moments import (
    MomentSeries,
    asymptotic_first_moment,
    diffusion_from_slope,
    moment_series,
    second_moment_coin_specialized,
    transfer_grids,
)
from .pauli import COIN_PRESETS, PAULI, coin_state, from_pauli, to_pauli
from .simulator import (
    DensityState,
    evolve,
    init_state,
    moment_direct,
    position_distribution,
    step,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
