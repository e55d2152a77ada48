"""Phase retrieval by rank-one variable splitting.

Recovers a signal from intensity measurements b_n = |f_n^* x|^2 by
alternating gradient descent on a split objective that is quadratic in each
variable, with spectral initialization, a Wirtinger-flow baseline, Gaussian
and coded-diffraction measurement models, and a benchmark harness.
"""

from .core import (
    best_phase,
    derive_seed,
    phase_dist,
    relative_error,
    rng_stream,
)
from .measurement import (
    Ensemble,
    adjoint,
    cdp_ensemble,
    dense_frame,
    forward,
    gaussian_ensemble,
    measure,
    upper_frame_bound,
)
from .objective import (
    split_grad,
    split_loss,
    split_quad_form,
    wf_grad,
    wf_loss,
    wf_quad_form,
)
from .signals import (
    ImageChannels,
    load_image,
    random_gaussian_signal,
    random_lowpass_signal,
    save_image,
    signal_from_modes,
)
from .solvers import (
    Schedules,
    SolveResult,
    SolverConfig,
    altmin_solve,
    coupling_schedule,
    fixed_step,
    step_schedule,
    trace_to_csv,
    wf_solve,
)
from .spectral import InitResult, apply_spectral_matrix, spectral_init
from .analysis import (
    fd_gradient_check,
    frame_bound_check,
    monotonicity_audit,
    nuclear_dist_rank2,
    speedup_diagnostic,
)

__version__ = "0.1.0"
