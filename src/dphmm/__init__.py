"""Finite-state HMMs with Dirichlet-process emission priors.

Simulation, exact filtering and smoothing, Gibbs posterior sampling,
marginal-density pseudometrics with label-switching alignment, and the
experiment harness that checks the asymptotic claims empirically.
"""

from .emissions import (DiscreteEmission, GaussianMixtureEmission,
                        TranslatedEmission, l1_distance)
from .errors import (ConfigError, DataError, DphmmError, NumericalError,
                     SamplerBudgetError, StarvationError, StationarySolveError,
                     ZeroLikelihoodError)
from .gibbs import (GibbsConfig, PosteriorSample, ffbs_states, geweke_check,
                    run_chain)
from .hmm import (HmmParams, SmoothingTable, StationaryLaw, TransitionMatrix,
                  log_likelihood_forward, simulate, smoothing_exact,
                  stationary_distribution)
from .metrics import (AlignmentResult, align_labels, block_l1_distance,
                      kl_rate_bound, kl_rate_exact, weak_functional_gap)
from .priors import (DiscreteDpSpec, GaussianDpSpec, NormalInvGammaBase,
                     TruncatedDirichletSpec, check_entropy_finite,
                     check_inverse_scale_integrable, check_ratio_summable,
                     sample_dp_discrete, sample_transition_row)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
