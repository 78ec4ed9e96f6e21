"""Finite-state HMMs with Dirichlet-process emission priors.

Simulation, exact filtering and smoothing, Gibbs posterior sampling,
marginal-density pseudometrics with label-switching alignment, and the
experiment harness that checks the asymptotic claims empirically.
"""

from .emissions import (DiscreteEmission, GaussianMixtureEmission,
                        TranslatedEmission, l1_distance, max_emission_l1)
from .errors import (ConfigError, DataError, DphmmError, NumericalError,
                     SamplerBudgetError, StarvationError, StationarySolveError,
                     ZeroLikelihoodError)
from .gibbs import (GibbsConfig, PosteriorSample, ffbs_states, geweke_check,
                    run_chain)
from .hmm import (HmmParams, SmoothingTable, StationaryLaw, TransitionMatrix,
                  forgetting_bound, log_likelihood_forward, marginal_density,
                  simulate, smoothing_exact, smoothing_windowed,
                  stationary_distribution)
from .metrics import (AlignmentResult, align_labels, block_l1_distance,
                      block_l1_upper_bound, kl_rate_bound, kl_rate_exact,
                      relabel, weak_functional_gap)
from .priors import (DiscreteDpSpec, GaussianDpSpec, GeometricTailPmf,
                     NormalInvGammaBase, SequencePmf, TruncatedDirichletSpec,
                     check_entropy_finite, check_inverse_scale_integrable,
                     check_ratio_summable, geometric_pmf, sample_dp_discrete,
                     sample_dp_mixture, sample_transition_row,
                     truncated_dirichlet_logpdf)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
