"""Monte Carlo and MCMC estimation toolkit with reproducible experiments.

Deterministic counter-style RNG with derived substreams, inverse-CDF
samplers, adaptive quadrature oracles, importance sampling and evidence
estimators, Metropolis-Hastings and slice/Gibbs kernels, and a CSV/SVG
experiment harness driven by the `mcstat` command.
"""

from .estimators import (EvidenceEstimate, RunningEstimate, SnisResult,
                         bridge_log_evidence, chib_log_evidence, ess,
                         harmonic_mean_log_evidence, mc_estimate,
                         running_moments, self_normalized_is)
from .harness import (EXPERIMENTS, ConfigError, EnvelopeSummary,
                      ExperimentConfig, ExperimentResult, checkpoints,
                      evidence, export_csv, export_svg, figure1, figure2,
                      figure3, run_envelope, run_experiment)
from .mcmc import (CalibrationError, CalibrationReport, ChainFailure, ChainTrace,
                   RwProposal, batch_means_se, calibrate_scale,
                   calibrate_scale_report, discrete_mh_transition_matrix,
                   run_gibbs_chain, run_gibbs_chains, run_mh_chain,
                   run_mh_chains, slice_gibbs_step, slice_truncation_bound)
from .quadrature import (QuadratureError, QuadratureResult,
                         gauss_legendre_integrate, quadrature_integrate)
from .rng import (NormalDist, RngStream, derive_substream, norm_cdf, norm_ppf,
                  norm_ppf_many, normal_logpdf, normals, rng_new, sample_normal,
                  sample_truncated_normal)
from .targets import (EXAMPLE_TARGET, ConjugateNormalModel, TargetDensity,
                      analytic_log_evidence, cubic_ratio, example_target_cdf,
                      example_target_cdf_many, example_target_logpdf,
                      example_target_moment, example_target_norm_const,
                      example_target_pdf_many, gaussian_functional_expectation,
                      get_model, posterior_params)

__version__ = "0.1.0"
