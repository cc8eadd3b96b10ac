"""Sign-based stochastic optimizers (SignSGD family, dithered variants,
calibrated sign-to-SGD switching) with synthetic problems and empirical
verification of the associated convergence bounds."""

from .core import (RngStream, inner, l1_norm, l2_norm_sq, sample_gaussian,
                   sign_vec)
from .dither import (correct_sign_prob, dither_sigma_sq,
                     expected_dithered_sign, mc_dithered_sign)
from .optimizers import (OptimizerConfig, OptimizerState, StepParams,
                         init_state, lambda_project, preset, stack_params,
                         step)
from .problems import (GradSample, NoiseSpec, Problem, make_logistic,
                       make_mlp, make_quadratic, stochastic_grad)
from .theory import (SnrProfile, TheoremInputs, expected_alignment_bound,
                     gauss_bound, mc_sign_failure, phi_measure,
                     sign_agreement_lower_bound, theorem_rhs_l1,
                     theorem_rhs_phi)

__version__ = "0.1.0"
