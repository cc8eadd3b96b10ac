"""Sign-based stochastic optimizers (SignSGD family, dithered variants,
calibrated sign-to-SGD switching) with synthetic problems and empirical
verification of the associated convergence bounds."""

__version__ = "0.1.0"
