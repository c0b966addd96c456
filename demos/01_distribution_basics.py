"""Amplitude distribution basics: density shapes, inversion sampling, residual scale.

The package models nonnegative amplitude data whose mean mu is the natural
parameter.  ``rayreg.distribution`` gives the density, distribution function,
quantile and inversion sampler of that law as plain functions of ``(y, mu)``,
all closed-form, so sampling is a one-liner and model checking reduces to
normal-quantile residuals.
"""

import math

import numpy as np

from rayreg import distribution

# The variance is mu^2 (4/pi - 1), so the coefficient of variation is the
# same for every mean.
CV = math.sqrt(4.0 / math.pi - 1.0)

# --- density shapes for a few means -----------------------------------------
print("Density evaluated at y = 1 for several means:")
for mu in (0.65, 1.3, 2.7, 5.5):
    print(f"  mu={mu:4.2f}: f(1)={distribution.pdf(1.0, mu):.4f}  "
          f"F(1)={distribution.cdf(1.0, mu):.4f}  sd={mu * CV:.4f}")

print(f"\nsd/mean is constant: {CV:.6f} (sqrt(4/pi - 1))")

# --- inversion sampling ------------------------------------------------------
mu = 2.0
rng = np.random.default_rng(7)
draws = distribution.sample(mu, rng, size=50_000)
print(f"\n50k inversion draws at mu=2: mean={draws.mean():.4f}, "
      f"sd={draws.std():.4f}")

# Quantile and distribution functions invert each other:
u = np.array([0.05, 0.5, 0.95])
y = distribution.quantile(u, mu)
print("quantiles:", np.round(y, 4), "-> back through cdf:",
      np.round(distribution.cdf(y, mu), 4))

# --- the 3-sigma control band ------------------------------------------------
# Under a correct model, normal-quantile residuals of amplitude data are
# approximately standard normal, so |r| > 3 flags ~0.27% of pixels.
from rayreg.inference import quantile_residuals_from_mean

sample = distribution.sample(mu, np.random.default_rng(1), size=200_000)
res = quantile_residuals_from_mean(sample, mu)
print(f"\nresiduals of a correct model: mean={res.mean():+.4f}, "
      f"var={res.var():.4f}, fraction |r|>3 = {(np.abs(res) > 3).mean():.5f}")
