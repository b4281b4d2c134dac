"""Fit an affine coupling flow to off-center Gaussian data and watch the
likelihood improve; check invertibility and the log-determinant against
a brute-force Jacobian."""

import numpy as np

from sedkit.config import FlowSection
from sedkit.evalsts import cosine
from sedkit.flow import CouplingFlow, fit_flow, flow_forward, flow_nll_value

rng = np.random.default_rng(4)
X = rng.normal(5.0, 1.0, size=(400, 8))

# the [flow] section says how many layers; fit_flow builds that flow from
# the init seed, then fits it with batches ordered by the data seed
cfg = FlowSection(layers=3, lr=5e-3, epochs=50, batch=64)
fresh = CouplingFlow(8, cfg.layers, seed=0)
print(f"NLL under the fresh (identity) flow: {flow_nll_value(fresh, X):.4f}")
flow = fit_flow(X, cfg, 0, 1)
print(f"NLL after fitting:                   {flow_nll_value(flow, X):.4f}")

z, log_det = flow_forward(flow, X[:32])
back = flow.inverse(z)
print(f"round-trip max error over 32 rows: {np.max(np.abs(back - X[:32])):.2e}")
print(f"latent mean {z.mean():+.3f} (data mean {X[:32].mean():+.3f})")

# numerical Jacobian at one point vs the analytic log-determinant; the
# flow maps (B, 8) batches, so a point is a batch of one row
x0 = X[:1]
_, ld = flow_forward(flow, x0)
h = 1e-5
J = np.empty((8, 8))
for j in range(8):
    e = np.zeros((1, 8))
    e[0, j] = h
    J[:, j] = (flow_forward(flow, x0 + e)[0][0]
               - flow_forward(flow, x0 - e)[0][0]) / (2 * h)
sign, brute = np.linalg.slogdet(J)
print(f"analytic log|det J| = {ld[0]:.8f}, brute force = {brute:.8f}")

s = cosine(*flow_forward(flow, X[:2])[0])
print(f"latent cosine of two embeddings: {s:+.4f}")
