"""The extension factor and its identifiability curve.

gamma(K, alpha) is the vertex-to-centroid distance ratio of the centroidal
Voronoi tessellation of a symmetric Dirichlet on the simplex. It depends
only on K and alpha, never on the simplex shape. With the centroids
symmetric on the center-to-vertex segments, each Voronoi cell is the set
where one weight is the largest, so gamma follows exactly from E[max] of
K iid Gamma(alpha) draws: one quadrature (``quadrature_gamma``). The paper
calibrates gamma by Monte Carlo instead (``estimate_gamma``,
``build_gamma_table``); both are printed side by side, and the program
itself always uses the quadrature. The scalar
phi(alpha) = gamma^2 / (K (K alpha + 1)) is what second moments can
identify: it rises with alpha and flattens past alpha ~ 2.5, which is where
concentration estimates lose precision.
"""

import numpy as np

import simplexnest as sn

# exact 1-D sanity check: uniform on a segment has CVT centroids at
# 1/4 and 3/4, so the vertex/centroid distance ratio is exactly 2
g = sn.estimate_gamma(2, 1.0, 200_000, np.random.default_rng(0))
print(f"gamma(K=2, alpha=1): quadrature {sn.quadrature_gamma(2, 1.0):.6f}, Monte Carlo {g:.4f}"
      "   (uniform-segment CVT gives exactly 2)")

g = sn.estimate_gamma(3, 0.01, 50_000, np.random.default_rng(1))
print(f"gamma(K=3, alpha=0.01): quadrature {sn.quadrature_gamma(3, 0.01):.6f}, Monte Carlo {g:.4f}"
      " (near-separable data, centroids at the vertices)")

K = 10
alphas = np.geomspace(0.1, 5.0, 12)
exact = sn.quadrature_gamma(K, alphas)
table = sn.build_gamma_table(K, alphas, m=20_000, seed=7)
print(f"\n{'alpha':>8s} {'gamma':>8s} {'MC':>8s} {'phi':>8s}")
for a, q, g in zip(alphas, exact, table.gammas):
    print(f"{a:8.3f} {q:8.3f} {g:8.3f} {sn.varphi(K, a, q):8.4f}")
print("\nphi flattens at the right end: alpha above ~2.5 is hard to pin down")
