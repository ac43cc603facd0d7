"""Approximate (weighted) Fekete configurations on sample clouds.

Phase 1 is one pivoted-QR seeding: greedy column selection on the
orthonormalized, weighted Vandermonde; phase 2 is exchange refinement over
the whole cloud (the AFP-plus-exchange method of Sommariva-Vianello and
Bos-De Marchi-Sommariva-Vianello).  The seeding QR forms R only, never Q.
Refinement keeps the Lagrange matrix C = B^{-1} A of the selected columns and
carries it across each swap by a rank-one Sherman-Morrison update, done in
place by one BLAS geru call on the Fortran-ordered view C.T; the best swap is
found by a column max of |C| followed by an argmax down the winning column.
A decision that the updated C cannot settle beyond rounding (a near tie, a
gain near the tolerance, or the stop) is re-taken on a fresh solve, so the
selections equal those of re-solving after every swap.  The quality factor
gamma (sup of weighted Lagrange magnitudes over the cloud) certifies proximity
to a true maximizer and feeds every downstream sandwich width.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import qr
from scipy.linalg.blas import zgeru
from scipy.spatial import cKDTree

from .basis import BasisSpec, log_abs_vdm, orthonormal_basis
from .geometry import DegenerateSetError

# Exchange refinement swaps while a swap raises the log objective by at least
# _SWAP_TOL.  Below a relative _FRESH_MARGIN, the rank-one-updated Lagrange
# matrix defers a decision to a freshly solved one.
_SWAP_TOL = 1e-10
_FRESH_MARGIN = 1e-9

# ---------------------------------------------------------------------------
# weights
# ---------------------------------------------------------------------------

class ZeroWeight:
    kind = "zero"

    def evaluate(self, points):
        pts = np.atleast_2d(np.asarray(points, dtype=complex))
        return np.zeros(pts.shape[0])

    def to_dict(self):
        return {"kind": "zero"}


class FubiniStudyWeight:
    """rho(z) = (1/2) log(1 + |z|^2), the Fubini-Study potential on C^n."""

    kind = "fubini-study"

    def evaluate(self, points):
        pts = np.atleast_2d(np.asarray(points, dtype=complex))
        return 0.5 * np.log1p(np.sum(np.abs(pts) ** 2, axis=1))

    def to_dict(self):
        return {"kind": "fubini-study"}


class TabulatedWeight:
    """Weight given by values on a cloud; nearest-neighbor evaluation."""

    kind = "tabulated"

    def __init__(self, points, values, holder_alpha=1.0, holder_const=1.0):
        self.points = np.atleast_2d(np.asarray(points, dtype=complex))
        self.values = np.asarray(values, dtype=float)
        self.holder_alpha = holder_alpha
        self.holder_const = holder_const
        emb = np.hstack([self.points.real, self.points.imag])
        self._tree = cKDTree(emb)

    def evaluate(self, points):
        pts = np.atleast_2d(np.asarray(points, dtype=complex))
        emb = np.hstack([pts.real, pts.imag])
        _, idx = self._tree.query(emb)
        return self.values[idx]

    def to_dict(self):
        return {"kind": "tabulated", "holder_alpha": self.holder_alpha,
                "holder_const": self.holder_const, "size": len(self.values)}


def weight_from_callable(fn, cloud, holder_alpha=1.0, holder_const=1.0):
    """Tabulate a pointwise weight function on a cloud."""
    vals = np.array([float(fn(p)) for p in cloud.points])
    return TabulatedWeight(cloud.points, vals, holder_alpha, holder_const)


# ---------------------------------------------------------------------------
# configurations and measures
# ---------------------------------------------------------------------------

def _scalar_provenance(provenance):
    """The entries of a provenance dict that JSON output and the cache keep."""
    return {k: v for k, v in provenance.items()
            if isinstance(v, (int, float, str, bool))}


@dataclass(eq=False)
class FeketeConfig:
    basis: BasisSpec
    weight: object
    nodes: np.ndarray            # (N, n) complex
    node_indices: np.ndarray     # indices into the generating cloud
    objective: float             # log|VDM| - d * sum phi(nodes)
    gamma: float | None
    lebesgue: float | None       # max over the cloud of sum_j |l_j(x)| (weighted)
    provenance: dict
    ortho: object = field(default=None, repr=False)

    @classmethod
    def from_indices(cls, cloud, basis, weight, sel, provenance, ortho=None):
        """The configuration on cloud.points[sel], with objective and gamma.

        ortho is the cloud's orthonormal basis when the caller already has it.
        """
        nodes = cloud.points[sel]
        obj = (log_abs_vdm(nodes, basis)
               - basis.d * float(np.sum(weight.evaluate(nodes))))
        if not np.isfinite(obj):
            raise DegenerateSetError(
                f"set appears pluripolar at degree {basis.d}")
        config = cls(basis=basis, weight=weight, nodes=nodes,
                     node_indices=sel, objective=obj, gamma=None,
                     lebesgue=None, provenance=provenance, ortho=ortho)
        quality_gamma(config, cloud)
        return config

    @property
    def degree(self):
        return self.basis.d

    @property
    def size(self):
        return self.basis.size

    def to_dict(self):
        return {
            "ordering": "graded-lex",
            "n": self.basis.n,
            "d": self.basis.d,
            "weight": self.weight.to_dict(),
            "nodes": [[[z.real, z.imag] for z in row] for row in self.nodes],
            "objective": self.objective,
            "gamma": self.gamma,
            "lebesgue": self.lebesgue,
            "provenance": _scalar_provenance(self.provenance),
        }


@dataclass(frozen=True, eq=False)
class DiscreteMeasure:
    support: np.ndarray
    masses: np.ndarray

    @property
    def total_mass(self):
        return float(np.sum(self.masses))

    def pair(self, fn):
        """Integral of fn against the measure."""
        return float(np.sum(self.masses * np.array([fn(p) for p in self.support])))


def fekete_measure(config):
    """Uniform probability measure on the configuration nodes."""
    N = config.size
    return DiscreteMeasure(support=config.nodes.copy(),
                           masses=np.full(N, 1.0 / N))


# ---------------------------------------------------------------------------
# solver
# ---------------------------------------------------------------------------

def _weighted_columns(ortho, weight, d, points):
    """Rows u(x) = q(x) * exp(-d phi(x)), returned as (len(points), N)."""
    vals = ortho.evaluate(points)
    return vals * np.exp(-d * weight.evaluate(points)[:, None])


def solve_fekete(cloud, basis, weight=None, max_sweep_factor=50):
    """Pivoted-QR seeding plus exchange refinement over the cloud."""
    weight = weight or ZeroWeight()
    N = basis.size
    M = cloud.size
    if M < 2 * N:
        raise ValueError(f"cloud size {M} < 2 N = {2 * N}")
    ortho = orthonormal_basis(cloud, basis)
    d = basis.d
    U = _weighted_columns(ortho, weight, d, cloud.points)        # (M, N)
    if not np.all(np.isfinite(U)):
        raise DegenerateSetError(f"set appears pluripolar at degree {d}")

    A = U.T                                                      # (N, M)
    _, piv = qr(A, pivoting=True, mode="r")
    sel, swaps = _exchange_refine(A, np.sort(piv[:N]), _SWAP_TOL,
                                  max_sweep_factor * N)
    return FeketeConfig.from_indices(
        cloud, basis, weight, sel, ortho=ortho,
        provenance={"cloud_seed": cloud.seed,
                    "density_parameter": cloud.density_parameter,
                    "restart": 0, "accepted_swaps": int(swaps),
                    "tol": _SWAP_TOL})


def _exchange_refine(A, sel, tol, max_iters):
    """Swap one node for one cloud point while the log objective gains >= tol.

    Returns the sorted selection and the number of swaps.  Gains come from
    C = B^{-1} A, the Lagrange matrix of the selected columns B = A[:, sel]:
    replacing node j by cloud column m multiplies |det B| by |C[j, m]|.  The
    best column m is the argmax of the column maxima of |C|, and j the argmax
    of |C[:, m]|, so ties break at the lowest cloud index, then the lowest
    node slot.  After a swap C is carried forward by the Sherman-Morrison step
    C <- C - (C[:, m] - e_j) C[j, :] / C[j, m], O(N M) instead of the O(N^2 M)
    of a fresh solve; it is one in-place BLAS zgeru on C.T, which is
    Fortran-ordered because np.linalg.solve returns C in C order.  A decision
    is re-taken on a fresh solve C = solve(A[:, sel], A), with sel in slot
    order, whenever the updated C cannot settle it beyond rounding: the best
    gain lies within a relative _FRESH_MARGIN of the runner-up anywhere in
    |C|, log(gain) lies within _FRESH_MARGIN of tol, or the refinement would
    stop.  So every swap and the stop match those of re-solving after every
    swap, tie-breaks included; an ulp-level difference in the BLAS update
    cannot move a swap.
    """
    N, M = A.shape
    sel = np.array(sel, dtype=int)
    G = np.empty((N, M))
    C = None
    swaps = 0
    while swaps < max_iters:
        fresh = C is None
        if fresh:
            try:
                C = np.linalg.solve(A[:, sel], A)        # (N, M)
            except np.linalg.LinAlgError:
                break
        np.abs(C, out=G)
        G[:, sel] = 0.0
        col_gain = G.max(axis=0)                         # best gain per column
        m = int(np.argmax(col_gain))                     # lowest m wins ties
        j = int(np.argmax(G[:, m]))                      # then the lowest slot
        gain = float(col_gain[m])
        if not fresh and _unsettled(G, col_gain, j, m, gain, tol):
            C = None
            continue
        if gain <= 0 or math.log(gain) < tol:
            break
        u = C[:, m].copy()
        u[j] -= 1.0
        # the returned array, not C, holds the update if zgeru had to copy
        C = zgeru(-1.0, C[j] / C[j, m], u, a=C.T, overwrite_a=True).T
        sel[j] = m
        swaps += 1
    return np.sort(sel), swaps


def _unsettled(G, col_gain, j, m, gain, tol):
    """True when G's best entry (j, m) may not be the one a fresh solve picks.

    Overwrites col_gain[m].
    """
    if not (math.isfinite(gain) and gain > 0):
        return True
    if math.log(gain) < tol + _FRESH_MARGIN:
        return True
    col_gain[m] = 0.0
    g_m = G[:, m].copy()
    g_m[j] = 0.0
    runner_up = max(float(np.max(col_gain)), float(np.max(g_m)))
    return gain - runner_up <= _FRESH_MARGIN * gain


def quality_gamma(config, cloud):
    """gamma = max_j sup_cloud |l_j(x)| exp(-d (phi(x) - phi(xi_j))).

    Equals 1 for exact Fekete nodes; stored into the config together with the
    measured Lebesgue function maximum (max over the cloud of sum_j |l_j(x)|,
    weighted), which normalizes the signed-sum lower-bound candidate.
    """
    ortho = config.ortho or orthonormal_basis(cloud, config.basis)
    d = config.basis.d
    W_cloud = _weighted_columns(ortho, config.weight, d, cloud.points)
    W_nodes = _weighted_columns(ortho, config.weight, d, config.nodes)
    try:
        lag = np.linalg.solve(W_nodes.T, W_cloud.T)      # (N, M) weighted l_j(x)
    except np.linalg.LinAlgError:
        raise DegenerateSetError("Lagrange system singular")
    absl = np.abs(lag)
    gamma = float(np.max(absl))
    config.gamma = gamma
    config.lebesgue = float(np.max(np.sum(absl, axis=0)))
    config.ortho = ortho
    return gamma


# ---------------------------------------------------------------------------
# transfinite diameter
# ---------------------------------------------------------------------------

def transfinite_diameter(configs):
    """Capacity estimate from a degree family (n = 1, unweighted).

    delta_d = exp(2 log|VDM| / (N (N-1))) with N = d + 1; the return value is
    the intercept of the least-squares line delta_d = c0 + c1 / d.
    """
    if len(configs) < 3:
        raise ValueError("need at least 3 degrees")
    ds, deltas = [], []
    for cfg in configs:
        if cfg.basis.n != 1:
            raise ValueError("transfinite diameter is n = 1 only")
        if not isinstance(cfg.weight, ZeroWeight):
            raise ValueError("transfinite diameter requires unweighted configs")
        N = cfg.size
        ds.append(cfg.degree)
        deltas.append(math.exp(2.0 * cfg.objective / (N * (N - 1))))
    ds = np.array(sorted(ds))
    deltas = np.array([x for _, x in sorted(zip([c.degree for c in configs], deltas))])
    X = np.stack([np.ones_like(ds, dtype=float), 1.0 / ds], axis=1)
    coef, *_ = np.linalg.lstsq(X, deltas, rcond=None)
    return float(coef[0])
