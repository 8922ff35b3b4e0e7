"""Gaussian process primitives.

Squared-exponential covariances (isotropic or per-dimension ARD, optionally
pinned to zero at a reference location), jittered Cholesky factorisation
and the one engine every sampler, move and estimator goes through:
:class:`ConditionalSampler`.  It keeps the Cholesky factor of the R known
points row-packed (BLAS packed storage) and updates it in place, so that
rejection-sampling loops and MCMC moves do not refactorise the Gram matrix
from scratch at every step.  Every change to the row set past the rows it
keeps is one routine, :meth:`ConditionalSampler._add_rows`: condition the
new points on the known ones, form the Schur complement of their
covariance with one symmetric rank-k update and factorise it, write their
rows.  That covers one point or a block, drawn or known, and the build
from a point set.  One point is one packed solve; joint draws at a block
of k points (:meth:`ConditionalSampler.draw_append_block`,
:meth:`ConditionalSampler.draw_batch`) solve against all k columns at once
with one BLAS-3 call on the packed factor.  A proposed point is
conditioned once: :meth:`ConditionalSampler.draw_append` records it, and a
rejected proposal is dropped again with the O(1)
:meth:`ConditionalSampler.truncate`.  Dropping rows is a compaction
(:meth:`ConditionalSampler.compact`, and :meth:`ConditionalSampler.delete`
for one row): the kept rows past the prefix already hold their factor
entries on it, so they are added back after it as known values, O(R k^2)
for k kept rows.  The conditional mean at any number of points
(:meth:`ConditionalSampler.mean`) takes one packed solve.  It also holds
the whitened coordinates the function moves update (the latent-history
elliptical slice move and the exchange crankshaft).

Jitter policy: every realisation starts at ``BASE_JITTER * amplitude^2``,
whether it is grown from empty or built from points, pinned or not, and
growing or compacting the factor never changes it;
:meth:`ConditionalSampler.draw_batch`, which serves the predictive probe's
query points, draws with it too.  A sampler is the realisation: callers
keep and grow it (or a :meth:`ConditionalSampler.copy` of it or of its
leading rows) instead of refactorising its points.

A from-scratch factorisation, :func:`chol`, is one LAPACK ``dpotrf`` that
overwrites a jittered Fortran-ordered copy of the Gram matrix, with a
jitter ladder that runs only when that fails.  It serves the hyper moves,
which propose new hyperparameters for points whose values are held fixed
and start it at the realisation's level (``scale=amplitude**2``): the
:class:`CholeskyFactor` scores those values on its own
(:meth:`CholeskyFactor.log_density`), so a proposal builds a sampler from
it only once accepted.

Two free functions factorise from scratch, :func:`conditional` and
:func:`log_prior_density`; nothing in the package calls them, they are the
reference the engine is tested against.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Union

import numpy as np
from scipy.linalg.blas import dsyrk, dtpmv, dtpsv
from scipy.linalg.lapack import dpotrf, dtfsm, dtpttf, dtrtrs

# Relative jitter ladder: start here, escalate x10 per retry, give up at the
# cap.  Values are relative to a reference scale: amplitude^2 for a
# realisation, and by default for chol the mean diagonal magnitude of the
# matrix being factorised (amplitude^2 for an unpinned kernel).
BASE_JITTER = 1e-8
JITTER_CAP = 1e-2

MeanLike = Union[float, Callable[[np.ndarray], np.ndarray]]


class IllConditionedCovariance(RuntimeError):
    """Cholesky factorisation failed even at the jitter cap."""


def _as_points(x) -> np.ndarray:
    """Coerce a point or list of points to a (n, D) float array."""
    a = np.asarray(x, dtype=float)
    if a.ndim == 0:
        a = a.reshape(1, 1)
    elif a.ndim == 1:
        a = a.reshape(1, -1)
    return a


@dataclass(frozen=True, eq=False)
class GpHyper:
    """Covariance hyperparameters for the squared-exponential kernel.

    ``amplitude == 0`` is allowed and denotes the degenerate GP whose draws
    equal the mean function exactly; this is how frozen, fully-known
    functions are represented.  ``pin_location`` conditions the kernel on
    the function being exactly zero there (it requires a positive
    amplitude).  ``mean`` is either a constant or a callable mapping an
    (n, D) array of locations to n mean values.
    """

    amplitude: float
    lengthscales: np.ndarray
    pin_location: np.ndarray | None = None
    mean: MeanLike = 0.0

    def __post_init__(self):
        ls = np.atleast_1d(np.asarray(self.lengthscales, dtype=float))
        object.__setattr__(self, "lengthscales", ls)
        # written so that NaN fails the test too
        if not self.amplitude >= 0:
            raise ValueError("amplitude must be >= 0")
        if not np.all(ls > 0):
            raise ValueError("lengthscales must be positive")
        if self.pin_location is not None:
            pin = np.atleast_1d(np.asarray(self.pin_location, dtype=float))
            if pin.shape != ls.shape:
                raise ValueError("pin_location dimension mismatch")
            if self.amplitude == 0:
                raise ValueError("pinning requires a positive amplitude")
            object.__setattr__(self, "pin_location", pin)

    @property
    def dim(self) -> int:
        return self.lengthscales.shape[0]

    def with_(self, **kwargs) -> "GpHyper":
        out = {
            "amplitude": self.amplitude,
            "lengthscales": self.lengthscales,
            "pin_location": self.pin_location,
            "mean": self.mean,
        }
        out.update(kwargs)
        return GpHyper(**out)


def _se_matrix(X: np.ndarray, Y: np.ndarray, amplitude: float, lengthscales: np.ndarray) -> np.ndarray:
    """``amplitude^2 exp(-|(x - y) / lengthscales|^2 / 2)`` for every pair of
    rows, summed one dimension at a time in the (n, m) output, with one
    (n, m) scratch buffer from the second dimension on."""
    out = np.subtract.outer(X[:, 0], Y[:, 0])
    out /= lengthscales[0]
    out *= out
    if X.shape[1] > 1:
        diff = np.empty_like(out)
        for d in range(1, X.shape[1]):
            np.subtract.outer(X[:, d], Y[:, d], out=diff)
            diff /= lengthscales[d]
            diff *= diff
            out += diff
    out *= -0.5
    np.exp(out, out=out)
    out *= amplitude**2
    return out


def kernel_matrix(X, Y, hyper: GpHyper) -> np.ndarray:
    """Cross-covariance matrix between point sets X (n, D) and Y (m, D)."""
    X = _as_points(X)
    Y = _as_points(Y)
    if X.shape[1] != hyper.dim or Y.shape[1] != hyper.dim:
        raise ValueError("point dimension does not match lengthscales")
    k = _se_matrix(X, Y, hyper.amplitude, hyper.lengthscales)
    if hyper.pin_location is not None:
        x0 = hyper.pin_location.reshape(1, -1)
        kx0 = _se_matrix(X, x0, hyper.amplitude, hyper.lengthscales)
        ky0 = _se_matrix(Y, x0, hyper.amplitude, hyper.lengthscales)
        k -= (kx0 @ ky0.T) / hyper.amplitude**2
    return k


def kernel_diag(X, hyper: GpHyper) -> np.ndarray:
    """Prior variances at each point of X (cheaper than the full matrix)."""
    X = _as_points(X)
    v = np.full(X.shape[0], hyper.amplitude**2)
    if hyper.pin_location is not None:
        x0 = hyper.pin_location.reshape(1, -1)
        kx0 = _se_matrix(X, x0, hyper.amplitude, hyper.lengthscales)[:, 0]
        v -= kx0**2 / hyper.amplitude**2
    return v


def prior_mean(X, hyper: GpHyper) -> np.ndarray:
    """Prior mean at X, including the deterministic pinning adjustment.

    Conditioning the GP on g(x0) = 0 shifts the mean by
    -k(x, x0) m(x0) / k(x0, x0) in addition to modifying the kernel.
    """
    X = _as_points(X)
    mf = hyper.mean
    if callable(mf):
        m = np.atleast_1d(np.asarray(mf(X), dtype=float))
    else:
        m = np.full(X.shape[0], float(mf))
    if hyper.pin_location is not None:
        x0 = hyper.pin_location.reshape(1, -1)
        m0 = float(mf(x0)[0]) if callable(mf) else float(mf)
        kx0 = _se_matrix(X, x0, hyper.amplitude, hyper.lengthscales)[:, 0]
        m = m - kx0 * m0 / hyper.amplitude**2
    return m


@dataclass
class CholeskyFactor:
    """Lower-triangular factor of a jittered covariance matrix.

    ``lower`` is dense, with exact zeros above the diagonal; ``jitter`` is
    the absolute value that was added to the diagonal.
    """

    lower: np.ndarray
    jitter: float

    def solve_lower(self, b: np.ndarray) -> np.ndarray:
        """``lower^-1 b`` by one LAPACK ``dtrtrs`` on the Fortran-ordered
        factor, into a copy of b; LAPACK refuses an empty factor."""
        if not self.lower.shape[0]:
            return np.array(b, dtype=float)
        return dtrtrs(self.lower, b, lower=1)[0]

    def logdet(self) -> float:
        return 2.0 * float(np.sum(np.log(np.diag(self.lower))))

    def log_density(self, residual: np.ndarray) -> float:
        """Zero-mean normal log density of ``residual`` under the factorised
        covariance: the log-determinant and one triangular solve."""
        z = self.solve_lower(residual)
        return -0.5 * (z.shape[0] * math.log(2.0 * math.pi) + self.logdet() + float(z @ z))


def chol(cov: np.ndarray, base_jitter: float = BASE_JITTER, *,
         scale: float | None = None) -> CholeskyFactor:
    """Cholesky of ``cov + j * scale * I`` with an escalating jitter ladder.

    ``j`` starts at ``base_jitter``, multiplies by 10 on failure and gives
    up at ``JITTER_CAP``.  A zero ``base_jitter`` first tries the matrix
    as-is.  ``scale`` defaults to the mean diagonal magnitude of ``cov``;
    the hyper moves pass ``amplitude**2``, so that their factor starts at
    the jitter of a realisation.  A scale that is not positive is 1.

    Each try factorises a Fortran-ordered copy of ``cov``, jittered on its
    diagonal in place, with one LAPACK ``dpotrf`` that overwrites the copy;
    a failed try starts again from ``cov``, which is never written.  The
    factor is that Fortran-ordered array, with exact zeros above the
    diagonal.
    """
    cov = np.asarray(cov, dtype=float)
    if cov.ndim != 2 or cov.shape[0] != cov.shape[1]:
        raise ValueError("cov must be a square matrix")
    if base_jitter < 0:
        raise ValueError("base_jitter must be >= 0")
    n = cov.shape[0]
    if scale is None:
        scale = float(np.mean(np.abs(np.diag(cov)))) if n else 0.0
    if scale <= 0.0:
        scale = 1.0
    j = base_jitter
    while True:
        jit = j * scale
        mat = np.array(cov, order="F")
        if jit:
            mat[np.diag_indices(n)] += jit
        lower, info = dpotrf(mat, lower=1, clean=1, overwrite_a=1)
        if not info:
            return CholeskyFactor(lower=lower, jitter=jit)
        if j >= JITTER_CAP:
            raise IllConditionedCovariance(
                f"factorisation failed at jitter cap {JITTER_CAP:g} (n={n})"
            )
        j = BASE_JITTER if j == 0.0 else j * 10.0


def conditional(query, points, values, hyper: GpHyper,
                base_jitter: float = BASE_JITTER):
    """Gaussian conditional of the GP at ``query`` given its ``values`` at
    ``points`` (an (R, D) array).

    Returns ``(mean, cov)``.  No points yield the prior mean and prior
    covariance.
    """
    Q = _as_points(query)
    if Q.shape[1] != hyper.dim:
        raise ValueError("query dimension does not match lengthscales")
    P = _as_points(points)
    v = np.atleast_1d(np.asarray(values, dtype=float))
    if P.shape[0] != v.shape[0]:
        raise ValueError("points and values must have equal length")
    m_q = prior_mean(Q, hyper)
    if hyper.amplitude == 0.0:
        return m_q, np.zeros((Q.shape[0], Q.shape[0]))
    K_qq = kernel_matrix(Q, Q, hyper)
    if P.shape[0] == 0:
        return m_q, K_qq
    factor = chol(kernel_matrix(P, P, hyper), base_jitter)
    A = factor.solve_lower(kernel_matrix(P, Q, hyper))
    w = factor.solve_lower(v - prior_mean(P, hyper))
    mean = m_q + A.T @ w
    cov = K_qq - A.T @ A
    return mean, cov


def log_prior_density(values, points, hyper: GpHyper,
                      base_jitter: float = BASE_JITTER) -> float:
    """Multivariate normal log-density of ``values`` under the GP prior."""
    if hyper.amplitude == 0.0:
        raise ValueError("log-density undefined for the degenerate (amplitude 0) GP")
    P = _as_points(points)
    v = np.atleast_1d(np.asarray(values, dtype=float))
    if P.shape[0] != v.shape[0]:
        raise ValueError("values and points must have equal length")
    factor = chol(kernel_matrix(P, P, hyper), base_jitter)
    return factor.log_density(v - prior_mean(P, hyper))


def _tri(n: int) -> int:
    """Length of the row-packed lower triangle of an n x n matrix."""
    return n * (n + 1) // 2


def _resized(a: np.ndarray, size: int, used: int) -> np.ndarray:
    """A buffer of ``size`` leading entries holding the first ``used`` of ``a``."""
    out = np.empty((size,) + a.shape[1:])
    out[:used] = a[:used]
    return out


class ConditionalSampler:
    """Incrementally maintained GP conditional over a growing point set.

    Holds the jittered Cholesky factor L of the prior covariance at the R
    currently known points together with the whitened residual
    ``w = L^-1 (values - mean)``, so that conditional means/variances and
    retrospective draws cost O(R^2) instead of a full refactorisation.

    L is stored row-packed in one flat buffer: row i holds its i + 1
    entries ``L[i, :i + 1]`` at offset i (i + 1) / 2.  That is BLAS
    upper-packed storage of L^T, so solves and products with L and L^T
    are single packed BLAS calls (``dtpsv``, ``dtpmv``) that read R^2 / 2
    contiguous doubles.  Appending k points writes their k R + k (k + 1) / 2
    contiguous entries; growing the capacity copies the R^2 / 2 stored
    entries.

    Every factorisation of a change to the row set goes through
    :meth:`_add_rows`: the build from ``points``, every draw or append, and
    every removal.  One point is one packed ``dtpsv`` and a scalar pivot.
    k points copy the packed entries once to rectangular full packed form
    for one BLAS-3 ``dtfsm`` call, which reads the factor once instead of
    k times and needs no dense copy of it, then one symmetric rank-k
    update (``dsyrk``) for the Schur complement of the k points and one
    k x k Cholesky.  Removing rows is a compaction (:meth:`compact`;
    :meth:`delete` is the compaction that drops one row): the kept rows
    past the untouched prefix are gathered with the leading factor entries
    they already hold, the factor is truncated to the prefix, and they are
    added back as known values.  The mean alone (:meth:`mean`) needs no such solve:
    ``k(X, points) L^-T w`` is one packed ``dtpsv`` and a matrix-vector
    product.

    With ``amplitude == 0`` the sampler is degenerate: draws equal the mean
    function and no factor is kept (appends are O(1)).  The mean is always
    ``hyper.mean``.

    The jitter is ``BASE_JITTER * amplitude^2`` for every sampler built
    here, from points or from none, pinned or not.  Every later addition of
    points (:meth:`draw`, :meth:`draw_append`, :meth:`append`,
    :meth:`draw_append_block` and :meth:`draw_batch`, whose conditional
    covariance gets this same jitter on its diagonal), :meth:`compact` and
    :meth:`delete` keep it, so one realisation has one jitter however it
    grew.

    ``factor``, when given, must be ``chol(kernel_matrix(points, points,
    hyper), scale=hyper.amplitude**2)``; it is adopted as is, with its
    jitter, instead of being computed again.
    """

    def __init__(self, hyper: GpHyper, points=None, values=None,
                 factor: CholeskyFactor | None = None):
        self.hyper = hyper
        self.degenerate = hyper.amplitude == 0.0
        dim = hyper.dim
        pts = _as_points(points) if points is not None and np.size(points) else np.empty((0, dim))
        vals = np.atleast_1d(np.asarray(values, dtype=float)) if values is not None and np.size(values) else np.empty(0)
        if pts.shape[0] != vals.shape[0]:
            raise ValueError("points and values must have equal length")
        n = pts.shape[0]
        cap = max(2 * n, 64)
        self._pts = np.empty((cap, dim))
        self._vals = np.empty(cap)
        self._m = np.empty(cap)
        self._n = 0
        if self.degenerate:
            self._ap = None
            self._w = None
            self.jitter = 0.0
        else:
            self._ap = np.empty(_tri(cap))
            self._w = np.empty(cap)
            self.jitter = BASE_JITTER * hyper.amplitude**2 if factor is None else factor.jitter
        self._add_rows(pts, values=vals, M=None if factor is None else factor.lower)

    def __len__(self) -> int:
        return self._n

    @property
    def points(self) -> np.ndarray:
        return self._pts[: self._n]

    @property
    def values(self) -> np.ndarray:
        return self._vals[: self._n]

    @property
    def packed(self) -> np.ndarray:
        """The factor's R (R + 1) / 2 row-packed entries (a view)."""
        return self._ap[: _tri(self._n)]

    @property
    def prior_mean_vec(self) -> np.ndarray:
        return self._m[: self._n]

    @property
    def whitened(self) -> np.ndarray:
        return self._w[: self._n]

    def _packed_blas(self, kernel, x, trans: int) -> np.ndarray:
        """``kernel`` (``dtpsv`` or ``dtpmv``) with the packed factor, on a
        copy of x that the wrapper makes and returns."""
        if not self._n:
            return np.array(x, dtype=float)
        return kernel(self._n, self.packed, x, lower=0, trans=trans)

    def lower_dot(self, v: np.ndarray) -> np.ndarray:
        """L v; O(R^2)."""
        return self._packed_blas(dtpmv, v, trans=1)

    def logdet(self) -> float:
        """log det (K + jitter I) from the factor's diagonal; O(R)."""
        if self.degenerate:
            raise ValueError("degenerate sampler has no factor")
        diag = self._ap[np.cumsum(np.arange(1, self._n + 1)) - 1]
        return 2.0 * float(np.sum(np.log(diag)))

    def log_density(self) -> float:
        """GP prior log density of the stored values (jitter included), from
        the factor's diagonal and the whitened values; O(R)."""
        w = self.whitened
        return -0.5 * (self._n * math.log(2 * math.pi) + self.logdet() + float(w @ w))

    def copy(self, rows: int | None = None) -> "ConditionalSampler":
        """An independent sampler of the first ``rows`` rows (all by
        default), with the same hyperparameters and jitter; O(rows^2).  The
        factor's leading rows do not depend on later ones, so a shorter copy
        is a full copy :meth:`truncate`-d to ``rows``, bit for bit, with a
        build's capacity (twice its rows) and nothing of the rest copied."""
        n = self._n
        cap = self._pts.shape[0]
        if rows is not None:
            if not 0 <= rows <= n:
                raise IndexError("row count out of range")
            n, cap = rows, max(2 * rows, 64)
        out = ConditionalSampler.__new__(ConditionalSampler)
        out.hyper = self.hyper
        out.degenerate = self.degenerate
        out.jitter = self.jitter
        out._n = n
        out._pts = _resized(self._pts, cap, n)
        out._vals = _resized(self._vals, cap, n)
        out._m = _resized(self._m, cap, n)
        out._ap = None if self._ap is None else _resized(self._ap, _tri(cap), _tri(n))
        out._w = None if self._w is None else _resized(self._w, cap, n)
        return out

    def _grow(self, needed: int) -> None:
        cap = self._pts.shape[0]
        if needed <= cap:
            return
        new_cap = max(2 * cap, needed)
        n = self._n
        self._pts = _resized(self._pts, new_cap, n)
        self._vals = _resized(self._vals, new_cap, n)
        self._m = _resized(self._m, new_cap, n)
        if not self.degenerate:
            self._ap = _resized(self._ap, _tri(new_cap), _tri(n))
            self._w = _resized(self._w, new_cap, n)

    def _pivot_floor(self) -> float:
        """Smallest squared pivot the factor takes: jitter scale, so that it
        stays valid even for coincident locations."""
        return min(self.jitter, 1e-12) if self.jitter > 0 else 1e-15

    def draw(self, x, z: float) -> float:
        """Sample a single function value without recording it: the one
        whose whitened coordinate is the standard normal z (a degenerate
        sampler gives its mean and ignores z); O(R^2).

        The conditioned row is written just past the last row, where
        :meth:`draw_append` keeps it, so a draw and a draw-and-record give
        the same value from the same z.
        """
        n = self._n
        self._add_rows(_as_points(x), (z,))
        self._n = n
        return float(self._vals[n])

    def append(self, x, value: float) -> None:
        """Record a known (location, value) pair; O(R^2)."""
        self._add_rows(_as_points(x), values=(value,))

    def draw_append(self, x, z: float) -> float:
        """Draw at x from the standard normal z and record the result:
        :meth:`draw`, then keep the row it wrote; O(R^2)."""
        g = self.draw(x, z)
        self._n += 1
        return g

    def _cross_solve(self, X: np.ndarray) -> np.ndarray:
        """``A = L^-1 k(points, X)`` for the k rows of X; O(R^2 k).

        The packed factor is copied once to rectangular full packed form
        (row-packed L is column-packed L^T) for one BLAS-3 ``dtfsm`` solve
        of all k columns.  That R^2 / 2 copy is freed on return.
        """
        arf, _ = dtpttf(self._n, self.packed, transr="N", uplo="U")
        # k(X, points) is C-ordered, so its transpose is Fortran-ordered and
        # the solve overwrites it instead of copying it
        return dtfsm(1.0, arf, kernel_matrix(X, self.points, self.hyper).T,
                     transr="N", side="L", uplo="U", trans="T", overwrite_b=1)

    def _block_chol(self, S: np.ndarray) -> np.ndarray | None:
        """Lower Cholesky factor of the Fortran-ordered k x k block S (one
        LAPACK ``dpotrf``, in place), or None when it fails or one of its
        pivots falls below the floor a one-row append would clamp to."""
        M, info = dpotrf(S, lower=1, clean=1, overwrite_a=1)
        if info or M.diagonal().min(initial=np.inf) ** 2 < self._pivot_floor():
            return None
        return M

    def _add_rows(self, X: np.ndarray, z=None, values=None,
                  A: np.ndarray | None = None, M: np.ndarray | None = None) -> None:
        """Record the k rows of X after the R known points, at the values
        whose whitened coordinates are z or at the known ``values`` (a
        degenerate sampler records ``values``, else its mean).
        O(R^2 k + R k^2 + k^3).

        Condition: ``A = L^-1 k(points, X)`` (R x k), one packed ``dtpsv``
        for one point, one ``dtfsm`` for more (R^2 k flops), unless A is
        given (rows that already held these leading entries: a compaction,
        whose gathered A is C-ordered).  Factorise the Schur complement
        ``K(X, X) + jitter I - A^T A`` as M, unless M is given (an adopted
        factor): for one point a scalar pivot clamped to
        :meth:`_pivot_floor`, which cannot fail; for more one symmetric
        rank-k update (BLAS ``dsyrk``, R k^2 flops where the ``A^T A``
        product would take 2 R k^2) into the lower triangle of the k x k
        block, reading A in either order without copying it, then one
        :meth:`_block_chol` (k^3 / 3 flops); when that fails the points
        are added one at a time instead, with the same z or values.  The
        three sum to ``((R + k)^3 - R^3) / 3`` flops, so growing a factor
        to R rows costs R^3 / 3 flops however the rows are blocked.  Write
        the rows ``[A^T, M]`` with the values ``mean + M z``, or whiten the
        known values with one LAPACK triangular solve (``dtrtrs``).
        """
        n, k = self._n, X.shape[0]
        if not k:
            return
        m = prior_mean(X, self.hyper)
        if self.degenerate:
            self._write_rows(n, X, m, m if values is None else values)
            return
        w_head = self._w[:n]
        if k == 1 and M is None:
            # scalar arithmetic: one packed solve and one clamped pivot
            if A is not None:
                a = A[:, 0]
            else:
                a = kernel_matrix(X, self._pts[:n], self.hyper)[0]
                if n:
                    a = dtpsv(n, self._ap, a, lower=0, trans=1, overwrite_x=1)
            mu = float(m[0]) + float(a @ w_head)
            d = math.sqrt(max(float(kernel_diag(X, self.hyper)[0]) + self.jitter
                              - float(a @ a), self._pivot_floor()))
            if values is None:
                g, w = mu + d * z[0], z
            else:
                g = values[0]
                w = (g - mu) / d
            self._write_rows(n, X, m, g, a, d, w)
            return
        if A is None:
            A = self._cross_solve(X) if n else np.empty((0, k))
        if M is None:
            # K(X, X) is symmetric: its transpose is a Fortran-ordered view
            # of the same matrix, which LAPACK factorises in place
            S = kernel_matrix(X, X, self.hyper).T
            S[np.diag_indices(k)] += self.jitter
            if n:
                # S -= A^T A in the lower triangle dpotrf reads; A is
                # Fortran-ordered from a cross solve and C-ordered when
                # gathered, and either way read as it lies, without a copy
                if A.flags.f_contiguous:
                    S = dsyrk(-1.0, A, beta=1.0, c=S, trans=1, lower=1, overwrite_c=1)
                else:
                    S = dsyrk(-1.0, A.T, beta=1.0, c=S, trans=0, lower=1, overwrite_c=1)
            M = self._block_chol(S)
            if M is None:
                for i in range(k):
                    one = slice(i, i + 1)
                    if values is None:
                        self._add_rows(X[one], z[one])
                    else:
                        self._add_rows(X[one], values=values[one])
                return
        mu = m + A.T @ w_head
        if values is None:
            values, w = mu + M @ z, z
        else:
            w, _ = dtrtrs(M, values - mu, lower=1)
        self._write_rows(n, X, m, values, A.T, M, w)

    def _write_rows(self, p: int, X: np.ndarray, m: np.ndarray, g,
                    lead: np.ndarray | None = None, M=None, w=None) -> None:
        """Make the k rows of X, with prior means m and values g, rows
        ``p .. p + k - 1`` and the last ones; unless degenerate, their
        factor rows are ``[lead, M]`` (k x p and lower-triangular k x k)
        and their whitened coordinates w.  The k rows go into the packed
        buffer with one masked assignment; one row is its own packed form."""
        k = X.shape[0]
        self._grow(p + k)
        self._pts[p : p + k] = X
        self._vals[p : p + k] = g
        self._m[p : p + k] = m
        if not self.degenerate:
            seg = self._ap[_tri(p) : _tri(p + k)]
            if k == 1:  # one row is its own packed form
                seg[:p] = lead
                seg[p:] = M
            else:
                rows = np.empty((k, p + k))
                rows[:, :p] = lead
                rows[:, p:] = M
                seg[:] = rows[np.tri(k, p + k, p, dtype=bool)]
            self._w[p : p + k] = w
        self._n = p + k

    def draw_append_block(self, X, z) -> np.ndarray:
        """Draw jointly at the k rows of X and record them in that order;
        returns the k values.

        The whitened coordinates of the new rows are ``z``, so the result
        is that of k :meth:`draw_append` calls whose standard normals are
        ``z``, up to rounding, and at k = 1 it is that call.  One block
        solve ``A = L^-1 k(points, X)`` and a Cholesky ``M`` of the k x k
        conditional covariance (plus the sampler's fixed jitter) give the
        new factor rows ``[A^T, M]`` and the values ``mean + M z``.  When
        that Cholesky fails or one of its pivots falls below the floor the
        sequential appends would clamp to, the points are appended one at
        a time instead, with the same ``z``.  O(R^2 k + R k^2 + k^3).
        """
        X = _as_points(X)
        z = np.asarray(z, dtype=float).reshape(-1)
        if z.shape[0] != X.shape[0]:
            raise ValueError("need one standard normal per point")
        n = self._n
        self._add_rows(X, z)
        return self._vals[n : self._n].copy()

    def truncate(self, n: int) -> None:
        """Keep the first n points and drop the rest; O(1), because the
        factor's leading rows do not depend on the rows after them."""
        if not 0 <= n <= self._n:
            raise IndexError("row count out of range")
        self._n = n

    def compact(self, prefix: int, rows) -> None:
        """Keep rows ``[0, prefix)`` and then ``rows`` (increasing, each in
        ``[prefix, R)``), in that order, and drop every other row;
        O(k^2 R + k^3) for k kept rows past the prefix.

        Kept rows already in place (``rows[i] == prefix + i``) join the
        prefix p untouched.  The p leading entries of every later kept row,
        ``L_pp^-1 k(points[:p], x)``, do not depend on the rows after p, so
        they are gathered as A; the factor is truncated to p, and the kept
        rows are added back at their values with :meth:`_add_rows`, given A.
        """
        kept = np.asarray(rows, dtype=np.intp).tolist()  # few: checked in Python
        n = self._n
        if not 0 <= prefix <= n:
            raise IndexError("prefix out of range")
        if kept and (kept[0] < prefix or kept[-1] >= n
                     or any(b <= a for a, b in zip(kept, kept[1:]))):
            raise IndexError("rows must increase within [prefix, R)")
        p = prefix
        while p - prefix < len(kept) and kept[p - prefix] == p:
            p += 1
        tail = np.array(kept[p - prefix :], dtype=np.intp)
        # fancy indexing copies: the rows are read before they are overwritten
        X, g = self._pts[tail], self._vals[tail]
        A = None
        if not self.degenerate:
            A = self._ap[(tail * (tail + 1) // 2)[None, :] + np.arange(p)[:, None]]
        self._n = p
        self._add_rows(X, values=g, A=A)

    def mean(self, X) -> np.ndarray:
        """Conditional mean at a batch of points, ``m(X) + k(X, points)
        alpha`` with ``alpha = L^-T w``: one packed solve, whatever the
        number of points, so O(R^2 + R k)."""
        X = _as_points(X)
        m = prior_mean(X, self.hyper)
        if self.degenerate or not self._n:
            return m
        alpha = self._packed_blas(dtpsv, self.whitened, trans=0)
        return m + kernel_matrix(X, self.points, self.hyper) @ alpha

    def draw_batch(self, X, rng: np.random.Generator) -> np.ndarray:
        """Jointly sample function values at a batch of points without
        recording them: :meth:`draw_append_block` with fresh standard
        normals, then :meth:`truncate`, as :meth:`draw` is
        :meth:`draw_append` without keeping the row.  A degenerate sampler
        returns its mean and draws no normals."""
        X = _as_points(X)
        if self.degenerate:
            return prior_mean(X, self.hyper)
        n = self._n
        g = self.draw_append_block(X, rng.standard_normal(X.shape[0]))
        self.truncate(n)
        return g

    def delete(self, row: int) -> None:
        """Remove the point at ``row``: the :meth:`compact` that keeps every
        other row, O(t^2 R) for the t rows below it."""
        n = self._n
        if not 0 <= row < n:
            raise IndexError("row out of range")
        self.compact(row, range(row + 1, n))

    def set_whitened(self, v: np.ndarray) -> None:
        """Replace values via their whitened coordinates g = L v + m."""
        if self.degenerate:
            raise ValueError("degenerate sampler has no whitened coordinates")
        v = np.asarray(v, dtype=float)
        if v.shape[0] != self._n:
            raise ValueError("coordinate count mismatch")
        self._vals[: self._n] = self.lower_dot(v) + self.prior_mean_vec
        self._w[: self._n] = v
