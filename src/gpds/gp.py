"""Gaussian process primitives.

Squared-exponential covariances (isotropic or per-dimension ARD, optionally
pinned to zero at a reference location), jittered Cholesky factorisation
and the one engine every sampler, move and estimator goes through:
:class:`ConditionalSampler`.  It keeps the Cholesky factor of the R known
points row-packed (BLAS packed storage) and updates it in place: O(R^2)
retrospective draws and appends, O((R - k) R) deletion of row k (one QR
call of the trailing block), so that rejection-sampling loops and MCMC
moves do not refactorise the Gram matrix from scratch at every step.  A
proposed point is conditioned once: :meth:`ConditionalSampler.draw_append`
records it, and a rejected proposal is dropped again with the O(1)
:meth:`ConditionalSampler.truncate`.  Joint draws at a block of k points
(:meth:`ConditionalSampler.draw_append_block`,
:meth:`ConditionalSampler.draw_batch`) solve against all k columns at once
with one BLAS-3 call on the packed factor; the conditional mean at any
number of points (:meth:`ConditionalSampler.mean`) takes one packed solve.
It also holds the whitened coordinates used by the gradient-based function
moves.

Jitter policy: a realisation's jitter is fixed when its factor is first
built (``chol`` of the Gram matrix at the starting points, or
``BASE_JITTER * amplitude^2`` for an empty sampler), and growing the
factor, one point or one block at a time, never changes it.  A sampler is
the realisation: callers keep and grow it (or a
:meth:`ConditionalSampler.copy`) instead of refactorising its points.
:meth:`ConditionalSampler.draw_batch`, which serves just the predictive
probe's query points, is the one draw that factorises on its own, with its
own jitter ladder, because its conditional covariance is a new matrix that
is not recorded.

Two free functions factorise from scratch, :func:`conditional` and
:func:`log_prior_density`; nothing in the package calls them, they are the
reference the engine is tested against.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Union

import numpy as np
from scipy.linalg import solve_triangular
from scipy.linalg.blas import dtpmv, dtpsv, dtrsv
from scipy.linalg.lapack import dtfsm, dtpqrt, dtpttf

# Relative jitter ladder: start here, escalate x10 per retry, give up at the
# cap.  Values are relative to the mean diagonal magnitude of the matrix
# being factorised (i.e. to amplitude^2 for an unpinned kernel).
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

    ``jitter`` is the absolute value that was added to the diagonal.
    """

    lower: np.ndarray
    jitter: float

    def solve_lower(self, b: np.ndarray) -> np.ndarray:
        return solve_triangular(self.lower, b, lower=True, check_finite=False)

    def logdet(self) -> float:
        return 2.0 * float(np.sum(np.log(np.diag(self.lower))))


def chol(cov: np.ndarray, base_jitter: float = BASE_JITTER) -> CholeskyFactor:
    """Cholesky of ``cov + j * scale * I`` with an escalating jitter ladder.

    ``j`` starts at ``base_jitter`` (relative to the mean diagonal
    magnitude ``scale``), multiplies by 10 on failure and gives up at
    ``JITTER_CAP``.  A zero ``base_jitter`` first tries the matrix as-is.
    """
    cov = np.asarray(cov, dtype=float)
    if cov.ndim != 2 or cov.shape[0] != cov.shape[1]:
        raise ValueError("cov must be a square matrix")
    if base_jitter < 0:
        raise ValueError("base_jitter must be >= 0")
    n = cov.shape[0]
    scale = float(np.mean(np.abs(np.diag(cov)))) if n else 0.0
    if scale <= 0.0:
        scale = 1.0
    j = base_jitter
    while True:
        jit = j * scale
        try:
            mat = cov if jit == 0.0 else cov + jit * np.eye(n)
            lower = np.linalg.cholesky(mat)
            return CholeskyFactor(lower=lower, jitter=jit)
        except np.linalg.LinAlgError:
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
    z = factor.solve_lower(v - prior_mean(P, hyper))
    n = v.shape[0]
    return -0.5 * (n * math.log(2.0 * math.pi) + factor.logdet() + float(z @ z))


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
    contiguous doubles.  Appending a point writes R + 1 contiguous entries;
    growing the capacity copies the R^2 / 2 stored entries.  Deleting row k
    moves the R - k - 1 rows below it up one row and refactorises their
    trailing block with one LAPACK QR call (:meth:`delete`), which is
    O((R - k) R).

    Solves with k right-hand sides (:meth:`draw_append_block`,
    :meth:`draw_batch`) copy the packed entries once to rectangular full
    packed form and make one BLAS-3 ``dtfsm`` call, which reads the factor
    once instead of k times and needs no dense copy of it.  The mean alone
    (:meth:`mean`) needs no such solve: ``k(X, points) L^-T w`` is one packed
    ``dtpsv`` and a matrix-vector product.

    With ``amplitude == 0`` the sampler is degenerate: draws equal the mean
    function and no factor is kept (appends are O(1)).  The mean is always
    ``hyper.mean``.

    The jitter is fixed here, when the factor is first built: the jitter
    ``chol`` settles on for the starting points, or ``BASE_JITTER *
    amplitude^2`` when there are none.  :meth:`append`, :meth:`draw_append`,
    :meth:`draw_append_block` (whose k x k conditional covariance gets this
    same jitter on its diagonal) and :meth:`delete` keep it, so one
    realisation has one jitter however it grew.

    ``factor``, when given, must be ``chol(kernel_matrix(points, points,
    hyper))``; it is adopted as is instead of being computed again.
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
        self._n = n
        self._pts[:n] = pts
        self._vals[:n] = vals
        if n:
            self._m[:n] = prior_mean(pts, hyper)
        if self.degenerate:
            self._ap = None
            self._w = None
            self.jitter = 0.0
            return
        self._ap = np.empty(_tri(cap))
        self._w = np.empty(cap)
        if n:
            if factor is None:
                factor = chol(kernel_matrix(pts, pts, hyper))
            self._ap[: _tri(n)] = factor.lower[np.tri(n, dtype=bool)]
            self.jitter = factor.jitter
            self._w[:n] = factor.solve_lower(vals - self._m[:n])
        else:
            self.jitter = BASE_JITTER * hyper.amplitude**2

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
        x = np.array(x, dtype=float)  # the kernel overwrites this copy
        if not self._n:
            return x
        return kernel(self._n, self.packed, x, lower=0, trans=trans, overwrite_x=1)

    def solve_lower(self, b: np.ndarray) -> np.ndarray:
        """L^-1 b for one right-hand side; O(R^2)."""
        return self._packed_blas(dtpsv, b, trans=1)

    def lower_dot(self, v: np.ndarray) -> np.ndarray:
        """L v; O(R^2)."""
        return self._packed_blas(dtpmv, v, trans=1)

    def lower_t_dot(self, c: np.ndarray) -> np.ndarray:
        """L^T c; O(R^2)."""
        return self._packed_blas(dtpmv, c, trans=0)

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

    def copy(self) -> "ConditionalSampler":
        n = self._n
        cap = self._pts.shape[0]
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

    def _point_mean(self, x: np.ndarray) -> float:
        return float(prior_mean(x.reshape(1, -1), self.hyper)[0])

    def _condition(self, x: np.ndarray) -> tuple[float, float, float, np.ndarray]:
        """Prior mean, conditional mean, conditional variance (jitter
        included, not floored) and ``a = L^-1 k(points, x)`` at one point
        of a non-degenerate sampler; O(R^2)."""
        m = self._point_mean(x)
        kxx = float(kernel_diag(x.reshape(1, -1), self.hyper)[0])
        if self._n == 0:
            return m, m, kxx + self.jitter, np.empty(0)
        a = self.solve_lower(kernel_matrix(self.points, x.reshape(1, -1), self.hyper)[:, 0])
        return m, m + float(a @ self.whitened), kxx + self.jitter - float(a @ a), a

    def _pivot_floor(self) -> float:
        """Smallest squared pivot the factor takes: jitter scale, so that it
        stays valid even for coincident locations."""
        return min(self.jitter, 1e-12) if self.jitter > 0 else 1e-15

    def _pivot(self, var: float) -> float:
        """New diagonal entry of the factor for conditional variance ``var``."""
        return math.sqrt(max(var, self._pivot_floor()))

    def _push(self, x: np.ndarray, m: float, value: float,
              a: np.ndarray | None = None, d: float = 0.0, w: float = 0.0) -> None:
        """Record (x, value) with prior mean m and, unless degenerate, the
        new factor row ``[a, d]`` and whitened coordinate w."""
        n = self._n
        self._grow(n + 1)
        self._pts[n] = x
        self._vals[n] = value
        self._m[n] = m
        if not self.degenerate:
            row = self._ap[_tri(n) : _tri(n + 1)]
            row[:n] = a
            row[n] = d
            self._w[n] = w
        self._n = n + 1

    def draw(self, x, rng: np.random.Generator) -> float:
        """Sample a single function value without recording it; O(R^2).

        The conditioned row is written just past the last row, where
        :meth:`draw_append` keeps it, so a draw and a draw-and-record give
        the same value from the same standard normal.
        """
        n = self._n
        g = self._draw_push(np.asarray(x, dtype=float).reshape(-1), rng.standard_normal())
        self._n = n
        return g

    def append(self, x, value: float) -> None:
        """Record a known (location, value) pair; O(R^2)."""
        x = np.asarray(x, dtype=float).reshape(-1)
        if self.degenerate:
            self._push(x, self._point_mean(x), value)
            return
        m, mu, var, a = self._condition(x)
        d = self._pivot(var)
        self._push(x, m, value, a, d, (value - mu) / d)

    def draw_append(self, x, rng: np.random.Generator) -> float:
        """Draw at x and record the result: :meth:`draw`, then keep the row
        it wrote; O(R^2)."""
        g = self.draw(x, rng)
        self._n += 1
        return g

    def _draw_push(self, x: np.ndarray, z: float) -> float:
        """Record x at the value whose whitened coordinate is z (a
        degenerate sampler records its mean); O(R^2)."""
        if self.degenerate:
            m = self._point_mean(x)
            self._push(x, m, m)
            return m
        m, mu, var, a = self._condition(x)
        d = self._pivot(var)
        g = mu + d * z
        self._push(x, m, g, a, d, z)
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

    def _joint(self, X: np.ndarray, jitter: float
               ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray | None]:
        """Prior mean, conditional mean and conditional covariance (plus
        ``jitter`` on its diagonal) of a non-degenerate sampler at the k rows
        of X, and ``A = L^-1 k(points, X)`` (None without points);
        O(R^2 k + R k^2)."""
        m = prior_mean(X, self.hyper)
        cov = kernel_matrix(X, X, self.hyper)
        cov[np.diag_indices(X.shape[0])] += jitter
        if not self._n:
            return m, m, cov, None
        A = self._cross_solve(X)
        cov -= A.T @ A
        return m, m + A.T @ self.whitened, cov, A

    def draw_append_block(self, X, z) -> np.ndarray:
        """Draw jointly at the k rows of X and record them in that order;
        returns the k values.

        The whitened coordinates of the new rows are ``z``, so the result
        is that of k :meth:`draw_append` calls whose standard normals are
        ``z``, up to rounding: one block solve ``A = L^-1 k(points, X)``
        and a Cholesky ``M`` of the k x k conditional covariance (plus the
        sampler's fixed jitter) give the new factor rows ``[A^T, M]``,
        written row by row into the packed buffer, and the values
        ``mean + M z``.  When that Cholesky fails or one of its pivots falls
        below the floor the sequential appends would clamp to, the points
        are appended one at a time instead, with the same ``z``.
        O(R^2 k + R k^2 + k^3).
        """
        X = _as_points(X)
        z = np.asarray(z, dtype=float).reshape(-1)
        k = X.shape[0]
        if z.shape[0] != k:
            raise ValueError("need one standard normal per point")
        if self.degenerate:
            m = prior_mean(X, self.hyper)
            for x, mi in zip(X, m):
                self._push(x, mi, mi)
            return m
        n = self._n
        m, mu, cov, A = self._joint(X, self.jitter)
        try:
            M = np.linalg.cholesky(cov)
        except np.linalg.LinAlgError:
            M = None
        if M is None or np.any(np.diag(M) ** 2 < self._pivot_floor()):
            return np.array([self._draw_push(x, zi) for x, zi in zip(X, z)])
        g = mu + M @ z
        self._grow(n + k)
        self._pts[n : n + k] = X
        self._vals[n : n + k] = g
        self._m[n : n + k] = m
        ap = self._ap
        for i in range(k):
            s = _tri(n + i)
            if n:
                ap[s : s + n] = A[:, i]  # a contiguous column of A
            ap[s + n : s + n + i + 1] = M[i, : i + 1]
        self._w[n : n + k] = z
        self._n = n + k
        return g

    def truncate(self, n: int) -> None:
        """Keep the first n points and drop the rest; O(1), because the
        factor's leading rows do not depend on the rows after them."""
        if not 0 <= n <= self._n:
            raise IndexError("row count out of range")
        self._n = n

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
        """Jointly sample function values at a batch of points (no record)."""
        X = _as_points(X)
        if self.degenerate:
            return prior_mean(X, self.hyper)
        _, mean, cov, _ = self._joint(X, 0.0)
        cov = 0.5 * (cov + cov.T)
        factor = chol(cov)
        return mean + factor.lower @ rng.standard_normal(X.shape[0])

    def delete(self, row: int) -> None:
        """Remove the point at ``row``; O((R - row) R).

        The t rows below it are ``[C, u, B]`` (leading columns, the removed
        column, the t x t trailing block).  They move up one row as
        ``[C, L']`` with ``L' L'^T = B B^T + u u^T``: ``L'^T`` is the R of
        one LAPACK ``dtpqrt`` of ``B^T`` stacked on ``u^T`` (O(t^2), and it
        cannot fail, because B is nonsingular), with its diagonal made
        positive.  Their whitened coordinates become
        ``L'^-1 (B w_tail + u w_row)``, one ``dtrsv``: that is the residuals
        minus ``C w_head``, and the rows above keep their whitened values.
        """
        n = self._n
        if not 0 <= row < n:
            raise IndexError("row out of range")
        self._pts[row : n - 1] = self._pts[row + 1 : n]
        self._vals[row : n - 1] = self._vals[row + 1 : n]
        self._m[row : n - 1] = self._m[row + 1 : n]
        self._n = n - 1
        t = n - 1 - row  # rows below the deleted one
        if self.degenerate or not t:
            return
        ap = self._ap
        w = self._w
        bt = np.zeros((t, t), order="F")  # B^T, upper triangular
        u = np.empty(t)
        # old row j (packed at _tri(j)) moves up to _tri(j - 1) = _tri(j) - j,
        # over the entries of row j - 1, which were read before it
        for i, j in enumerate(range(row + 1, n)):
            s = _tri(j)
            u[i] = ap[s + row]
            bt[: i + 1, i] = ap[s + row + 1 : s + j + 1]
            ap[s - j : s - j + row] = ap[s : s + row]
        rhs = bt.T @ w[row + 1 : n] + u * w[row]
        # LAPACK block size, timed one call at a time on 1 BLAS thread: one
        # block (nb = t) for tails up to 16 rows, the common case (fastest of
        # nb = 1, 4, 8, t up to t = 9, within 10 % at t = 16); 16 above, the
        # fastest of 1 to 64 for t = 50 to 400
        r, _, _, _ = dtpqrt(0, min(t, 16), bt, u[None, :], overwrite_a=1, overwrite_b=1)
        r *= np.sign(np.diag(r))[:, None]  # a positive diagonal
        for i, j in enumerate(range(row + 1, n)):
            s = _tri(j) - j + row
            ap[s : s + i + 1] = r[: i + 1, i]
        w[row : n - 1] = dtrsv(r, rhs, lower=0, trans=1, overwrite_x=1)

    def set_values(self, values) -> None:
        """Replace all function values (locations unchanged); O(R^2)."""
        values = np.atleast_1d(np.asarray(values, dtype=float))
        if values.shape[0] != self._n:
            raise ValueError("value count mismatch")
        self._vals[: self._n] = values
        if not self.degenerate:
            self._w[: self._n] = self.solve_lower(values - self.prior_mean_vec)

    def set_whitened(self, v: np.ndarray) -> None:
        """Replace values via their whitened coordinates g = L v + m."""
        if self.degenerate:
            raise ValueError("degenerate sampler has no whitened coordinates")
        v = np.asarray(v, dtype=float)
        if v.shape[0] != self._n:
            raise ValueError("coordinate count mismatch")
        self._vals[: self._n] = self.lower_dot(v) + self.prior_mean_vec
        self._w[: self._n] = v
