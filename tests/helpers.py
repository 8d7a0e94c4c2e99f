"""Independent oracles used across the test suite.

These reimplement the quantities under test from their definitions (brute
enumeration, finite differences, dense factorizations, plain gradient
descent) so production code paths are checked against routes they do not
share.
"""

import numpy as np

# Grids (height, width, side) whose clique subsets take every shape: 7x5 side 5
# and 2x2 side 2 have empty subsets; 5x5 side 1 has a single one; the others
# leave borders narrower than a tile in some subsets
GEOMETRIES = [(7, 5, 5), (6, 9, 4), (5, 5, 1), (9, 9, 3), (10, 7, 2), (2, 2, 2), (12, 13, 6)]


def brute_force_cliques(height, width, side):
    """All fully-contained side x side patches by direct double loop."""
    cliques = []
    for top in range(height - side + 1):
        for left in range(width - side + 1):
            idx = []
            for dr in range(side):
                for dc in range(side):
                    idx.append((top + dr) * width + (left + dc))
            cliques.append((top, left, idx))
    return cliques


def clique_index_lists(height, width, side):
    """The pixel index list of every clique, in :func:`brute_force_cliques` order."""
    return [idx for _, _, idx in brute_force_cliques(height, width, side)]


def coverage_by_enumeration(height, width, side):
    counts = np.zeros(height * width, dtype=int)
    for _, _, idx in brute_force_cliques(height, width, side):
        for i in idx:
            counts[i] += 1
    return counts


def block_norm_by_loop(x, cliques_idx):
    """Penalty value by per-clique python loop over explicit index lists."""
    flat = np.asarray(x, dtype=float).ravel()
    return sum(float(np.linalg.norm(flat[list(idx)])) for idx in cliques_idx)


def smoothed_value_by_loop(x, cliques_idx, eps):
    flat = np.asarray(x, dtype=float).ravel()
    return sum(float(np.sqrt(np.sum(flat[list(idx)] ** 2) + eps * eps))
               for idx in cliques_idx)


def smoothed_grad_by_loop(x, cliques_idx, eps):
    """Gradient of the smoothed penalty assembled clique by clique."""
    x = np.asarray(x, dtype=float)
    flat = x.ravel()
    out = np.zeros_like(flat)
    for idx in cliques_idx:
        idx = list(idx)
        w = 1.0 / np.sqrt(np.sum(flat[idx] ** 2) + eps * eps)
        for i in idx:
            out[i] += flat[i] * w
    return out.reshape(x.shape)


def central_difference_gradient(f, x, step):
    """Central finite differences of a scalar function of an array."""
    x = np.asarray(x, dtype=float)
    grad = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        i = it.multi_index
        xp = x.copy()
        xm = x.copy()
        xp[i] += step
        xm[i] -= step
        grad[i] = (f(xp) - f(xm)) / (2.0 * step)
        it.iternext()
    return grad


def prox_objective(x, v, cliques_idx, lam):
    """The prox objective ||x - v||^2 + lam * sum_c ||x_c|| (data coefficient 1)."""
    x = np.asarray(x, dtype=float)
    v = np.asarray(v, dtype=float)
    return float(np.sum((x - v) ** 2)) + lam * block_norm_by_loop(x, cliques_idx)


def prox_gap_by_projection(v, x, u, rho, lam, side):
    """Duality gap ``P(x) - D(g)`` of the prox ``||x - v||^2 + lam * J(x)``.

    ``g`` is built clique by clique from the scaled duals: row ``i`` of
    ``-rho * u`` belongs to subset ``i = (top % side) * side + left % side``,
    each clique block of it is projected onto the ball of radius ``lam``,
    and the projections are summed.  Any such ``g`` is dual feasible, so
    ``D(g) = <g, v> - ||g||^2 / 4`` bounds the optimum from below.
    """
    v = np.asarray(v, dtype=float)
    h, w = v.shape
    share = -rho * np.asarray(u, dtype=float)
    g = np.zeros(h * w)
    cliques = brute_force_cliques(h, w, side)
    for top, left, idx in cliques:
        block = share[(top % side) * side + left % side, idx]
        norm = float(np.linalg.norm(block))
        if norm > lam:
            block = block * (lam / norm)
        g[idx] += block
    primal = prox_objective(x, v, [idx for _, _, idx in cliques], lam)
    dual = float(g @ v.ravel()) - float(g @ g) / 4.0
    return primal - dual


def prox_by_smoothed_descent(v, cliques_idx, lam, eps=1e-8, max_iters=100000):
    """High-accuracy prox oracle: Armijo gradient descent on the smoothed
    objective ``||x - v||^2 + lam * sum_c sqrt(||x_c||^2 + eps^2)``.

    Independent of the ADMM path: gradient assembled by per-clique loop,
    plain descent with step halving/doubling, stops on objective stall.
    """
    v = np.asarray(v, dtype=float)
    idx_mat = np.array([list(i) for i in cliques_idx])
    idx_flat = idx_mat.ravel()
    n = v.size

    def value(x):
        flat = x.ravel()
        vals = flat[idx_mat]
        smooth = np.sqrt((vals ** 2).sum(axis=1) + eps * eps)
        return float(np.sum((x - v) ** 2)) + lam * float(smooth.sum())

    def gradient(x):
        flat = x.ravel()
        vals = flat[idx_mat]
        smooth = np.sqrt((vals ** 2).sum(axis=1) + eps * eps)
        contrib = vals / smooth[:, None]
        gflat = 2.0 * (flat - v.ravel()) + lam * np.bincount(
            idx_flat, weights=contrib.ravel(), minlength=n)
        return gflat.reshape(x.shape)

    x = v.copy()
    fx = value(x)
    alpha = 1.0
    window_f = fx
    for it in range(1, max_iters + 1):
        g = gradient(x)
        gsq = float(np.sum(g * g))
        if gsq == 0.0:
            break
        while alpha > 1e-300:
            x_new = x - alpha * g
            f_new = value(x_new)
            if f_new <= fx - 1e-4 * alpha * gsq:
                break
            alpha *= 0.5
        x, fx = x_new, f_new
        alpha *= 2.0
        # windowed stall check: per-step progress oscillates with the step
        # doubling, so compare against the value 40 iterations back; the
        # comparison tolerance is 1e-4 relative, leaving orders of magnitude
        # of slack
        if it % 40 == 0:
            if window_f - fx <= 1e-8 * max(1.0, abs(fx)):
                break
            window_f = fx
    return x


def dense_normal_solve(phi_s, y):
    """Dense factorization oracle for the normal equations."""
    a = np.asarray(phi_s, dtype=float)
    return np.linalg.solve(a.T @ a, a.T @ np.asarray(y, dtype=float))


def cosamp_support_step(proxy, k2):
    """CoSaMP-style support identification: indices of the 2K largest proxy
    magnitudes (stable tie-break by lowest index)."""
    order = np.argsort(-np.abs(np.asarray(proxy, dtype=float)), kind="stable")
    return set(order[:k2].tolist())


def svt_by_svd(q, delta):
    """Singular value thresholding from a full LAPACK SVD of ``q``."""
    u, s, vt = np.linalg.svd(np.asarray(q, dtype=float), full_matrices=False)
    return (u * np.maximum(s - delta, 0.0)) @ vt
