"""Independent oracles used across the test suite.

These reimplement the quantities under test from their definitions (brute
enumeration, finite differences, dense factorizations, plain gradient
descent) so production code paths are checked against routes they do not
share.
"""

import csv

import numpy as np

from blocksparse.common import check_finite, check_nonnegative

# Columns that differ between reruns of the same seed, which byte-determinism
# comparisons exclude: the timestamp, wall-clock readings, and tracemalloc
# peaks, which move by tens of bytes with the interpreter's own allocations.
UNREPEATABLE_COLUMNS = ("timestamp", "wall_clock_s", "fbs_measured_entries",
                        "admm_measured_entries", "memory_ratio")

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


def rpca_objective_by_loop(x, z, y, lam, eps, mu, side):
    """``||Z||_* + lam * Jeps(X) + mu/2 * ||Y - Z - X||_F^2`` of ``(H, W, L)``
    stacks: the smoothed penalty clique by clique per frame, the nuclear norm
    from a LAPACK SVD of the ``(H*W, L)`` matrix."""
    h, w, n_frames = y.shape
    idx = clique_index_lists(h, w, side)
    penalty = sum(smoothed_value_by_loop(x[:, :, t], idx, eps) for t in range(n_frames))
    nuclear = float(np.linalg.svd(z.reshape(h * w, n_frames), compute_uv=False).sum())
    return nuclear + lam * penalty + 0.5 * mu * float(np.sum((y - z - x) ** 2))


def rpca_fbs_by_loop(y, lam, eps, mu, side, max_iters, tol_obj):
    """Forward-backward splitting on :func:`rpca_objective_by_loop`, as
    :func:`blocksparse.solve_rpca` documents it, from ``x = z = 0`` and the
    step ``1 / (mu + lam/eps)``.  Each trial takes a gradient step on ``x``
    and an SVT step on ``z`` (:func:`svt_by_svd`); it is accepted when the
    smooth part ``h`` meets its majorisation ``h(x, z) + <g, d> + ||d||^2 /
    (2 alpha)``, ``d`` the trial's move, within ``1e-12 |h(x, z)|``, and
    otherwise the step is halved, at most 60 times.  The step grows by 1.25
    after each accepted trial.  The penalty and its gradient are summed
    clique by clique, frame by frame.  Returns ``x``, ``z``, the objective
    and residual traces, and the number of rejected trials."""
    y = np.asarray(y, dtype=float)
    h, w, n_frames = y.shape
    idx = clique_index_lists(h, w, side)

    def smooth(x, z):
        penalty = sum(smoothed_value_by_loop(x[:, :, t], idx, eps) for t in range(n_frames))
        return lam * penalty + 0.5 * mu * float(np.sum((y - z - x) ** 2))

    x = np.zeros_like(y)
    z = np.zeros_like(y)
    alpha = 1.0 / (mu + lam / eps)
    h_old = obj_prev = smooth(x, z)
    objective, residual, halvings = [], [], 0
    for _ in range(max_iters):
        gz = mu * (z + x - y)
        gx = lam * np.stack([smoothed_grad_by_loop(x[:, :, t], idx, eps)
                             for t in range(n_frames)], axis=-1) + gz
        for _ in range(61):
            x_new = x - alpha * gx
            z_new = svt_by_svd((z - alpha * gz).reshape(h * w, n_frames), alpha).reshape(y.shape)
            dx, dz = x_new - x, z_new - z
            h_new = smooth(x_new, z_new)
            model = (h_old + float(np.sum(gx * dx) + np.sum(gz * dz))
                     + float(np.sum(dx * dx) + np.sum(dz * dz)) / (2.0 * alpha))
            if h_new <= model + 1e-12 * abs(h_old):
                break
            halvings += 1
            alpha *= 0.5
        else:
            raise ValueError("no acceptable step after 60 halvings")
        x, z, h_old = x_new, z_new, h_new
        obj = h_new + float(np.linalg.svd(z.reshape(h * w, n_frames), compute_uv=False).sum())
        objective.append(obj)
        residual.append(float(np.linalg.norm(y - z - x)))
        if abs(obj_prev - obj) <= tol_obj * abs(obj_prev):
            break
        obj_prev = obj
        alpha *= 1.25
    return x, z, objective, residual, halvings


def rank_by_svd(a):
    """The number of singular values of ``a`` above 1e-8 times the largest."""
    s = np.linalg.svd(np.asarray(a, dtype=float), compute_uv=False)  # descending
    return int(np.count_nonzero(s > 1e-8 * s[0]))


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


def group_shrink(v, tau):
    """Closed-form minimizer of ``tau*||z|| + 1/2*||z - v||^2``:
    ``max(1 - tau/||v||, 0) * v`` (zero when ``||v|| <= tau``).  The prox of
    one clique, shrunk on its own."""
    check_nonnegative(tau, "shrinkage threshold")
    v = np.asarray(v, dtype=float)
    check_finite(v, "shrinkage input")
    nv = float(np.linalg.norm(v))
    if nv <= tau:
        return np.zeros_like(v)
    return (1.0 - tau / nv) * v


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


def prox_by_dual_ascent(v, cliques_idx, lam, rel_gap=1e-12, max_sweeps=2000):
    """Certified prox ``argmin_x ||x - v||^2 + lam * sum_c ||x_c||`` by exact
    dual block-coordinate ascent, polished by Newton steps where the ascent
    stalls; returns the flat ``x`` and its gap ``P - D``.

    Every dual point ``g = sum_c P_c^T w_c`` with ``||w_c|| <= lam`` for all
    ``c`` gives the lower bound ``D(g) = <g, v> - ||g||^2/4``, and ``P(x) -
    D(g)`` bounds ``||x - x*||^2`` for any ``x``.  A result is accepted only
    once ``P - D <= rel_gap * P``; a solve that never certifies raises
    ``AssertionError``.

    One sweep of the ascent maximises ``D`` over each ``w_c`` in turn, the
    others fixed, in the order of ``cliques_idx``: ``w_c = proj_{||.|| <=
    lam}(2v_c - (g - P_c^T w_c)_c)``, and ``x = v - g/2``.  Where ``x*``
    vanishes on a clique whose dual block must sit exactly on its ball, it
    converges sublinearly: on the 3x4 grid, side 2, ``lam`` 2, with ``v`` zero
    but for -1, 1 and 2 at pixels 0, 5 and 8, the gap fell as ``0.5/k^2``
    over ``k`` sweeps (5e-9 after 10,000).  So after ``max_sweeps`` sweeps
    damped Newton steps take over, on the smoothed objective ``||x - v||^2 +
    lam * sum_c sqrt(||x_c||^2 + eps^2)`` with ``eps`` falling tenfold per
    stage from ``max|v|``.  Each stage is certified with the feasible blocks
    ``w_c = lam * x_c / sqrt(||x_c||^2 + eps^2)``, whose gap falls with
    ``eps``.
    """
    v = np.asarray(v, dtype=float).ravel()
    idx = np.array([list(c) for c in cliques_idx], dtype=int).reshape(len(cliques_idx), -1)

    def certified_gap(x, w):
        g = np.zeros_like(v)
        np.add.at(g, idx, w)
        primal = float((x - v) @ (x - v)) + lam * float(np.linalg.norm(x[idx], axis=1).sum())
        return primal - (float(g @ v) - 0.25 * float(g @ g)), primal

    w = np.zeros(idx.shape)
    g = np.zeros_like(v)
    x = v.copy()
    target = 2.0 * v
    for _ in range(max_sweeps):
        for wc, ic in zip(w, idx):
            block = target[ic] - g[ic] + wc
            norm = float(np.sqrt(block @ block))
            if norm > lam:
                block *= lam / norm
            g[ic] += block - wc
            wc[:] = block
        x = v - 0.5 * g
        gap, primal = certified_gap(x, w)
        if gap <= rel_gap * primal:
            return x, gap

    def smoothed(x, eps):
        """The smoothed clique norms and dual blocks at ``x``, and the
        smoothed objective's gradient."""
        xc = x[idx]
        r = np.sqrt((xc * xc).sum(axis=1) + eps * eps)
        w = lam * xc / r[:, None]
        grad = 2.0 * (x - v)
        np.add.at(grad, idx, w)
        return r, w, grad

    eps = float(np.abs(v).max())
    eye = np.eye(idx.shape[1])
    for _ in range(16):
        eps *= 0.1
        for _ in range(50):
            r, w, grad = smoothed(x, eps)
            hess = 2.0 * np.eye(v.size)
            for ic, rc, wc in zip(idx, r, w):
                # lam * (I - x_c x_c^T / r^2) / r, with w_c = lam * x_c / r
                hess[np.ix_(ic, ic)] += (lam * eye - np.outer(wc, wc) / lam) / rc
            step = np.linalg.solve(hess, grad)
            # near the optimum the objective's changes drown in its rounding,
            # so a step is accepted when it lowers the gradient's norm
            t = 1.0
            while t > 1e-6:
                trial = x - t * step
                if float(np.sum(smoothed(trial, eps)[2] ** 2)) < float(grad @ grad):
                    break
                t *= 0.5
            else:
                break
            x = trial
        gap, primal = certified_gap(x, smoothed(x, eps)[1])
        if gap <= rel_gap * primal:
            return x, gap
    raise AssertionError(f"dual ascent and its polish left a gap of {gap:.3g} at "
                         f"P = {primal:.3g}")


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


def tv1d_by_condat(y, lam):
    """Exact minimizer of ``1/2*||x - y||^2 + lam * sum_k |x_{k+1} - x_k|``
    by Condat's direct algorithm (*A direct algorithm for 1-D total
    variation denoising*, IEEE SPL 2013).

    It sweeps ``y`` once, growing the current constant segment while the
    running dual ``u`` (the cumulative sum of ``y - x``) can stay in
    ``[-lam, lam]`` for some segment value in ``[vmin, vmax]``.  When it
    cannot, the segment ends with a jump down (``u`` would pass ``-lam``) or
    up (past ``lam``) at the last place the bound was attained, and the
    sweep restarts after it.  At the end ``u`` must be 0, which picks the
    last segment's value or forces one more jump.
    """
    y = np.asarray(y, dtype=float).ravel()
    n = y.size
    x = np.empty(n)
    if n == 0:
        return x
    k = k0 = kminus = kplus = 0  # position, segment start, last bound hits
    umin, umax = lam, -lam
    vmin, vmax = y[0] - lam, y[0] + lam
    while True:
        while k == n - 1:  # the right end: u must come back to 0
            if umin < 0.0:  # vmin is too high: a jump down after kminus
                x[k0:kminus + 1] = vmin
                k = k0 = kminus = kminus + 1
                vmin, umin = y[k], lam
                umax = vmin + umin - vmax
            elif umax > 0.0:  # vmax is too low: a jump up after kplus
                x[k0:kplus + 1] = vmax
                k = k0 = kplus = kplus + 1
                vmax, umax = y[k], -lam
                umin = vmax + umax - vmin
            else:
                x[k0:] = vmin + umin / (k - k0 + 1)
                return x
        umin += y[k + 1] - vmin
        if umin < -lam:  # a jump down after kminus
            x[k0:kminus + 1] = vmin
            k = k0 = kminus = kplus = kminus + 1
            vmin, vmax = y[k], y[k] + 2.0 * lam
            umin, umax = lam, -lam
            continue
        umax += y[k + 1] - vmax
        if umax > lam:  # a jump up after kplus
            x[k0:kplus + 1] = vmax
            k = k0 = kminus = kplus = kplus + 1
            vmin, vmax = y[k] - 2.0 * lam, y[k]
            umin, umax = lam, -lam
            continue
        k += 1  # no jump: the segment grows, its value bounds tighten
        if umin >= lam:
            kminus = k
            vmin += (umin - lam) / (k - k0 + 1)
            umin = lam
        if umax <= -lam:
            kplus = k
            vmax += (umax + lam) / (k - k0 + 1)
            umax = -lam


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


def at_front_of(result, scratch):
    """Whether ``result`` is a C-contiguous view of the first entries of
    ``scratch``, and of no other entry."""
    flat = scratch.reshape(-1)
    return (result.flags.c_contiguous and np.shares_memory(result, flat[:result.size])
            and not np.shares_memory(result, flat[result.size:]))


def read_pgm8(path):
    """The samples of an 8-bit binary PGM written with the plain
    ``P5\\n<width> <height>\\n255\\n`` header."""
    with open(path, "rb") as fh:
        data = fh.read()
    magic, dims, maxval, payload = data.split(b"\n", 3)
    assert magic == b"P5" and maxval == b"255", data[:32]
    width, height = (int(d) for d in dims.split())
    assert len(payload) == width * height
    return np.frombuffer(payload, dtype=np.uint8).reshape(height, width)


def read_csv_without_timing(path):
    """Rows of a results CSV without the columns that differ between reruns
    (timing and measured memory), for byte-determinism comparisons."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        keep = [i for i, name in enumerate(header) if name not in UNREPEATABLE_COLUMNS]
        out = [tuple(header[i] for i in keep)]
        out.extend(tuple(line[i] for i in keep) for line in reader)
    return out
