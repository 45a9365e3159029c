"""Fixed calibration kernels: they time the machine, not the program.

On a machine whose cores are shared with other tenants the same work
can take 0.4 s in one minute and 0.8 s in the next; the process's CPU
time tracks its wall time, so it is slowed, not descheduled.  Timing a
fixed kernel of the same kind of work next to every pass and dividing
by it cancels that drift (wall_rel in run.py).

The kernels are frozen copies of the seed commit's hot loops and import
nothing from neqbath, so a change to the program never changes them.
Changing a kernel makes wall_rel incomparable with earlier runs.
"""

import math
import time

import numpy as np

# 15-point Kronrod nodes and weights with the embedded 7-point Gauss rule
_XGK = np.array([
    0.991455371120812639206854697526329, 0.949107912342758524526189684047851,
    0.864864423359769072789712788640926, 0.741531185599394439863864773280788,
    0.586087235467691130294144838258730, 0.405845151377397166906606412076961,
    0.207784955007898467600689403773245, 0.0])
_WGK = np.array([
    0.022935322010529224963732008058970, 0.063092092629978553290700663189204,
    0.104790010322250183839876322541518, 0.140653259715525918745189590510238,
    0.169004726639267902826583426598550, 0.190350578064785409913256402421014,
    0.204432940075298892414161999234649, 0.209482141084727828012999174891714])
_WG = np.array([
    0.129484966168869693270611432679082, 0.279705391489276667901467771423780,
    0.381830050505118944950369775488975, 0.417959183673469387755102040816327])
_NODES = np.concatenate([-_XGK[:7], [0.0], _XGK[6::-1]])
_WK = np.concatenate([_WGK[:7], [_WGK[7]], _WGK[6::-1]])
_WG7 = np.array([_WG[0], _WG[1], _WG[2], _WG[3], _WG[2], _WG[1], _WG[0]])


def _panels(f, a, b):
    c, h = 0.5 * (a + b), 0.5 * (b - a)
    vals = f((c[:, None] + h[:, None] * _NODES[None, :]).ravel())
    vals = vals.reshape(len(a), 15)
    k15 = h * (vals @ _WK)
    return k15, np.abs(k15 - h * (vals[:, 1::2] @ _WG7))


def _adaptive(f, a, b, tol=1e-10, max_panels=10_000):
    k15, err = _panels(f, a, b)
    while err.sum() > tol and len(a) < max_panels:
        idx = np.flatnonzero(err > tol / (2.0 * len(a)))
        if len(idx) == 0:
            idx = np.array([int(np.argmax(err))])
        mid = 0.5 * (a[idx] + b[idx])
        new_k, new_e = _panels(f, np.concatenate([a[idx], mid]),
                               np.concatenate([mid, b[idx]]))
        keep = np.ones(len(a), dtype=bool)
        keep[idx] = False
        a = np.concatenate([a[keep], a[idx], mid])
        b = np.concatenate([b[keep], mid, b[idx]])
        k15 = np.concatenate([k15[keep], new_k])
        err = np.concatenate([err[keep], new_e])
    return float(k15.sum())


def quadrature_kernel() -> float:
    """Figure 3's ohmic beta(t) quadrature at 80 fixed times."""
    total = 0.0
    for t in np.linspace(0.25, 9.75, 80):
        e2 = math.exp(-0.2 * t)

        def integrand(w):
            bracket = (1.0 - e2) + (e2 - e2 * e2) * np.cos(2.0 * (w * t - w * w))
            return 3.0 * w * np.exp(-w) * bracket

        # initial panels resolve the chirped period pi / (2 (t + 2 w))
        w0 = min(60.0 / 64.0, math.pi / t / 2.0)
        edges = [0.0]
        while edges[-1] < 60.0:
            cap = math.pi / (2.0 * (t + 2.0 * edges[-1]))
            step = max(min(w0, cap), 60.0 / 8192.0)
            edges.append(min(edges[-1] + step, 60.0))
        edges = np.asarray(edges)
        total += _adaptive(integrand, edges[:-1], edges[1:])
    return total


_MC_RNG = np.random.Generator(np.random.Philox(key=12345))
_MC_OMEGA = (np.arange(512) + 0.5) * (20.0 / 512)
_MC_COUPLING = np.sqrt(2.0 * _MC_OMEGA * np.exp(-_MC_OMEGA) * (20.0 / 512))
_MC_THETA = -_MC_OMEGA
_MC_TIMES = np.arange(2001) * 0.005


def mc_kernel() -> float:
    """Eight Monte Carlo trajectories at the size of the mc workload.

    Modes go in blocks of 128 so the kernel's memory stays well below
    the program's, whose peak is what peak_rss_mb reports.
    """
    total = 0.0
    for _ in range(8):
        phi = np.zeros(2001)
        for k in range(0, 512, 128):
            block = slice(k, k + 128)
            steps = _MC_RNG.standard_normal((128, 2000)) * math.sqrt(2.0 * 0.1 * 0.005)
            paths = np.zeros((128, 2001))
            np.cumsum(steps, axis=1, out=paths[:, 1:])
            ph = (_MC_OMEGA[block, None] * _MC_TIMES[None, :]
                  + _MC_THETA[block, None] + paths)
            phi += _MC_COUPLING[block] @ (np.sin(ph) - np.sin(_MC_THETA[block])[:, None])
        total += float(np.abs(np.exp(-1j * phi).mean()))
    return total


def timed(kernel) -> float:
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start
