"""The sequential golden-section search and multistart pricing loop, as
they stood before the starts moved in lockstep.  Tests hold the batched
versions in ymrelax._search and ymrelax.relax to these bit for bit."""

import math

from ymrelax.matcore import Mat, in_rho_ball
from ymrelax.relax import PRICING_STARTS, REDUCED_COST_TOL

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


def golden_min(fn, lo, hi, iters, coarse=13):
    xs = [lo + (hi - lo) * i / (coarse - 1) for i in range(coarse)]
    vals = [fn(x) for x in xs]
    i_best = min(range(coarse), key=lambda i: vals[i])
    best_x, best_v = xs[i_best], vals[i_best]
    a = xs[max(i_best - 1, 0)]
    b = xs[min(i_best + 1, coarse - 1)]
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc, fd = fn(c), fn(d)
    for _ in range(iters):
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - _INVPHI * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INVPHI * (b - a)
            fd = fn(d)
        if b - a < 1e-14 * max(1.0, abs(a) + abs(b)):
            break
    for x, v in ((c, fc), (d, fd)):
        if v < best_v:
            best_x, best_v = x, v
    return best_x, best_v


def refine_atoms(atoms, dual_moment, dual_mass, w, ball, rng):
    pi = tuple(dual_moment)
    n = math.isqrt(len(pi))

    def reduced_flat(flat):
        mat = Mat.from_flat(flat)
        if not in_rho_ball(mat, ball):
            return math.inf
        val = w.evaluate(mat)
        return val - math.fsum(p * s for p, s in zip(pi, flat)) - dual_mass

    seeds = [Mat.identity(n).flat] + [a.flat for a in atoms]
    k = 0
    while len(seeds) < PRICING_STARTS and atoms:
        base = atoms[k % len(atoms)].flat
        seeds.append(tuple(b + d for b, d in zip(base, rng.normal(0.0, 0.3, n * n))))
        k += 1
    seeds = seeds[:PRICING_STARTS]

    best_flat, best_val = None, math.inf
    for seed in seeds:
        cur = list(seed)
        val = reduced_flat(cur)
        for radius in (0.6, 0.2, 0.05):
            for idx in range(n * n):
                x0 = cur[idx]

                def entry_obj(x):
                    trial = cur.copy()
                    trial[idx] = x
                    return reduced_flat(trial)

                xn, fn = golden_min(entry_obj, x0 - radius, x0 + radius,
                                    iters=28, coarse=9)
                if fn < val - 1e-14:
                    cur[idx] = xn
                    val = fn
        if val < best_val:
            best_val, best_flat = val, tuple(cur)

    if best_flat is not None and best_val < -REDUCED_COST_TOL:
        return Mat.from_flat(best_flat), best_val
    return None, best_val
