"""Cross-check of the kernel's f and S against 80-digit mpmath at the inputs
as given.

    PYTHONPATH=src python tests/crosscheck_kernel.py [--seed N] [--cells N] [--draws N]

Two sets of points: `cells` cells (2,000 by default) drawn from each of the
four tables whose bytes tests/test_cli.py pins (reference.pinned_tables),
with the values the table holds, and `draws` (3,000) random points over
q 2..64, |J| <= 12, |h| <= 3 and beta log-uniform in 1e-3..1e15, evaluated
by one thermo_arrays call.  The reference takes the doubles q, J, h and beta
as given and forms u = h + J*beta exactly, so a kernel that is exact only
at the rounded u fails here.

f must lie within F_EPS eps of the reference, relative to |f|, and S within
S_EPS eps of max(|S|, |h|, ln(q-1)): near S = 0 the rounding of
h + ln(q-1) sets that scale, and no formula avoids it.  The errors of m (in
eps of 1/beta, its largest value), chi and C (relative, where the reference
is a normal double; and the cells below that off by more than one subnormal
ulp) are printed, not gated.  Prints the maxima, and the worst points of a
bound that is exceeded, and exits 1 then.  Its name keeps it out of the
pytest run; it takes a few seconds.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np
from mpmath import exp, log1p, mp, mpf

from potts1d.thermo import thermo_arrays
from reference import pinned_tables

F_EPS = 4.0
S_EPS = 4.0
EPS = float(np.finfo(float).eps)
TINY = float(np.finfo(float).tiny)
SUBNORMAL_ULP = 5e-324
WORST = 5


def reference(q: int, J: float, h: float, beta: float) -> tuple[float, ...]:
    """f, S, m, chi and C at 80 digits.  S is the paper's ln(lambda_max) -
    J beta (2r - 1) with ln(lambda_max) = -u + ln(1 + a), a = (q-1) e^{2u},
    written -h + ln(1 + a) - 2 J beta r: the same value, and it cancels at
    most the 17 digits of 2|u| <= 2.4e16 of the 80 it keeps."""
    with mp.workdps(80):
        J, h, beta = mpf(J), mpf(h), mpf(beta)
        jb = J * beta
        a = (q - 1) * exp(2 * (h + jb))
        r, one_minus_r = a / (1 + a), 1 / (1 + a)
        log_lambda = -(h + jb) + log1p(a)
        values = (-log_lambda / beta, -h + log1p(a) - 2 * jb * r, (r - one_minus_r) / beta,
                  4 * r * one_minus_r / beta, 4 * jb**2 * r * one_minus_r)
        return tuple(float(v) for v in values)


def table_points(rng: np.random.Generator, cells: int):
    """(set name, q, J, h, beta, ThermoPoint) of cells sampled from each pinned table."""
    for name, table in pinned_tables().items():
        at = rng.choice(len(table), size=min(cells, len(table)), replace=False)
        q, J, h, beta, *values = (table.columns[c].ravel()[at] for c in ("q", "J", "h", "beta", "f", "S", "m", "chi", "C"))
        yield f"table {name}", q, J, h, beta, values


def drawn_points(rng: np.random.Generator, draws: int):
    q = rng.integers(2, 65, draws)
    J, h = rng.uniform(-12.0, 12.0, draws), rng.uniform(-3.0, 3.0, draws)
    beta = np.exp(rng.uniform(np.log(1e-3), np.log(1e15), draws))
    return "draws", q, J, h, beta, list(thermo_arrays(q, J, h, beta))


def errors(q, J, h, beta, values, ref) -> dict[str, np.ndarray]:
    """Per point: f and S in eps of their scales, m in eps of 1/beta, chi and C
    relative where the reference is normal, and below that in subnormal ulps."""
    f, S, m, chi, C = values
    scale = np.maximum(np.maximum(np.abs(ref[1]), np.abs(h)), np.log(q - 1.0))
    out = {"f": np.abs(f - ref[0]) / np.abs(ref[0]) / EPS, "S": np.abs(S - ref[1]) / scale / EPS,
           "m": np.abs(m - ref[2]) * beta / EPS}
    for name, got, want in (("chi", chi, ref[3]), ("C", C, ref[4])):
        normal = want >= TINY
        out[name] = np.where(normal, np.abs(got - want) / np.where(normal, want, 1.0) / EPS, 0.0)
        with np.errstate(over="ignore"):  # a wrong normal value where the reference is not: inf ulps
            out[name + " below normal"] = np.where(normal, 0.0, np.abs(got - want) / SUBNORMAL_ULP)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=20261020)
    parser.add_argument("--cells", type=int, default=2000, help="cells sampled from each pinned table")
    parser.add_argument("--draws", type=int, default=3000, help="random points")
    args = parser.parse_args(argv)
    rng = np.random.default_rng(args.seed)
    failed = False
    for name, q, J, h, beta, values in [*table_points(rng, args.cells), drawn_points(rng, args.draws)]:
        ref = np.array([reference(*p) for p in zip(q.tolist(), J.tolist(), h.tolist(), beta.tolist())]).T
        err = errors(q, J, h, beta, values, ref)
        below = {k: int(np.count_nonzero(err[k + " below normal"] > 1.0)) for k in ("chi", "C")}
        print(f"{name}: {q.size} points, worst f {err['f'].max():.3g} eps, S {err['S'].max():.3g} eps; "
              f"ungated: m {err['m'].max():.3g} eps of 1/beta, chi {err['chi'].max():.3g} eps, "
              f"C {err['C'].max():.3g} eps, cells below normal off by more than 1 ulp: "
              f"chi {below['chi']}, C {below['C']}")
        for quantity, bound in (("f", F_EPS), ("S", S_EPS)):
            bad = np.flatnonzero(err[quantity] > bound)
            if bad.size:
                failed = True
                print(f"  {quantity} exceeds {bound} eps at {bad.size} points; the worst:")
                k = "fS".index(quantity)
                for i in bad[np.argsort(err[quantity][bad])[::-1][:WORST]]:
                    print(f"    q={int(q[i])} J={float(J[i])!r} h={float(h[i])!r} beta={float(beta[i])!r}: "
                          f"{quantity} = {float(values[k][i])!r}, reference {float(ref[k][i])!r}, {err[quantity][i]:.3g} eps")
    print("FAIL" if failed else "PASS")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
