"""The three workloads: seeded inputs, the operations of one round, and the
independent check of every answer.

A round is a fixed list of operations on inputs drawn from
``random.Random(f"{workload}/{seed}/{round}")``, so the same seed gives the
same inputs and every round of a run is different work.  Each operation's
``check`` returns ``None`` for a right answer and a reason otherwise.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

import checks


@dataclass
class Op:
    label: str
    call: Callable[[], object]
    check: Callable[[object], Optional[str]]


def round_rng(workload: str, seed: int, index: int) -> random.Random:
    return random.Random(f"{workload}/{seed}/{index}")


def dense_curve(rng: random.Random, d: int) -> dict:
    """Every monomial of degree <= d with a nonzero coefficient in [-9, 9],
    drawn again until the curve is generic at infinity (the closed-form
    degrees assume it; small coefficients miss it about once in 300)."""
    while True:
        F = {
            (i, j): rng.choice((-1, 1)) * rng.randint(1, 9)
            for i in range(d + 1)
            for j in range(d + 1 - i)
        }
        if checks.generic_at_infinity(F):
            return F


def _curve_input(F: dict):
    from sigcurve.jets import CurveInput
    from sigcurve.poly import SparsePoly

    return CurveInput.from_poly(SparsePoly.from_terms(("x", "y"), list(F.items())))


def _group(name: str):
    from sigcurve.jets import GroupId

    return GroupId(name)


# ---------------------------------------------------------------------------
# degree-generic: predict_degree on a random dense quartic under all four
# groups, plus a quintic under SE2.  The quintic's time (about 1 s) falls
# between the quartic's SA2 and A2 times, so the median operation is one
# steady kind of operation rather than the edge of one.

DEGREE_PLAN = ((4, checks.GROUPS), (5, ("SE2",)))


def check_degree(rep, group: str, d: int) -> Optional[str]:
    want = checks.GENERIC_DEGREE[group](d)
    if rep.deg_S_predicted != want:
        return f"{group} d={d}: deg S = {rep.deg_S_predicted}, closed form {want}"
    deg_sigma = checks.SIGMA_DEGREE[group](d)
    if rep.deg_sigma != deg_sigma or rep.n_times_deg_S != d * deg_sigma - rep.mult_sum:
        return f"{group} d={d}: n deg S = d deg sigma - mult does not hold"
    return None


def degree_generic(rng: random.Random) -> list[Op]:
    from sigcurve.degree import predict_degree

    ops = []
    for d, groups in DEGREE_PLAN:
        cv = _curve_input(dense_curve(rng, d))
        trial_seed = rng.randrange(1000)
        ops += [
            Op(
                f"predict_degree d={d} {g}",
                lambda cv=cv, g=g, s=trial_seed: predict_degree(
                    cv, _group(g), n=1, seed=s
                ),
                lambda rep, g=g, d=d: check_degree(rep, g, d),
            )
            for g in groups
        ]
    return ops


# ---------------------------------------------------------------------------
# sigma-extension: projective_extension on random dense curves

# (degree, groups) per round; the groups of one curve share cached thetas.
SIGMA_PLAN = ((3, ("SE2", "SA2", "A2")), (4, ("SE2", "SA2", "A2")), (5, ("SE2",)))


def point_invariants(group: str, F: dict, p: tuple) -> tuple:
    """The benchmark's (K1, K2) of the curve F = 0 at the point p."""
    return checks.invariants(group, checks.jets(F, *p, checks.JET_ORDER[group]))


def curve_through_points(rng: random.Random, d: int, groups) -> tuple[dict, list]:
    """A dense curve through (1, 1) and (1, -1) at which F_y and the
    denominators of every group's invariants are nonzero.

    Every monomial is +-1 at these points, so every coefficient of a sigma_i
    enters its value there.  The constant and y coefficients are set to
    minus the sums of the other coefficients of even and of odd y-degree,
    so they stay small.
    """
    points = [(Fraction(1), Fraction(1)), (Fraction(1), Fraction(-1))]
    while True:
        F = dense_curve(rng, d)
        for fixed in ((0, 0), (0, 1)):
            F[fixed] = -sum(c for e, c in F.items() if e[1] % 2 == fixed[1] and e != fixed)
        F = {e: c for e, c in F.items() if c}
        try:
            for g in groups:
                for p in points:
                    (_, d1), (_, d2) = point_invariants(g, F, p)
                    if d1 == 0 or d2 == 0:
                        raise ValueError("invariant denominator vanishes")
        except ValueError:
            continue
        return F, points


def check_sigma(tri, group: str, d: int, F: dict, points: list) -> Optional[str]:
    """Degree and homogeneity of each sigma_i, and [s0 : s1 : s2] equal to
    [1 : K1 : K2] at each point, with K1, K2 from the benchmark's jets."""
    deg = checks.SIGMA_DEGREE[group](d)
    if tri.deg != deg or len(tri.sigma) != 3:
        return f"{group} d={d}: sigma degree {tri.deg}, paper {deg}"
    for s in tri.sigma:
        if not s.terms or any(sum(e) != deg for e in s.terms):
            return f"{group} d={d}: a sigma_i is zero or not homogeneous of degree"
    for a, b in points:
        chart = {"x0": 1, "x1": a, "x2": b}
        s0, s1, s2 = (checks.evaluate(s.terms, [chart[v] for v in s.ring]) for s in tri.sigma)
        (n1, d1), (n2, d2) = point_invariants(group, F, (a, b))
        if s0 == 0 or s1 * d1 != s0 * n1 or s2 * d2 != s0 * n2:
            return f"{group} d={d}: [s0:s1:s2] != [1:K1:K2] at ({a}, {b})"
    return None


def sigma_extension(rng: random.Random) -> list[Op]:
    from sigcurve.jets import projective_extension

    ops = []
    for d, groups in SIGMA_PLAN:
        F, points = curve_through_points(rng, d, groups)
        cv = _curve_input(F)
        for g in groups:
            ops.append(
                Op(
                    f"projective_extension d={d} {g}",
                    lambda cv=cv, g=g: projective_extension(cv, _group(g)),
                    lambda tri, g=g, d=d, F=F, p=points: check_sigma(tri, g, d, F, p),
                )
            )
    return ops


# ---------------------------------------------------------------------------
# desk-session: one CLI process per command

CUSP = {(0, 2): 1, (3, 0): -1}
WORKED_CUBIC = {(2, 1): 1, (0, 2): 1, (0, 1): 1, (0, 0): Fraction(64, 121)}
WORKED_CUBIC_TEXT = "x^2*y+y^2+y+64/121"
PYTHAGOREAN = ((3, 4, 5), (5, 12, 13), (8, 15, 17))
NUMERIC_TOL = 1e-25  # relative, at 50 significant digits
FLOAT_TOL = 1e-6  # relative, for the float64 sample path


def fermat(d: int) -> dict:
    return {(d, 0): 1, (0, d): 1, (0, 0): 1}


def random_ellipse(rng: random.Random) -> tuple[dict, tuple]:
    """A non-circular real ellipse with integer coefficients through an
    integer point p: Q(x - h, y - k) = Q(p - (h, k)), Q positive definite."""
    while True:
        a, b, c = rng.randint(1, 4), rng.randint(-3, 3), rng.randint(1, 4)
        if b * b < 4 * a * c and (b or a != c):
            break
    h, k = rng.randint(-2, 2), rng.randint(-2, 2)
    dx, dy = rng.choice(((1, 0), (0, 1), (1, 1), (-1, 2), (2, -1), (1, -2)))
    Q = {(2, 0): a, (1, 1): b, (0, 2): c}
    F = checks.compose_affine(Q, (1, 0, -h), (0, 1, -k))
    F = checks.poly_add(F, {(0, 0): -checks.evaluate(Q, (dx, dy))})
    return F, (Fraction(h + dx), Fraction(k + dy))


def conic_points(F: dict, p: tuple, slopes) -> list:
    """Second intersections of the conic with the lines through p of the
    given slopes: rational points, kept where F_y is nonzero."""
    out = []
    fy = checks.partial_y(F)
    for m in slopes:
        f1 = checks.evaluate(F, (p[0] + 1, p[1] + m))
        f2 = checks.evaluate(F, (p[0] - 1, p[1] - m))
        A, B = (f1 + f2) / 2, (f1 - f2) / 2
        if A and B:
            t = -B / A
            q = (p[0] + t, p[1] + m * t)
            if checks.evaluate(fy, q):
                out.append(q)
    return out


def check_vanishing(out: dict, F: dict, group: str, points: list, tol) -> Optional[str]:
    """S(K1, K2) = 0 at every point, K1, K2 from the benchmark's jets."""
    S = checks.parse_serialized(out["S"], ("k1", "k2"))
    if len(S) < 2 or out["degree"] != max(sum(e) for e in S):
        return f"signature {out['S']!r} is constant or its degree is misreported"
    for a, b in points:
        (n1, d1), (n2, d2) = point_invariants(group, F, (a, b))
        k = (n1 / d1, n2 / d2)
        value = checks.evaluate(S, k)
        if tol is None:
            vanishes = value == 0
        else:
            scale = sum(abs(c * k[0] ** i * k[1] ** j) for (i, j), c in S.items())
            vanishes = abs(value) <= tol * scale
        if not vanishes:
            return f"S does not vanish at ({a}, {b})"
    return None


def expect(key: str, want) -> Callable[[dict], Optional[str]]:
    def check(out: dict) -> Optional[str]:
        return None if out.get(key) == want else f"{key} = {out.get(key)!r}, expected {want!r}"

    return check


def check_theta(out: dict, index: int, F: dict, points: list) -> Optional[str]:
    if out["index"] != index or out["d_i"] != checks.FY_WEIGHT[index]:
        return f"theta {index}: index or weight misreported"
    T = checks.parse_serialized(out["T"], ("x", "y"))
    Fp = checks.primitive(F)
    fy = checks.partial_y(Fp)
    for a, b in points:
        theta = checks.thetas(checks.jets(Fp, a, b, 6))[index]
        want = theta * checks.evaluate(fy, (a, b)) ** out["d_i"]
        if not checks.close(checks.evaluate(T, (a, b)), want, NUMERIC_TOL):
            return f"T_{index} != Theta_{index} F_y^{out['d_i']} at a point"
    return None


def check_invariants(out: dict, group: str, F: dict, points: list) -> Optional[str]:
    K = [[checks.parse_serialized(out[f"{k}_{part}"], ("x", "y")) for part in ("num", "den")]
         for k in ("K1", "K2")]
    for p in points:
        for (num, den), (rn, rd) in zip(K, point_invariants(group, F, p)):
            got, want = checks.evaluate(num, p) * rd, checks.evaluate(den, p) * rn
            if not checks.close(got, want, NUMERIC_TOL):
                return f"{group} invariants differ from the benchmark's at a point"
    return None


def check_samples(out: dict, F: dict, count: int) -> Optional[str]:
    rows = out["csv"].splitlines()
    if rows[0] != "x,y,k1,k2" or len(rows) != count + 1:
        return f"expected {count} samples, got {len(rows) - 1}"
    scale = sum(abs(c) for c in F.values())
    for row in rows[1:]:
        x, y, k1, k2 = map(float, row.split(","))
        if abs(checks.evaluate(F, (x, y))) > 1e-9 * scale:
            return f"sample ({x}, {y}) is not on the curve"
        (n1, d1), (n2, d2) = point_invariants("SE2", F, (x, y))
        for got, want in ((k1, n1 / d1), (k2, n2 / d2)):
            if abs(got - want) > FLOAT_TOL * (1 + abs(want)):
                return f"sample invariants ({k1}, {k2}) differ from the benchmark's"
    return None


def check_worked_degree(out: dict) -> Optional[str]:
    # The paper's worked cubic: d = 3, deg sigma = 36 under A2, n = 2, deg S = 24.
    formula_holds = out["n_times_deg_S"] == 3 * 36 - out["mult_sum"]
    if out["deg_S_predicted"] != 24 or out["deg_sigma"] != 36 or not formula_holds:
        return f"worked cubic: deg S {out['deg_S_predicted']}, expected 24"
    return None


def desk_session(rng: random.Random, cli: Callable[[list], str]) -> list[Op]:
    """``cli(args)`` runs one ``sigcurve --format json`` command and returns
    its standard output."""
    E, p = random_ellipse(rng)
    slopes = rng.sample([Fraction(n, m) for n in range(-3, 4) for m in (1, 2, 3)], 6)
    e_points = conic_points(E, p, slopes)
    c, s, r = rng.choice(PYTHAGOREAN)
    c, s = Fraction(c, r), Fraction(rng.choice((-1, 1)) * s, r)
    tx, ty = rng.randint(-3, 3), rng.randint(-3, 3)
    moved = checks.compose_affine(E, (c, s, -c * tx - s * ty), (-s, c, s * tx - c * ty))
    moved = checks.primitive(moved)
    stretched = checks.compose_affine(E, (rng.choice((2, 3)), 0, 0), (0, 1, 0))
    ts = [Fraction(rng.choice((1, -1)) * rng.randint(1, 4), rng.randint(1, 3)) for _ in range(3)]
    cusp_points = [(t * t, t**3) for t in ts]
    xs = [Fraction(rng.randint(1, 9), 7) for _ in range(2)]  # x > 0: x^d + 1 and x are nonzero
    fermat_points = {d: checks.numeric_points(fermat(d), xs) for d in (3, 4)}
    cubic_points = checks.numeric_points(WORKED_CUBIC, xs)
    index = rng.randint(1, 6)
    inv_group = rng.choice(("SE2", "SA2", "A2"))
    sample_seed = rng.randrange(1000)
    e_text, cusp_text = checks.to_text(E), checks.to_text(CUSP)

    def command(label, args, check):
        return Op(label, lambda: json.loads(cli(args)), check)

    def on(what, curve, group, *more):
        return [what, "--curve", curve, "--group", group, *more]

    def equiv(other):
        return ["equiv", "--curve", e_text, "--curve2", checks.to_text(other), "--group", "SE2"]

    ops = [
        command("signature ellipse SE2", on("signature", e_text, "SE2"),
                lambda out: check_vanishing(out, E, "SE2", e_points, None)),
        command("symmetry ellipse SE2", on("symmetry", e_text, "SE2", "--seed", str(sample_seed)),
                expect("n", 2)),
        command("equiv ellipse moved SE2", equiv(moved), expect("equivalent", True)),
        command("equiv ellipse stretched SE2", equiv(stretched), expect("equivalent", False)),
        command("signature cusp SE2", on("signature", cusp_text, "SE2"),
                lambda out: check_vanishing(out, CUSP, "SE2", cusp_points, None)),
        command("symmetry cusp SE2", on("symmetry", cusp_text, "SE2"), expect("n", 1)),
    ]
    for d in (3, 4):
        text = checks.to_text(fermat(d))
        ops.append(command(
            f"signature fermat{d} A2", on("signature", text, "A2"),
            lambda out, d=d: check_vanishing(out, fermat(d), "A2", fermat_points[d], NUMERIC_TOL),
        ))
        ops.append(command(f"symmetry fermat{d} A2", on("symmetry", text, "A2"),
                           expect("n", checks.FERMAT_SYMMETRY["A2"](d))))
    fd = 3  # d = 4 takes 4 s, a third of the round
    cubic = WORKED_CUBIC_TEXT
    ops += [
        command(f"theta {index} worked cubic",
                ["theta", "--curve", cubic, "--index", str(index)],
                lambda out: check_theta(out, index, WORKED_CUBIC, cubic_points)),
        command(f"invariants worked cubic {inv_group}", on("invariants", cubic, inv_group),
                lambda out: check_invariants(out, inv_group, WORKED_CUBIC, cubic_points)),
        command("samples ellipse SE2",
                on("samples", e_text, "SE2", "--count", "25", "--seed", str(sample_seed)),
                lambda out: check_samples(out, E, 25)),
        command("degree worked cubic A2", on("degree", cubic, "A2", "--n", "2"),
                check_worked_degree),
        command(f"fermat {fd} PGL3 symmetry",
                ["fermat", "--d", str(fd), "--group", "PGL3", "--what", "symmetry"],
                expect("n", checks.FERMAT_SYMMETRY["PGL3"](fd))),
    ]
    return ops


IN_PROCESS = {"degree-generic": degree_generic, "sigma-extension": sigma_extension}
WORKLOADS = ("degree-generic", "sigma-extension", "desk-session")
