"""Output checks for the benchmark, computed apart from slopewalk.

Nothing here imports slopewalk. Every check recomputes what it needs from
closed forms or from first principles (its own 2-adic valuation, its own
Newton polygon, its own v(w)) and raises CheckFailed when a program output
disagrees, so a wrong answer can never pass as a fast one.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction


class CheckFailed(Exception):
    """A program output disagrees with the independent computation."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


# -- arithmetic from first principles ------------------------------------------

def v2(x) -> int:
    """2-adic valuation of a nonzero rational."""
    x = Fraction(x)
    if x == 0:
        raise ValueError("v2(0) is infinite")
    num, den = abs(x.numerator), x.denominator
    return ((num & -num).bit_length() - 1) - ((den & -den).bit_length() - 1)


def v2_factorial(n: int) -> int:
    """Legendre: v2(n!) = n - (number of ones in binary n)."""
    return n - bin(n).count("1")


def buzzard_calegari_slopes(n: int) -> list[Fraction]:
    """The N weight-0 overconvergent U_2 slopes of the N x N truncation:
    0 and then 1 + 2 v2((3j)!/j!) for j = 1 .. N-1 (Buzzard-Calegari 2005)."""
    out = [Fraction(0)]
    for j in range(1, n):
        out.append(Fraction(1 + 2 * (v2_factorial(3 * j) - v2_factorial(j))))
    return sorted(out)


def dim_cusp_level1(k: int) -> int:
    """dim S_k(SL2(Z)) for even k >= 0 by the standard formula."""
    if k < 12 or k % 2:
        return 0
    return k // 12 - 1 if k % 12 == 2 else k // 12


def newton_slopes_2adic(coeffs: list[Fraction]) -> tuple[list[Fraction], int]:
    """(sorted root valuations of the nonzero roots, number of zero roots)
    of sum c_i X^i, from the lower convex hull of (i, v2(c_i))."""
    points = [(i, Fraction(v2(c))) for i, c in enumerate(coeffs) if c != 0]
    require(bool(points), "charpoly is the zero polynomial")
    zero_roots = points[0][0]
    hull: list[tuple[int, Fraction]] = []
    for p in points:
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            if (y2 - y1) * (p[0] - x1) >= (p[1] - y1) * (x2 - x1):
                hull.pop()
            else:
                break
        hull.append(p)
    slopes: list[Fraction] = []
    for (x1, y1), (x2, y2) in zip(hull, hull[1:]):
        slopes.extend([-(y2 - y1) / (x2 - x1)] * (x2 - x1))
    return sorted(slopes), zero_roots


def w_valuation(k: int, m: int) -> Fraction:
    """v(w) for the weight character (k, m): 2^(1-m) when m >= 1, 2 for odd
    k, 2 + v2(k - 2) for even k; (2, 0) is the center and has none."""
    if m >= 1:
        return Fraction(1, 2 ** (m - 1))
    require(k != 2, "weight (2, 0) is the center of weight space")
    return Fraction(2) if k % 2 else Fraction(2 + v2(k - 2))


def annulus_index(point: dict) -> int:
    """i with the point on X_i, recomputed as slope / v(w)."""
    k, m = point["k"], point["m"]
    v = w_valuation(k, m)
    require(0 < v < 3, f"point (k={k}, m={m}) is off the boundary annulus")
    ratio = Fraction(point["slope"]) / v
    require(ratio.denominator == 1 and ratio > 0, f"slope/v(w) = {ratio} is no annulus index")
    return ratio.numerator


# -- oc-ladder -----------------------------------------------------------------

def check_oc_slopes(n: int, slopes, zero_roots: int) -> None:
    """The truncation's spectrum equals the closed form, entry for entry."""
    require(zero_roots == 0, f"N={n}: {zero_roots} zero roots")
    got = sorted(Fraction(s) for s in slopes)
    want = buzzard_calegari_slopes(n)
    require(got == want, f"N={n}: slopes differ from Buzzard-Calegari at "
            f"{next((i for i, (a, b) in enumerate(zip(got, want)) if a != b), len(got))}")


# -- slopes-cli ----------------------------------------------------------------

def _spectrum(obj: dict) -> tuple[list[Fraction], list[Fraction]]:
    """(charpoly, slopes) of a slopes payload; the slopes must be the
    Newton slopes of the reported charpoly."""
    cp = [Fraction(c) for c in obj["charpoly"]]
    require(len(cp) == obj["dim"] + 1 and cp[-1] == 1, "charpoly is not monic of degree dim")
    slopes = [Fraction(s) for s in obj["slopes"]]
    mine, zero_roots = newton_slopes_2adic(cp)
    require(slopes == mine and obj["zero_roots"] == zero_roots,
            "slopes are not the Newton slopes of the reported charpoly")
    return cp, slopes


def _divisible_by_24(coeffs: list[Fraction]) -> bool:
    """X^dim mod 8 and mod 3: every coefficient below the top is an
    integer divisible by 24."""
    return all(c.denominator == 1 and c.numerator % 24 == 0 for c in coeffs[:-1])


def check_slopes_payload(level: str, k: int, obj: dict) -> None:
    require(obj["k"] == k and obj["level"] == level, "payload names another space")
    if level == "gamma0_2":
        dim = k // 4 + 1
        require(obj["dim"] == dim, f"gamma0_2 k={k}: dim {obj['dim']} != {dim}")
        _, slopes = _spectrum(obj)
        require(obj["zero_roots"] == 0, "U_2 on M_k(Gamma0(2)) has no zero eigenvalue")
        old = 2 * dim_cusp_level1(k)
        rest = Counter(slopes)
        for s, mult in ((Fraction(0), 1), (Fraction(k - 1), 1), (Fraction(k - 2, 2), dim - 2 - old)):
            require(rest[s] >= mult, f"gamma0_2 k={k}: slope {s} occurs {rest[s]} < {mult} times")
            rest[s] -= mult
        remaining = sorted(rest.elements())
        require(len(remaining) == old, f"gamma0_2 k={k}: {len(remaining)} oldform slopes, want {old}")
        require(sorted(k - 1 - s for s in remaining) == remaining,
                f"gamma0_2 k={k}: oldform slopes do not pair as s <-> k-1-s")
    elif level == "gamma1_4":
        dim = k // 2 + 1
        require(obj["dim"] == dim, f"gamma1_4 k={k}: dim {obj['dim']} != {dim}")
        _spectrum(obj)
    elif level == "sl2z":
        dim = dim_cusp_level1(k)
        require(obj["dim"] == dim, f"sl2z k={k}: dim {obj['dim']} != {dim}")
        cp, slopes = _spectrum(obj)
        require(_divisible_by_24(cp), f"sl2z k={k}: T_2 charpoly is not X^dim mod 8 and mod 3")
        for ref in obj["refinements"]:
            a = Fraction(ref["eigenvalue"])
            require(sum(c * a**i for i, c in enumerate(cp)) == 0, f"sl2z k={k}: {a} is no eigenvalue")
            v = Fraction(v2(a))
            pair = [v, k - 1 - v] if 2 * v < k - 1 else [Fraction(k - 1, 2)] * 2
            require([Fraction(s) for s in ref["slopes"]] == pair,
                    f"sl2z k={k}: refinement slopes of {a} are not {pair}")
    else:
        raise CheckFailed(f"no check for level {level!r}")


def check_hatada_payload(kmax: int, obj: dict) -> None:
    entries = obj["entries"]
    require([e["k"] for e in entries] == list(range(12, kmax + 1, 2)), "hatada weights are wrong")
    for e in entries:
        k = e["k"]
        require(e["dim"] == dim_cusp_level1(k), f"hatada k={k}: dim {e['dim']} is wrong")
        cp = [Fraction(c) for c in e["charpoly"]]
        require(len(cp) == e["dim"] + 1 and cp[-1] == 1, f"hatada k={k}: charpoly degree is wrong")
        require(_divisible_by_24(cp), f"hatada k={k}: charpoly is not X^dim mod 8 and mod 3")
        require(e["mod3_ok"] and e["mod8_ok"] and e["passed"], f"hatada k={k}: entry reports a failure")
    require(obj["all_passed"] is True, "hatada reports a failure")


def check_cli_run(returncode: int, stdout: str, expected: str | None) -> None:
    """Exit 0 and, where a payload is known from the cold fill, the same bytes."""
    require(returncode == 0, f"exit code {returncode}")
    if expected is not None:
        require(stdout == expected, "output differs from the cold payload of this run")


# -- cert-verify ---------------------------------------------------------------

def check_certificate(obj: dict, i: int, j: int) -> None:
    """A certificate joining X_i to X_j: endpoints, chain, twin arithmetic
    and within-annulus indices, all recomputed here."""
    require(obj["endpoints"] == [i, j], f"endpoints {obj['endpoints']} != {[i, j]}")
    moves = obj["moves"]
    require(len(moves) > 0, "certificate has no moves")
    require(annulus_index(moves[0]["from"]) == i, f"walk does not start on X_{i}")
    require(annulus_index(moves[-1]["to"]) == j, f"walk does not end on X_{j}")
    for a, b in zip(moves, moves[1:]):
        require(a["to"] == b["from"], "chain of moves is broken")
    for mv in moves:
        src, dst = mv["from"], mv["to"]
        si, di = annulus_index(src), annulus_index(dst)
        if mv["kind"] == "twin":
            require((src["k"], src["m"]) == (dst["k"], dst["m"]), "twin changes the weight")
            require(Fraction(src["slope"]) + Fraction(dst["slope"]) == src["k"] - 1,
                    "twin slopes do not sum to k - 1")
        elif mv["kind"] == "within_annulus":
            require(si == di, f"within-annulus move goes X_{si} -> X_{di}")
        else:
            require(mv["kind"] == "start" and src == dst, f"unexpected move {mv['kind']!r}")


def check_rejected(violations) -> None:
    require(len(violations) >= 1, "a mutated certificate was accepted")


def check_accepted(violations) -> None:
    require(violations == [], f"a valid certificate was rejected: {violations[:1]}")
