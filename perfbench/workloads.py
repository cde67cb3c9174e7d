"""Workloads of the puregaps benchmark: parameter pools, the seeded draw,
the generating-set files the benchmark writes, and the reference values
every op's output is checked against.

This module never imports puregaps.  Genus, period, cardinality and the
Homma-Kim bound of every point come from the benchmark's own copies of the
closed forms, so the references stay independent of the code under test.
The one reference that needs the package, the digest of the full listing
built from ``pure_gaps_direct``, is made in ``run.py``.

Each workload is a list of strata.  A stratum is a set of parameter points
of nearly the same cost: the same family, cardinality (or genus times r)
within a few percent and a similar aspect ratio, or a single fixed point.
A seed picks one point from each stratum; every round of a run then
executes each picked point once, in a freshly shuffled order.  So every
seed gives the same mix of op sizes, which keeps medians and percentiles
steady, while the points themselves differ from seed to seed.
"""

from __future__ import annotations

import random
from math import gcd, log

WORKLOADS = ("list", "crosscheck", "ingest")

#: Relative cardinality (or genus) tolerance of a stratum.
STRATUM_TOLERANCE = 0.03
#: Largest |log(m/r) - log(m0/r0)| of a Kummer point in a stratum.
STRATUM_SHAPE = 0.15


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


def gk_genus(q: int) -> int:
    return (q**3 + 1) * (q**2 - 2) // 2 + 1


def gk_card(q: int) -> int:
    num = q * (q - 1) * (10 * q**8 + 10 * q**7 - 25 * q**6 - 9 * q**5
                         + 71 * q**4 - 111 * q**3 - 86 * q**2 + 128 * q - 12)
    return num // 120


def kummer_genus(m: int, r: int) -> int:
    return (m - 1) * (r - 1) // 2


def kummer_card(m: int, r: int) -> int:
    total = 0
    for k in range(1, r - 1 - r // m):
        c1 = _ceil_div(m * k, r)
        c2 = _ceil_div(m * (k + 1), r)
        total += k * ((m - c1) ** 2 - (c2 - c1) ** 2)
    return total


def ur1_card(u: int, r: int) -> int:
    return u * u * (r - 1) * (r - 2) * r * (r + 3) // 12


def qn_card(q: int, n: int) -> int:
    m = (q + 1) // n
    num = (q + 1) * (m - 1) * ((q + 1) * (m - 1) - 2 * m + n + 7)
    return num // 12 - q * (m - 1)


def kummer_points(m: int, r: int) -> list:
    """Generating points (m*k1 + j, m*k2 + j) with
    k1 + k2 = r - 2 - floor(r*j/m)."""
    pts = []
    for j in range(1, m - m // r):
        s = r - 2 - (r * j) // m
        pts.extend((m * k1 + j, m * (s - k1) + j) for k1 in range(s + 1))
    return sorted(pts)


def gk_points(q: int) -> list:
    """Generating points of the GK family from the index triples (i, j, k)."""
    period = q**3 + 1
    c = q * q - q + 1
    pts = []
    for k in range(1, q * q):
        for i in range(max(0, k - q * q + q + 1), q + 1):
            for j in range(max(0, k - i + 1), q * q - q + 1):
                base = (q + 1 - i) * c - j
                pts.append(((k - 1) * period + base,
                            (i + j - k - 1) * period + base))
    return sorted(pts)


def gamma_text(point: dict) -> str:
    """The generating-set file of a GK or Kummer point, in the exchange
    format (``period <int>`` header, then sorted ``beta<TAB>tau`` lines)."""
    if point["family"] == "gk":
        q = point["q"]
        period, pts = q**3 + 1, gk_points(q)
    else:
        period, pts = point["m"], kummer_points(point["m"], point["r"])
    lines = [f"period {period}"]
    lines.extend(f"{a}\t{b}" for a, b in pts)
    return "\n".join(lines) + "\n"


def label(point: dict) -> str:
    params = ",".join(f"{k}={v}" for k, v in point.items()
                      if k not in ("family", "via"))
    via = point.get("via")
    return f"{via + ':' if via else ''}{point['family']}({params})"


def reference(point: dict) -> dict:
    """Genus, period, cardinality and Homma-Kim bound of a point."""
    family = point["family"]
    if family == "gk":
        q = point["q"]
        genus, period, card = gk_genus(q), q**3 + 1, gk_card(q)
    elif family == "kummer":
        m, r = point["m"], point["r"]
        genus, period, card = kummer_genus(m, r), m, kummer_card(m, r)
    elif family == "ur1":
        u, r = point["u"], point["r"]
        m = u * r + 1
        genus, period, card = kummer_genus(m, r), m, ur1_card(u, r)
    else:
        q, n = point["q"], point["N"]
        m = (q + 1) // n
        genus, period, card = kummer_genus(m, q), m, qn_card(q, n)
    return {"genus": genus, "period": period, "cardinality": card,
            "homma_kim": genus * (genus - 1) // 2}


def _fixed(**point) -> list:
    return [point]


def _kummer_stratum(m0: int, r0: int, size, via=None) -> list:
    """Coprime (m, r) near the shape of (m0, r0) whose ``size`` is within
    the stratum tolerance of the size of (m0, r0)."""
    target = size(m0, r0)
    out = []
    for m in range(int(m0 * 0.7), int(m0 * 1.4) + 1):
        for r in range(int(r0 * 0.7), int(r0 * 1.4) + 1):
            if (m >= 2 and r >= 2 and gcd(m, r) == 1
                    and abs(log(m / r) - log(m0 / r0)) <= STRATUM_SHAPE
                    and abs(size(m, r) / target - 1) <= STRATUM_TOLERANCE):
                point = {"family": "kummer", "m": m, "r": r}
                if via:
                    point["via"] = via
                out.append(point)
    return out


def _ur1_stratum(target: int) -> list:
    return [{"family": "ur1", "u": u, "r": r}
            for u in (1, 2, 3) for r in range(3, 80)
            if abs(ur1_card(u, r) / target - 1) <= 4 * STRATUM_TOLERANCE]


def _qn_stratum(target: int) -> list:
    return [{"family": "qn", "q": q, "N": n}
            for q in range(3, 200) for n in range(1, q)
            if (q + 1) % n == 0 and q - 2 - n >= 0
            and abs(qn_card(q, n) / target - 1) <= 4 * STRATUM_TOLERANCE]


def _cost_genus_r(m: int, r: int) -> int:
    # Validation walks every period shift of every point, about genus * r
    # steps; ingest strata hold that work, not the genus alone, steady.
    return kummer_genus(m, r) * r


def strata(workload: str) -> list:
    """The strata of a workload, each a non-empty list of points.

    Each workload lists seven strata, so the median op falls in the fourth
    costliest.  The costliest is a fixed point and the second costliest a
    fixed point listed twice.  A run of R rounds thus has R ops above the
    doubled point and 3R from the top of it, so for R from 4 to 10 the tail
    percentile (the eleventh costliest op) falls on the doubled point, not
    on whichever candidate a seed drew.  ``run.py`` fixes R from
    ``--seconds`` alone (ten at 30 s), whatever the program's speed, so
    the tail is always the same rank of the doubled point.
    """
    if workload == "list":
        # GK q = 4, 5 and Kummer cardinalities from 1e5 to 4.8e5 with
        # aspect ratios on both sides of 1.  GK q = 5 sets peak RSS.
        twice = _fixed(family="kummer", m=41, r=60)
        return [
            _fixed(family="gk", q=4),
            _kummer_stratum(23, 50, kummer_card),
            _kummer_stratum(60, 23, kummer_card),
            _kummer_stratum(39, 41, kummer_card),
            twice,
            twice,
            _fixed(family="gk", q=5),
        ]
    if workload == "crosscheck":
        # Every cross-check route: verify_point on GK and Kummer points,
        # both special-case sweeps, and generic --emit summary on a file.
        twice = _fixed(family="kummer", m=43, r=37, via="verify")
        return [
            _fixed(family="gk", q=4, via="verify"),
            _ur1_stratum(66990),
            _qn_stratum(56644),
            _kummer_stratum(31, 20, kummer_card, via="generic"),
            twice,
            twice,
            _fixed(family="kummer", m=50, r=41, via="verify"),
        ]
    if workload == "ingest":
        # Large-genus files of both families, from wide-and-flat Kummer
        # sets (few period shifts per point) to square ones (many).
        twice = _fixed(family="kummer", m=4501, r=30)
        return [
            _fixed(family="gk", q=8),
            _fixed(family="gk", q=9),
            _kummer_stratum(1501, 30, _cost_genus_r),
            _kummer_stratum(501, 100, _cost_genus_r),
            twice,
            twice,
            _fixed(family="kummer", m=351, r=230),
        ]
    raise ValueError(f"unknown workload {workload!r}")


#: Small point run once, untimed, before measuring (part of set-up).
WARMUP = {
    "list": {"family": "gk", "q": 2},
    "crosscheck": {"family": "gk", "q": 2, "via": "verify"},
    "ingest": {"family": "kummer", "m": 41, "r": 30},
}


def draw(workload: str, seed: int) -> list:
    """One point per stratum, chosen by the seed."""
    rng = random.Random(f"{workload}:{seed}")
    return [rng.choice(stratum) for stratum in strata(workload)]


def size(workload: str, point: dict) -> int:
    """Work unit of an op: generating points on ingest, pure gaps elsewhere."""
    ref = reference(point)
    return ref["genus"] if workload == "ingest" else ref["cardinality"]


def cli_args(point: dict) -> list:
    if point["family"] == "gk":
        return ["gk", "--q", str(point["q"])]
    return ["kummer", "--m", str(point["m"]), "--r", str(point["r"])]
