"""Embedding geometric data into the three algebras and reading it back.

Points:

* Euclidean algebra: a position is only meaningful relative to a caller
  supplied center, embedded as the grade-1 vector p - center.
* Projective algebra: the homogeneous trivector
  x1 e032 + x2 e013 + x3 e021 + e123, stored on canonical blades as
  (-x1) e023 + x2 e013 + (-x3) e012 + e123.
* Conformal algebra: the null vector o + p + |p|^2 inf / 2.

Planes with unit normal n and offset delta (the set n . x = delta):

* projective: n - delta e0
* conformal:  n + delta inf

Both plane vectors have inner product n . p - delta with the embedded
point p, so their odd sandwich realizes the Householder reflection
p - 2 (n . p - delta) n.

Plane embeddings are unit vectors, so they act as reflections through the
odd sandwich.  Extraction normalizes homogeneous representatives and raises
PointAtInfinityError when the normalizer underflows.
"""

import numpy as np

from gaeq.algebra import get_algebra, inner

__all__ = [
    "PointAtInfinityError",
    "embed_point_ega",
    "embed_point_pga",
    "embed_point_cga",
    "extract_point",
    "embed_plane_pga",
    "embed_plane_cga",
    "pga_point_to_cga_point",
    "load_points",
]


class PointAtInfinityError(ValueError):
    """Raised when a homogeneous point has no finite representative."""


def _check_point(p):
    p = np.asarray(p, dtype=float)
    if p.ndim == 0 or p.shape[-1] != 3:
        raise ValueError(f"expected 3-vectors on the last axis, got shape {p.shape}")
    return p


def _check_unit_normal(n):
    n = np.asarray(n, dtype=float)
    if n.shape != (3,):
        raise ValueError(f"expected a 3-vector normal, got shape {n.shape}")
    if abs(np.linalg.norm(n) - 1.0) > 1e-9:
        raise ValueError("plane normal must have unit length")
    return n


def embed_point_ega(p, center):
    """Translation-gauged Euclidean embedding: the 1-vector p - center.

    p and center broadcast over their leading axes.
    """
    rel = _check_point(p) - _check_point(center)
    out = np.zeros(rel.shape[:-1] + (get_algebra("ega").size,))
    out[..., [1, 2, 4]] = rel
    return out


def embed_point_pga(p):
    """Projective trivector for a finite point, e123 coefficient one.

    Points broadcast over their leading axes, here and in embed_point_cga.
    """
    p = _check_point(p)
    alg = get_algebra("pga")
    out = np.zeros(p.shape[:-1] + (alg.size,))
    # x1 e032 + x2 e013 + x3 e021 + e123 on canonical ascending blades
    out[..., alg.blade_index("e023")] = -p[..., 0]
    out[..., alg.blade_index("e013")] = p[..., 1]
    out[..., alg.blade_index("e012")] = -p[..., 2]
    out[..., alg.blade_index("e123")] = 1.0
    return out


def embed_point_cga(p):
    """Conformal null 1-vector o + p + |p|^2 inf / 2.

    Raises ValueError at the first point whose |p|^2 is not finite (it
    overflows from about 1e154 on), naming its token.
    """
    p = _check_point(p)
    alg = get_algebra("cga")
    # a stacked (1, 3) @ (3, 1) product rounds as the single-point p @ p;
    # an overflow raises below, naming the point, instead of warning here
    with np.errstate(over="ignore"):
        sq = (p[..., None, :] @ p[..., :, None])[..., 0]
    if not np.isfinite(sq).all():
        where = _first_token(~np.isfinite(sq[..., 0]))
        where = f" at {where}" if where else ""
        raise ValueError(f"|p|^2 of a point is not finite{where}: too large for the conformal embedding")
    out = alg.origin + 0.5 * sq * alg.infinity
    out[..., [1, 2, 4]] += p
    return out


def _first_token(bad):
    """'token i' (or 'token (i, j)') naming the first true entry of a mask
    over points, '' for a single point."""
    if not bad.ndim:
        return ""
    first = tuple(int(i) for i in np.argwhere(bad)[0])
    return f"token {first[0] if len(first) == 1 else first}"


def _normalize(coords, w, m, what):
    """coords / w, raising at the first point whose weight w underflows.

    The floor is relative to each point's largest coefficient in m.
    """
    floor = 1e-12 * np.maximum(np.abs(m).max(axis=-1), 1e-300)
    bad = np.abs(w) < floor
    if np.any(bad):
        where = _first_token(bad)
        raise PointAtInfinityError(f"{where}: {what}" if where else what)
    return coords / w[..., None]


def extract_point(m, algebra_name):
    """Read a point back out of its multivector representation.

    The projective and conformal representations are homogeneous, so m is
    first normalized (trivector e123 coefficient, respectively the origin
    coefficient, set to one).  For the Euclidean algebra the grade-1
    coefficients are returned as is; they are relative to whatever center
    was used at embedding time.  m may carry leading axes; a point at
    infinity among them is reported by the index of the first one.
    """
    m = np.asarray(m, dtype=float)
    alg = get_algebra(algebra_name)
    if algebra_name == "ega":
        return m[..., [1, 2, 4]]
    if algebra_name == "pga":
        coords = np.stack(
            [
                -m[..., alg.blade_index("e023")],
                m[..., alg.blade_index("e013")],
                -m[..., alg.blade_index("e012")],
            ],
            axis=-1,
        )
        w = m[..., alg.blade_index("e123")]
        return _normalize(coords, w, m, "projective point has vanishing e123 part")
    w = -inner(alg, m, alg.infinity)
    return _normalize(m[..., [1, 2, 4]], w, m, "conformal point has vanishing origin part")


def embed_plane_pga(n, delta):
    """Projective plane vector n - delta e0 for the plane n . x = delta."""
    n = _check_unit_normal(n)
    alg = get_algebra("pga")
    out = np.zeros(alg.size)
    out[alg.blade_index("e0")] = -float(delta)
    out[[2, 4, 8]] = n
    return out


def embed_plane_cga(n, delta):
    """Conformal plane vector n + delta inf for the plane n . x = delta."""
    n = _check_unit_normal(n)
    alg = get_algebra("cga")
    out = float(delta) * alg.infinity
    out[[1, 2, 4]] += n
    return out


def pga_point_to_cga_point(m):
    """Map a projective point to the conformal null vector of the same point.

    The projective representative is normalized first, so any nonzero scalar
    multiple of a finite point maps to the same conformal point.
    """
    return embed_point_cga(extract_point(m, "pga"))


def load_points(path):
    """Read a point set from a CSV or JSON file into an (n, 3) array.

    CSV files carry one x,y,z row per point; a leading non-numeric row is
    treated as a header and skipped.  JSON files carry an array of
    three-element arrays.  The format is picked by the .json suffix.
    """
    import csv
    import json
    import os

    is_json = os.path.splitext(path)[1].lower() == ".json"
    if is_json:
        with open(path) as fh:
            data = json.load(fh)
        if not isinstance(data, list):
            raise ValueError(f"{path}: expected a JSON array of point rows")
        numbered = [(n, row if isinstance(row, list) else [row]) for n, row in enumerate(data, 1)]
    else:
        with open(path, newline="") as fh:
            numbered = [(n, row) for n, row in enumerate(csv.reader(fh), 1) if row]
    # rows are checked one by one so that an error names the row, where numpy
    # would only report an inhomogeneous shape
    rows = []
    for n, row in numbered:
        try:
            values = [float(v) for v in row]
        except (TypeError, ValueError):
            if n == 1 and not is_json:
                continue  # a CSV header row
            raise ValueError(f"{path}: bad row {n}: {row!r}")
        if len(values) != 3:
            raise ValueError(f"{path}: expected n x 3 point rows, row {n} has {len(values)} values")
        rows.append(values)
    if not rows:
        raise ValueError(f"{path}: expected n x 3 point rows, got none")
    pts = np.asarray(rows)
    if not np.isfinite(pts).all():
        raise ValueError(f"{path}: points must be finite")
    return pts
