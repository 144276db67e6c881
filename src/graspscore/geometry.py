"""Low-level vector and ray/triangle routines used throughout the package.

Everything here is pure numpy on float64 arrays. Functions are batched where
the callers need batching; none of them mutate their inputs.
"""

from __future__ import annotations

import numpy as np

# Pair budget per chunk for the ray/triangle sweep. Keeps peak temporaries
# around a few tens of MB.
_PAIR_CHUNK = 1 << 19


def unit(v: np.ndarray) -> np.ndarray:
    """Return v scaled to unit length."""
    n = np.linalg.norm(v)
    if n == 0.0:
        raise ValueError("cannot normalize a zero vector")
    return v / n


def unit_rows(m: np.ndarray) -> np.ndarray:
    """Normalize each row of an (n, 3) array, leaving zero rows at zero."""
    n = np.linalg.norm(m, axis=1, keepdims=True)
    out = np.zeros_like(m)
    np.divide(m, n, out=out, where=n > 0.0)
    return out


def rotation_about_axis(axis: np.ndarray, angle: float) -> np.ndarray:
    """Rodrigues rotation matrix for a unit axis and an angle in radians."""
    x, y, z = unit(np.asarray(axis, dtype=float))
    c, s = np.cos(angle), np.sin(angle)
    cc = 1.0 - c
    return np.array(
        [
            [c + x * x * cc, x * y * cc - z * s, x * z * cc + y * s],
            [y * x * cc + z * s, c + y * y * cc, y * z * cc - x * s],
            [z * x * cc - y * s, z * y * cc + x * s, c + z * z * cc],
        ]
    )


def perpendicular_basis(axis: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Two unit vectors completing a right-handed frame with the given axis.

    The choice is a fixed deterministic function of the axis so repeated
    calls agree bit-for-bit.
    """
    a = unit(np.asarray(axis, dtype=float))
    ref = np.array([1.0, 0.0, 0.0]) if abs(a[0]) < 0.9 else np.array([0.0, 1.0, 0.0])
    b1 = unit(ref - np.dot(ref, a) * a)
    b2 = np.cross(a, b1)
    return b1, b2


def frame_from_approach(approach: np.ndarray, theta: float) -> np.ndarray:
    """Rotation matrix with column z = approach and column x rotated by theta.

    Column x (the closing axis) starts at a deterministic perpendicular of
    the approach axis and is spun about it by theta.
    """
    z = unit(np.asarray(approach, dtype=float))
    b1, b2 = perpendicular_basis(z)
    x = np.cos(theta) * b1 + np.sin(theta) * b2
    y = np.cross(z, x)
    return np.column_stack([x, y, z])


def transform_points(points: np.ndarray, rotation: np.ndarray, translation: np.ndarray) -> np.ndarray:
    return points @ rotation.T + translation


def triangle_corners(vertices: np.ndarray, faces: np.ndarray):
    """The three (f, 3) corner arrays of an indexed triangle set."""
    return vertices[faces[:, 0]], vertices[faces[:, 1]], vertices[faces[:, 2]]


def ray_mesh_first_hit(
    origins: np.ndarray,
    directions: np.ndarray,
    vertices: np.ndarray,
    faces: np.ndarray,
    t_max: np.ndarray | float = np.inf,
):
    """First intersection of each ray with an indexed triangle mesh.

    Runs Moller-Trumbore over every (ray, face) pair in chunks. A hit counts
    when the ray parameter t lies in [0, t_max] and the barycentric
    coordinates are inside the triangle (with a small inclusive tolerance so
    edge crossings are not dropped). Among equal-t hits the lowest face index
    wins, which keeps results deterministic on shared edges.

    Args:
        origins: (r, 3) ray start points.
        directions: (r, 3) ray directions, need not be unit length.
        vertices, faces: mesh arrays.
        t_max: scalar or (r,) upper bound on the ray parameter.

    Returns:
        Tuple (t, face_index, bary_u, bary_v), each (r,). Misses hold
        t = inf and face_index = -1.
    """
    origins = np.asarray(origins, dtype=float)
    directions = np.asarray(directions, dtype=float)
    n_rays = origins.shape[0]
    v0, v1, v2 = triangle_corners(vertices, faces)
    e1 = v1 - v0
    e2 = v2 - v0
    # Parallel-ray rejection threshold, relative to the edge scale per face.
    det_floor = 1e-12 * np.linalg.norm(e1, axis=1) * np.linalg.norm(e2, axis=1)

    t_out = np.full(n_rays, np.inf)
    face_out = np.full(n_rays, -1, dtype=np.int64)
    u_out = np.zeros(n_rays)
    v_out = np.zeros(n_rays)
    t_lim = np.broadcast_to(np.asarray(t_max, dtype=float), (n_rays,))

    n_faces = len(faces)
    if n_faces == 0 or n_rays == 0:
        return t_out, face_out, u_out, v_out
    rows = max(1, _PAIR_CHUNK // n_faces)
    bary_eps = 1e-12

    for start in range(0, n_rays, rows):
        sl = slice(start, min(start + rows, n_rays))
        o = origins[sl][:, None, :]
        d = directions[sl][:, None, :]
        h = np.cross(d, e2[None, :, :])
        a = np.einsum("rfk,fk->rf", h, e1)
        ok = np.abs(a) > det_floor[None, :]
        inv_a = np.where(ok, 1.0 / np.where(ok, a, 1.0), 0.0)
        s = o - v0[None, :, :]
        u = np.einsum("rfk,rfk->rf", s, h) * inv_a
        ok &= (u >= -bary_eps) & (u <= 1.0 + bary_eps)
        q = np.cross(s, e1[None, :, :])
        v = np.einsum("rfk,rk->rf", q, directions[sl]) * inv_a
        ok &= (v >= -bary_eps) & (u + v <= 1.0 + bary_eps)
        t = np.einsum("rfk,fk->rf", q, e2) * inv_a
        ok &= (t >= -bary_eps) & (t <= t_lim[sl][:, None] + bary_eps)
        t = np.where(ok, t, np.inf)
        best = np.argmin(t, axis=1)
        rr = np.arange(t.shape[0])
        best_t = t[rr, best]
        hit = np.isfinite(best_t)
        idx = np.flatnonzero(hit) + start
        t_out[idx] = best_t[hit]
        face_out[idx] = best[hit]
        u_out[idx] = u[rr, best][hit]
        v_out[idx] = v[rr, best][hit]
    return t_out, face_out, u_out, v_out


def closest_point_on_triangles(point: np.ndarray, v0: np.ndarray, v1: np.ndarray, v2: np.ndarray):
    """Closest point to `point` on each triangle of a batch.

    Vectorized region-by-region closest-point construction. Returns
    ((f, 3) closest points, (f, 3) barycentric coordinates).
    """
    p = np.asarray(point, dtype=float)
    ab = v1 - v0
    ac = v2 - v0
    ap = p - v0

    d1 = np.einsum("ij,ij->i", ab, ap)
    d2 = np.einsum("ij,ij->i", ac, ap)
    bp = p - v1
    d3 = np.einsum("ij,ij->i", ab, bp)
    d4 = np.einsum("ij,ij->i", ac, bp)
    cp = p - v2
    d5 = np.einsum("ij,ij->i", ab, cp)
    d6 = np.einsum("ij,ij->i", ac, cp)

    n = len(v0)
    bary = np.zeros((n, 3))
    done = np.zeros(n, dtype=bool)

    # Vertex regions.
    m = (d1 <= 0) & (d2 <= 0)
    bary[m] = [1.0, 0.0, 0.0]
    done |= m
    m = (~done) & (d3 >= 0) & (d4 <= d3)
    bary[m] = [0.0, 1.0, 0.0]
    done |= m
    m = (~done) & (d6 >= 0) & (d5 <= d6)
    bary[m] = [0.0, 0.0, 1.0]
    done |= m

    # Edge AB.
    vc = d1 * d4 - d3 * d2
    m = (~done) & (vc <= 0) & (d1 >= 0) & (d3 <= 0)
    denom = np.where(d1 - d3 != 0, d1 - d3, 1.0)
    w = d1 / denom
    bary[m, 0] = 1.0 - w[m]
    bary[m, 1] = w[m]
    done |= m

    # Edge AC.
    vb = d5 * d2 - d1 * d6
    m = (~done) & (vb <= 0) & (d2 >= 0) & (d6 <= 0)
    denom = np.where(d2 - d6 != 0, d2 - d6, 1.0)
    w = d2 / denom
    bary[m, 0] = 1.0 - w[m]
    bary[m, 2] = w[m]
    done |= m

    # Edge BC.
    va = d3 * d6 - d5 * d4
    m = (~done) & (va <= 0) & (d4 - d3 >= 0) & (d5 - d6 >= 0)
    denom = (d4 - d3) + (d5 - d6)
    denom = np.where(denom != 0, denom, 1.0)
    w = (d4 - d3) / denom
    bary[m, 1] = 1.0 - w[m]
    bary[m, 2] = w[m]
    done |= m

    # Interior.
    m = ~done
    denom = np.where(va + vb + vc != 0, va + vb + vc, 1.0)
    v = vb / denom
    w = vc / denom
    bary[m, 0] = 1.0 - v[m] - w[m]
    bary[m, 1] = v[m]
    bary[m, 2] = w[m]

    points = bary[:, 0:1] * v0 + bary[:, 1:2] * v1 + bary[:, 2:3] * v2
    return points, bary
