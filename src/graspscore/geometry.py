"""Low-level vector and ray/triangle routines used throughout the package.

Everything here is pure numpy on float64 arrays. Functions are batched where
the callers need batching; none of them mutate their inputs.
"""

from __future__ import annotations

import numpy as np

# Pair budget per chunk for the ray/triangle sweep over all faces of a
# one-block mesh. Keeps peak temporaries around a few tens of MB.
_PAIR_CHUNK = 1 << 19

# Candidate pairs per step of the projected broad phase: (line, block),
# (line, face) and narrow-phase (ray, face) pairs. Keeps its temporaries
# at a few MB.
_PROJECTED_CHUNK = 1 << 15

# Inclusive barycentric and ray-parameter tolerance of the narrow phase.
_BARY_EPS = 1e-12

# Faces per broad-phase block of the ray cast, and the block-box padding
# relative to the mesh extent.
_BLOCK_FACES = 64
_BOX_PAD = 1e-6


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


def _row_norms(m: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row of an (n, 3) array, bit for bit ``np.linalg.norm`` of the row."""
    n = np.sqrt(np.vecdot(m, m))
    if not n.all():
        raise ValueError("cannot normalize a zero vector")
    return n


def perpendicular_bases(axes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Two unit vectors completing a right-handed frame with each row of an (n, 3) array.

    The choice is a fixed deterministic function of the axis, so repeated
    calls agree bit for bit: ``b1`` is the unit part of x (or of y, when
    the unit axis has |x| >= 0.9) orthogonal to the axis, and ``b2`` is
    axis x ``b1``. Each row equals the scalar ``perpendicular_basis`` of
    ``tests/conftest.py``, bit for bit.
    """
    a = axes / _row_norms(axes)[:, None]
    ref = np.where((np.abs(a[:, 0]) < 0.9)[:, None], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0])
    w = ref - np.vecdot(ref, a)[:, None] * a
    b1 = w / _row_norms(w)[:, None]
    return b1, np.cross(a, b1)


def frames_from_approaches(approaches: np.ndarray, thetas: np.ndarray) -> np.ndarray:
    """(n, m, 3, 3) rotations: column z is the unit ``approaches[i]``, column x rotated by ``thetas[j]``.

    Column x (the closing axis) starts at the first :func:`perpendicular_bases`
    vector of the approach and is spun about it by theta; column y is z x x.
    Entry [i, j] equals the scalar ``frame_from_approach(approaches[i],
    thetas[j])`` of ``tests/conftest.py``, bit for bit.
    """
    z = approaches / _row_norms(approaches)[:, None]
    b1, b2 = perpendicular_bases(z)
    x = np.cos(thetas)[None, :, None] * b1[:, None, :] + np.sin(thetas)[None, :, None] * b2[:, None, :]
    z = np.broadcast_to(z[:, None, :], x.shape)
    return np.stack([x, np.cross(z, x), z], axis=-1)


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

    A hit counts when the ray parameter t lies in [0, t_max] and the
    barycentric coordinates are inside the triangle (with a small inclusive
    tolerance so edge crossings are not dropped). Among equal-t hits the
    lowest face index wins, which keeps results deterministic on shared
    edges.

    Moller-Trumbore runs only on (ray, face) pairs a broad phase keeps, and
    the results equal those of testing every face, bit for bit. Faces are
    cut into blocks of ``_BLOCK_FACES`` spatially close faces (runs of the
    Morton order of their centroids), and the broad phase depends on how
    many blocks there are:

    * One block (at most ``_BLOCK_FACES`` faces): rays whose segment
      [0, t_max] meets the block's padded bounding box are tested against
      every face.
    * More blocks: rays are grouped into lines. Rays share a line when their
      directions are equal up to sign and their origins, projected onto the
      plane normal to that direction, fall in one cell of side ``pad``
      (``_BOX_PAD`` times the mesh extent plus 1e-9); the two inward rays
      of a grasp are one line. Block, then face bounding boxes are
      projected onto the line's plane, and a line keeps a block, then a
      face, only when its point lies in the 2D box padded by three ``pad``.
      Every ray of a kept (line, face) pair then goes to Moller-Trumbore.
      A ray can only hit a face its line passes through, so the test is
      conservative: the padding covers the kernel's 1e-12 barycentric
      tolerance, the spread of a line's rays within its cell and, for
      origins within about 1e9 mesh extents of the mesh, the rounding of
      the kernel and of the projection.

    Besides per-ray and per-face arrays, each step holds at most
    ``_PAIR_CHUNK`` (one block) or ``_PROJECTED_CHUNK`` candidate pairs.
    Vertices must be finite.

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
    t_lim = np.broadcast_to(np.asarray(t_max, dtype=float), (n_rays,))
    out = np.full(n_rays, np.inf), np.full(n_rays, -1, dtype=np.int64), np.zeros(n_rays), np.zeros(n_rays)
    if len(faces) == 0 or n_rays == 0:
        return out

    v0, v1, v2 = triangle_corners(vertices, faces)
    members, box_lo, box_hi = _face_blocks(v0, v1, v2)
    if len(members) > 1:
        _projected_hits(out, origins, directions, t_lim, v0, v1, v2, members, box_lo, box_hi)
        return out
    rays = np.flatnonzero(_segments_meet_boxes(origins, directions, t_lim, box_lo, box_hi)[:, 0])
    for dest, value in zip(out, _first_hits(origins[rays], directions[rays], v0, v1, v2, t_lim[rays])):
        dest[rays] = value
    return out


def _face_boxes(v0: np.ndarray, v1: np.ndarray, v2: np.ndarray):
    """Per-face bounding boxes (lo, hi) and the broad-phase padding of the mesh."""
    lo = np.minimum(np.minimum(v0, v1), v2)
    hi = np.maximum(np.maximum(v0, v1), v2)
    pad = _BOX_PAD * (hi.max(axis=0) - lo.min(axis=0)).max() + 1e-9
    return lo, hi, pad


def _face_blocks(v0: np.ndarray, v1: np.ndarray, v2: np.ndarray):
    """Cut faces into blocks of ``_BLOCK_FACES`` by the Morton order of their centroids.

    Returns (members, box_lo, box_hi): one ascending face-index array per
    block and the (b, 3) corners of each block's bounding box, padded by
    ``_BOX_PAD`` times the mesh extent plus an absolute 1e-9.
    """
    lo, hi, pad = _face_boxes(v0, v1, v2)
    mesh_lo = lo.min(axis=0)
    extent = hi.max(axis=0) - mesh_lo
    # Morton code of the centroid on a 1024^3 grid over the mesh box.
    scale = np.divide(1023.0, extent, out=np.zeros(3), where=extent > 0.0)
    cells = np.clip(((v0 + v1 + v2) / 3.0 - mesh_lo) * scale, 0, 1023).astype(np.int64)
    code = np.zeros(len(v0), dtype=np.int64)
    for bit in range(10):
        for axis in range(3):
            code |= ((cells[:, axis] >> bit) & 1) << (3 * bit + axis)
    order = np.argsort(code, kind="stable")
    starts = np.arange(0, len(v0), _BLOCK_FACES)
    members = [np.sort(block) for block in np.split(order, starts[1:])]
    box_lo = np.minimum.reduceat(lo[order], starts, axis=0) - pad
    box_hi = np.maximum.reduceat(hi[order], starts, axis=0) + pad
    return members, box_lo, box_hi


def _segments_meet_boxes(
    origins: np.ndarray, directions: np.ndarray, t_lim: np.ndarray, box_lo: np.ndarray, box_hi: np.ndarray
) -> np.ndarray:
    """(r, b) mask: ray r's segment t in [-1e-9, t_lim + 1e-9] meets box b.

    Slab test. An axis with a zero direction component constrains nothing
    but the origin, which must lie inside that slab. Any NaN in a ray makes
    it meet no box.
    """
    near = np.full((len(origins), len(box_lo)), -1e-9)
    far = np.repeat((t_lim + 1e-9)[:, None], len(box_lo), axis=1)
    inside = np.ones(near.shape, dtype=bool)
    for axis in range(3):
        o = origins[:, axis, None]
        d = directions[:, axis, None]
        moving = d != 0.0
        step = np.where(moving, d, 1.0)
        t0 = (box_lo[:, axis] - o) / step
        t1 = (box_hi[:, axis] - o) / step
        near = np.where(moving, np.maximum(near, np.minimum(t0, t1)), near)
        far = np.where(moving, np.minimum(far, np.maximum(t0, t1)), far)
        inside &= moving | ((box_lo[:, axis] <= o) & (o <= box_hi[:, axis]))
    return inside & (near <= far)


def _lines(origins: np.ndarray, directions: np.ndarray, centre: np.ndarray, pad: float):
    """Cluster rays into lines for the projected broad phase.

    Rays are grouped by direction, ``d`` and ``-d`` together (the sign is
    chosen so the first nonzero component is positive), and each group gets
    an orthonormal basis of the plane normal to it. A line is a set of rays
    of one group whose origins, projected onto that plane relative to
    ``centre``, fall in one square cell of side ``pad``; the two inward rays
    of a grasp are one line. Rays with a non-finite origin or direction, or
    a zero direction, hit nothing and are left out.

    Returns (rays, starts, group, point, basis): live ray indices sorted by
    line, the (n + 1,) offsets of each line's rays in them, each line's
    group, the (2, n) projected origin of its first ray, and the (g, 3, 2)
    group bases. Lines are sorted by group.
    """
    scale = np.abs(directions).max(axis=1)
    live = np.flatnonzero(np.isfinite(origins).all(axis=1) & np.isfinite(scale) & (scale > 0.0))
    d = directions[live]
    lead = d[np.arange(len(d)), (d != 0.0).argmax(axis=1)]
    canon = np.where((lead < 0.0)[:, None], -d, d)
    order, new = _sorted_runs(canon)
    group = np.empty(len(live), dtype=np.int64)
    group[order] = np.cumsum(new) - 1
    uniq = canon[order[new]]
    # Scaling by the largest component first keeps tiny directions from
    # underflowing to a zero norm.
    b1, b2 = perpendicular_bases(uniq / np.abs(uniq).max(axis=1)[:, None])
    basis = np.stack([b1, b2], axis=2)
    point = np.einsum("rk,rkj->rj", origins[live] - centre, basis[group])
    # Cells are exact below 2^52 pads; a ray farther out is a line of its own.
    cell = np.floor(point / pad)
    solo = ~(np.abs(cell) < 2.0**52).all(axis=1)
    cell[solo] = 0.0
    order, new = _sorted_runs(np.column_stack([group, np.where(solo, np.arange(len(live)) + 1, 0), cell]))
    first = order[new]
    starts = np.append(np.flatnonzero(new), len(order))
    return live[order], starts, group[first], point[first].T, basis


def _sorted_runs(keys: np.ndarray):
    """Stable lexicographic order of the rows of ``keys``, and where its runs of equal rows start.

    Returns (order, new): ``keys[order]`` is sorted on the first column,
    then the second, and so on; ``new[i]`` marks row i of that order as the
    first of its run.
    """
    order = np.lexsort(keys.T[::-1])
    k = keys[order]
    new = np.ones(len(k), dtype=bool)
    new[1:] = (k[1:] != k[:-1]).any(axis=1)
    return order, new


def _projected_hits(out, origins, directions, t_lim, v0, v1, v2, members, box_lo, box_hi):
    """The projected broad phase of :func:`ray_mesh_first_hit`, merged into ``out``.

    Each line chunk tests at most ``_PROJECTED_CHUNK`` (line, block)
    pairs, each face batch at most that many (line, face) pairs, and each
    narrow-phase call at most that many (ray, face) pairs.
    """
    n_faces, n_blocks = len(v0), len(members)
    lo, hi, pad = _face_boxes(v0, v1, v2)
    # Project relative to the mesh centre, so rounding follows the distance
    # from the mesh, not from the world origin.
    centre = 0.5 * (lo.min(axis=0) + hi.max(axis=0))
    block_mid = 0.5 * (box_lo + box_hi) - centre
    block_half = 0.5 * (box_hi - box_lo)
    # Face boxes with a NaN row at index n_faces, the filler of the last block.
    face_mid = np.vstack([0.5 * (lo + hi) - centre, np.full(3, np.nan)])
    face_half = np.vstack([0.5 * (hi - lo), np.full(3, np.nan)])
    table = np.full(n_blocks * _BLOCK_FACES, n_faces)
    flat = np.concatenate(members)
    table[:len(flat)] = flat
    table = table.reshape(n_blocks, _BLOCK_FACES)
    e1 = v1 - v0
    e2 = v2 - v0
    det_floor = 1e-12 * np.linalg.norm(e1, axis=1) * np.linalg.norm(e2, axis=1)

    rays, starts, line_group, line_point, basis = _lines(origins, directions, centre, pad)
    line_point = line_point.astype(np.float32)
    # A line's rays project up to two pads from its first ray's point.
    pad_2d = 3.0 * pad
    rows = max(1, _PROJECTED_CHUNK // n_blocks)
    per_batch = max(1, _PROJECTED_CHUNK // _BLOCK_FACES)
    for start in range(0, len(line_group), rows):
        groups, local = np.unique(line_group[start:start + rows], return_inverse=True)
        bases = basis[groups]
        point = line_point[:, start:start + rows]
        blocks = _projected_boxes(block_mid, block_half, bases, pad_2d)
        pl, pb = _points_in_boxes(point, blocks[local])
        # Sort the (line, block) pairs by (group, block), so that each batch
        # projects a block's faces once per group.
        key = local[pl] * n_blocks + pb
        by_key = np.argsort(key, kind="stable")
        pl, pb, key = pl[by_key], pb[by_key], key[by_key]
        for s in range(0, len(key), per_batch):
            k = key[s:s + per_batch]
            first = np.ones(len(k), dtype=bool)
            first[1:] = k[1:] != k[:-1]
            combo = np.cumsum(first) - 1
            cells = table[pb[s:s + per_batch][first]]
            boxes = _projected_boxes(face_mid[cells], face_half[cells], bases[k[first] // n_blocks], pad_2d)
            batch = pl[s:s + per_batch]
            pj, slot = _points_in_boxes(point[:, batch], boxes[combo])
            line = start + batch[pj]
            # Every ray of a kept (line, face) pair goes to the narrow phase.
            n = starts[line + 1] - starts[line]
            ray = rays[np.repeat(starts[line] - np.cumsum(n) + n, n) + np.arange(n.sum())]
            face = np.repeat(cells[combo[pj], slot], n)
            for c in range(0, len(ray), _PROJECTED_CHUNK):
                r, f = ray[c:c + _PROJECTED_CHUNK], face[c:c + _PROJECTED_CHUNK]
                t, u, v = _pair_hits(origins[r], directions[r], v0[f], e1[f], e2[f], det_floor[f], t_lim[r])
                _merge_hits(out, r, f, t, u, v)


def _projected_boxes(mid: np.ndarray, half: np.ndarray, bases: np.ndarray, pad: float) -> np.ndarray:
    """Padded 2D boxes of 3D boxes projected onto planes.

    ``mid`` and ``half`` are the centres and half-extents of n boxes, either
    (n, 3) shared by all g planes or (g, n, 3); ``bases`` is (g, 3, 2).
    Returns (g, 4, n) float32 rows lo_x, hi_x, lo_y, hi_y. Rounding to
    float32 is monotone, so a point inside a box stays inside once both are
    rounded.
    """
    c = np.matmul(mid, bases)
    h = np.matmul(half, np.abs(bases)) + pad
    boxes = np.stack([c - h, c + h], axis=-1).transpose(0, 2, 3, 1)
    return boxes.reshape(len(boxes), 4, -1).astype(np.float32)


def _points_in_boxes(point: np.ndarray, boxes: np.ndarray):
    """Index pairs (i, j) where 2D point ``point[:, i]`` lies in box ``boxes[i, :, j]``, bounds included."""
    x, y = point[0][:, None], point[1][:, None]
    inside = (boxes[:, 0] <= x) & (x <= boxes[:, 1]) & (boxes[:, 2] <= y) & (y <= boxes[:, 3])
    return np.divmod(np.flatnonzero(inside), boxes.shape[2])


def _pair_hits(o, d, v0, e1, e2, det_floor, t_lim):
    """Moller-Trumbore on matched (ray, face) rows, one pair per row.

    The arithmetic of :func:`_first_hits`, with ``np.einsum`` dot products
    that equal its broadcast ones bit for bit. Returns (t, u, v); t is inf
    where the pair does not hit.
    """
    h = np.cross(d, e2)
    a = np.einsum("pk,pk->p", h, e1)
    ok = np.abs(a) > det_floor
    inv_a = np.where(ok, 1.0 / np.where(ok, a, 1.0), 0.0)
    s = o - v0
    u = np.einsum("pk,pk->p", s, h) * inv_a
    ok &= (u >= -_BARY_EPS) & (u <= 1.0 + _BARY_EPS)
    q = np.cross(s, e1)
    v = np.einsum("pk,pk->p", q, d) * inv_a
    ok &= (v >= -_BARY_EPS) & (u + v <= 1.0 + _BARY_EPS)
    t = np.einsum("pk,pk->p", q, e2) * inv_a
    ok &= (t >= -_BARY_EPS) & (t <= t_lim + _BARY_EPS)
    return np.where(ok, t, np.inf), u, v


def _merge_hits(out, ray, face, t, u, v):
    """Keep, per ray, the lowest (t, face index) of ``out`` and the given hits.

    This is the tie rule of a scan over all faces: the lowest t, then the
    lowest face index. A pair with t = inf is a miss and never wins.
    """
    t_out, face_out, u_out, v_out = out
    hit = np.isfinite(t)
    order = np.lexsort((face[hit], t[hit], ray[hit]))
    ray, face, t, u, v = (a[hit][order] for a in (ray, face, t, u, v))
    first = np.ones(len(ray), dtype=bool)
    first[1:] = ray[1:] != ray[:-1]
    ray, face, t, u, v = (a[first] for a in (ray, face, t, u, v))
    cur_t = t_out[ray]
    take = (t < cur_t) | ((t == cur_t) & (face < face_out[ray]))
    idx = ray[take]
    t_out[idx] = t[take]
    face_out[idx] = face[take]
    u_out[idx] = u[take]
    v_out[idx] = v[take]


def _first_hits(
    origins: np.ndarray, directions: np.ndarray, v0: np.ndarray, v1: np.ndarray, v2: np.ndarray, t_lim: np.ndarray
):
    """Moller-Trumbore of every ray against every triangle, in chunks.

    The narrow phase of :func:`ray_mesh_first_hit`, with the same
    arguments and results; face indices index the given corner arrays.
    """
    n_rays = origins.shape[0]
    e1 = v1 - v0
    e2 = v2 - v0
    # Parallel-ray rejection threshold, relative to the edge scale per face.
    det_floor = 1e-12 * np.linalg.norm(e1, axis=1) * np.linalg.norm(e2, axis=1)

    t_out = np.full(n_rays, np.inf)
    face_out = np.full(n_rays, -1, dtype=np.int64)
    u_out = np.zeros(n_rays)
    v_out = np.zeros(n_rays)
    rows = max(1, _PAIR_CHUNK // len(v0))

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
        ok &= (u >= -_BARY_EPS) & (u <= 1.0 + _BARY_EPS)
        q = np.cross(s, e1[None, :, :])
        v = np.einsum("rfk,rk->rf", q, directions[sl]) * inv_a
        ok &= (v >= -_BARY_EPS) & (u + v <= 1.0 + _BARY_EPS)
        t = np.einsum("rfk,fk->rf", q, e2) * inv_a
        ok &= (t >= -_BARY_EPS) & (t <= t_lim[sl][:, None] + _BARY_EPS)
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

