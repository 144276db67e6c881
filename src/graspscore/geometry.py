"""Low-level vector and ray/triangle routines used throughout the package.

Everything here is pure numpy on float64 arrays. Functions are batched where
the callers need batching; none of them mutate their inputs.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

# Box tests and candidate pairs per step of the ray cast: (line, node) box
# tests and narrow-phase (ray, face) pairs. Keeps its temporaries at a few MB.
_PROJECTED_CHUNK = 1 << 15

# Inclusive barycentric and ray-parameter tolerance of the narrow phase.
_BARY_EPS = 1e-12

# Children per node of the ray cast's box tree, the most nodes its top
# level holds, and the box padding relative to the mesh extent.
_TREE_FANOUT = 8
_TREE_TOP = 80
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
    the results equal those of testing every face, bit for bit. The broad
    phase is the same for every mesh:

    * Rays are grouped into lines. Rays share a line when their directions
      are equal up to sign and their origins, projected onto the plane
      normal to that direction, fall in one cell of side ``pad``
      (``_BOX_PAD`` times the mesh extent plus 1e-9); the two inward rays
      of a grasp are one line.
    * Faces are the leaves of a box tree (:func:`_box_tree`): in the Morton
      order of their centroids, each level puts ``_TREE_FANOUT``
      consecutive nodes under one box, padded by ``pad`` beyond their
      boxes, up to a top level of at most ``_TREE_TOP`` nodes.
    * Every line starts at the tree's root, whose children are the top
      level (:func:`_descend`). Each kept (line, node) pair tests the
      node's children, whose boxes are projected once per (direction
      group, node), down to the faces. A line keeps a node when its point
      lies in the node's 2D box padded by three ``pad``.
    * A kept (line, face) pair then takes the exact leaf test
      (:func:`_near_triangles`): the line's float64 point must lie in the
      face's triangle, projected onto the line's plane, with each edge
      moved out by three ``pad``. Every ray of a pair that passes goes to
      Moller-Trumbore.

    A ray can only hit a face its line passes through, so the leaf test is
    conservative. A ray the kernel hits crosses the face's plane inside the
    triangle grown by the kernel's 1e-12 barycentric tolerance: projected
    along the ray, within 2e-12 times the projected triangle's largest
    height (under twice the mesh extent, so under 4e-6 ``pad``) of it.
    The ray's projected origin lies in its line's cell, within sqrt(2)
    ``pad`` of the line's point. Measured across the ray, the kernel's
    rounding is a few ulps of the distance from the origin to the face,
    whatever the angle between them, and the projections round by a few
    ulps of the origin's and the corners' distances from the mesh centre:
    under half a ``pad`` for origins within about 1e9 mesh extents of the
    mesh. The sum stays under three ``pad``. The margin is taken across
    each edge's line, so a face seen edge-on, whose projection is a
    segment, keeps the lines within three ``pad`` of it. The box levels
    are conservative too: a face's projected box, padded by three ``pad``,
    holds every point within three ``pad`` of its projected triangle; a
    node's 3D box holds its children's boxes with ``pad`` to spare, far
    more than the rounding of a projection; and parent and child get the
    same 2D padding and the same monotone rounding to float32. So a line
    whose ray can hit a face keeps the face's box and every node above it.

    Besides per-ray, per-line and per-face arrays, each step holds at most
    about ``_PROJECTED_CHUNK`` box tests or candidate pairs. Vertices must
    be finite.

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
    lo = np.minimum(np.minimum(v0, v1), v2)
    hi = np.maximum(np.maximum(v0, v1), v2)
    pad = _BOX_PAD * (hi.max(axis=0) - lo.min(axis=0)).max() + 1e-9
    # Project relative to the mesh centre, so rounding follows the distance
    # from the mesh, not from the world origin.
    centre = 0.5 * (lo.min(axis=0) + hi.max(axis=0))
    leaf_faces, tree = _box_tree((v0 + v1 + v2) / 3.0 - centre, lo - centre, hi - centre, pad)
    # Leaf j's corners, relative to the centre, as column j of a (corner, coordinate, leaf) array.
    corners = np.stack([v0, v1, v2])[:, leaf_faces].transpose(0, 2, 1) - centre[:, None]
    e1 = v1 - v0
    e2 = v2 - v0
    det_floor = 1e-12 * np.linalg.norm(e1, axis=1) * np.linalg.norm(e2, axis=1)

    rays, starts, line_group, line_point, axes_t = _lines(origins, directions, centre, pad)
    axes = np.ascontiguousarray(axes_t.transpose(2, 0, 1))
    # A line's rays project up to two pads from its first ray's point (inf past float32: no box).
    with np.errstate(over="ignore"):
        planes = _Planes(axes, np.abs(axes), line_group, line_point.astype(np.float32), 3.0 * pad)
    lines = np.arange(len(line_group))
    for line, leaf in _descend(tree, len(tree), lines, np.zeros_like(lines), planes):
        keep = _near_triangles(np.take(corners, leaf, axis=2), np.take(axes_t, line_group[line], axis=2),
                               np.take(line_point, line, axis=1), planes.pad)
        line, leaf = line[keep], leaf[keep]
        # Every ray of a kept (line, face) pair goes to the narrow phase.
        n = starts[line + 1] - starts[line]
        ray = rays[np.repeat(starts[line] - np.cumsum(n) + n, n) + np.arange(n.sum())]
        face = np.repeat(leaf_faces[leaf], n)
        for c in range(0, len(ray), _PROJECTED_CHUNK):
            r, f = ray[c:c + _PROJECTED_CHUNK], face[c:c + _PROJECTED_CHUNK]
            # np.take gathers rows several times faster than indexing.
            ray_rows = (np.take(a, r, axis=0) for a in (origins, directions))
            face_rows = (np.take(a, f, axis=0) for a in (v0, e1, e2, det_floor))
            t, u, v = _pair_hits(*ray_rows, *face_rows, np.take(t_lim, r))
            _merge_hits(out, r, f, t, u, v)
    return out


def _box_tree(centroids: np.ndarray, lo: np.ndarray, hi: np.ndarray, pad: float):
    """The broad-phase box tree of a triangle set.

    ``centroids``, ``lo`` and ``hi`` are the (f, 3) face centroids and face
    box corners, in one frame. The leaves are the faces in the Morton order
    of their centroids (10 bits per axis over the mesh box). Each level
    above puts ``_TREE_FANOUT`` consecutive nodes of the level below under
    one box: their bounding box padded by ``pad`` on every side. The first
    level of at most ``_TREE_TOP`` nodes is the top, and its nodes are the
    children of one root, node 0.

    Returns (leaf_faces, tree): the face index of each leaf, and per level,
    leaves first, the (mid, half) centres and half-extents of its boxes,
    each (m, 3, ``_TREE_FANOUT``): node j's box is column j % fanout of
    entry j // fanout, so the boxes of node j's children are entry j of the
    level below. The top level is one (1, 3, n) entry, the root's children:
    node j's box is its column j. Columns past a level's last node hold
    NaN, which no point lies inside.
    """
    mesh_lo = lo.min(axis=0)
    extent = hi.max(axis=0) - mesh_lo
    # Morton code of the centroid on a 1024^3 grid over the mesh box.
    scale = np.divide(1023.0, extent, out=np.zeros(3), where=extent > 0.0)
    cells = np.clip((centroids - mesh_lo) * scale, 0, 1023).astype(np.int64)
    code = np.zeros(len(centroids), dtype=np.int64)
    for bit in range(10):
        for axis in range(3):
            code |= ((cells[:, axis] >> bit) & 1) << (3 * bit + axis)
    leaf_faces = np.argsort(code, kind="stable")
    lo, hi = lo[leaf_faces], hi[leaf_faces]
    tree = []
    while True:
        filler = np.full((-len(lo) % _TREE_FANOUT, 3), np.nan)
        mid, half = (np.vstack([b, filler]).reshape(-1, _TREE_FANOUT, 3).transpose(0, 2, 1).copy()
                     for b in (0.5 * (lo + hi), 0.5 * (hi - lo)))
        if len(lo) <= _TREE_TOP:
            tree.append(tuple(b.transpose(1, 0, 2).reshape(1, 3, -1) for b in (mid, half)))
            return leaf_faces, tree
        tree.append((mid, half))
        starts = np.arange(0, len(lo), _TREE_FANOUT)
        lo = np.minimum.reduceat(lo, starts, axis=0) - pad
        hi = np.maximum.reduceat(hi, starts, axis=0) + pad


def _lines(origins: np.ndarray, directions: np.ndarray, centre: np.ndarray, pad: float):
    """Cluster rays into lines for the projected broad phase.

    Rays are grouped by direction, ``d`` and ``-d`` together (the sign is
    chosen so the first nonzero component is positive), and each group gets
    an orthonormal basis of the plane normal to it. A line is a set of rays
    of one group whose origins, projected onto that plane relative to
    ``centre``, fall in one square cell of side ``pad``; the two inward rays
    of a grasp are one line. Rays with a non-finite origin or direction, or
    a zero direction, hit nothing and are left out. Grouping is by hashed
    keys (:func:`_runs`), so equal directions or cells may now and then form
    two groups or lines, but rays that differ never share one.

    Returns (rays, starts, group, point, axes): live ray indices sorted by
    line, the (n + 1,) offsets of each line's rays in them, each line's
    group, the (2, n) projected origin of its first ray, and the (2, 3, g)
    group bases: column g of ``axes[j]`` is unit axis j of group g. Lines
    are sorted by group.
    """
    # Coordinates as (3, n) rows: numpy reduces along rows of three slowly.
    o, d = origins.T, directions.T
    scale = np.maximum(np.maximum(np.abs(d[0]), np.abs(d[1])), np.abs(d[2]))
    live = np.flatnonzero(np.isfinite(o[0]) & np.isfinite(o[1]) & np.isfinite(o[2])
                          & np.isfinite(scale) & (scale > 0.0))
    d = np.take(directions, live, axis=0).T
    lead = np.where(d[0] != 0.0, d[0], np.where(d[1] != 0.0, d[1], d[2]))
    canon = d * np.where(lead < 0.0, -1.0, 1.0)
    # Adding 0.0 turns -0.0 into 0.0, so d and -d get the same bits.
    canon += 0.0
    order, new = _runs(canon.view(np.uint64), np.zeros(len(live), dtype=np.int64))
    group = np.empty(len(live), dtype=np.int64)
    group[order] = np.cumsum(new) - 1
    uniq = canon[:, order[new]].T
    # Scaling by the largest component first keeps tiny directions from
    # underflowing to a zero norm.
    bases = perpendicular_bases(uniq / np.abs(uniq).max(axis=1)[:, None])
    axes = np.ascontiguousarray(np.stack(bases).transpose(0, 2, 1))
    ray_axes = np.take(axes, group, axis=2)
    # Cells are exact below 2^52 pads; a ray farther out, even past overflow, is a line of its own.
    with np.errstate(over="ignore", invalid="ignore"):
        o = np.take(origins, live, axis=0).T - centre[:, None]
        point = ray_axes[:, 0] * o[0] + ray_axes[:, 1] * o[1] + ray_axes[:, 2] * o[2]
        cell = np.floor(point / pad)
    solo = ~(np.abs(cell[0]) < 2.0**52) | ~(np.abs(cell[1]) < 2.0**52)
    cell[:, solo] = 0.0
    order, new = _runs(cell.astype(np.int64).view(np.uint64), group)
    # A solo ray's cell reads (0, 0), so it and the ray after it start lines.
    solo = solo[order]
    new |= solo
    new[1:] |= solo[:-1]
    first = order[new]
    starts = np.append(np.flatnonzero(new), len(order))
    return live[order], starts, group[first], point[:, first], axes


# Odd multiplier of the row hash (the 64-bit golden ratio).
_HASH_MUL = np.uint64(0x9E3779B97F4A7C15)


def _runs(words: np.ndarray, high: np.ndarray):
    """An order of n rows in which equal rows of one ``high`` value are runs.

    ``words`` is (k, n) uint64, row j of it holding word j of every row,
    and ``high`` (n,) nonnegative int64. Each row gets one uint64 key:
    ``high`` in the top bits and a multiplicative hash of its words below
    them. One argsort of the keys sorts the rows by ``high``, and equal
    rows of one ``high`` get equal keys. ``new[i]`` marks row i of the
    order as the first of its run: its key or a word differs from the row
    before. So a hash collision can split a run of equal rows, but rows
    that differ never share one.

    Returns (order, new).
    """
    top = max(1, int(high.max(initial=0)).bit_length())
    h = np.zeros(len(high), dtype=np.uint64)
    for word in words:
        h ^= word
        h *= _HASH_MUL
    key = (high.astype(np.uint64) << np.uint64(64 - top)) | (h >> np.uint64(top))
    order = np.argsort(key)
    new = np.zeros(len(order), dtype=bool)
    new[:1] = True
    for row in (key, *words):
        sorted_row = row[order]
        new[1:] |= sorted_row[1:] != sorted_row[:-1]
    return order, new


class _Planes(NamedTuple):
    """The lines of one ray cast, as :func:`_lines` gives them, ready for box tests.

    ``axes[g]`` is (2, 3): the two axes of group g's plane as rows, and
    ``spans`` their absolute values, which project half-extents. ``group``
    and ``point`` are each line's group and float32 (2, n) projected
    point, and ``pad`` the 2D padding of every projected box.
    """

    axes: np.ndarray
    spans: np.ndarray
    group: np.ndarray
    point: np.ndarray
    pad: float


def _descend(tree, level, lines, nodes, planes: _Planes):
    """Kept (line, leaf) pairs below the kept (line, node) pairs at ``level``.

    The pairs of one node must be adjacent, with their lines ascending, as
    :func:`_points_in_boxes` leaves them. Level ``len(tree)`` is the root
    alone, so a cast starts with every line paired with node 0. Pairs go
    down one level at a time, ``_PROJECTED_CHUNK`` // (children per node)
    of them per step, so each step tests at most ``_PROJECTED_CHUNK``
    children. Yields (lines, leaves) arrays, usually once.
    """
    if level == 0:
        yield lines, nodes
        return
    mid, half = tree[level - 1]
    step = max(1, _PROJECTED_CHUNK // mid.shape[-1])
    for s in range(0, len(lines), step):
        line, node = lines[s:s + step], nodes[s:s + step]
        group = planes.group[line]
        # Lines are sorted by group, so the pairs of one (node, group) are
        # adjacent too: project their children once.
        new = np.ones(len(line), dtype=bool)
        new[1:] = (node[1:] != node[:-1]) | (group[1:] != group[:-1])
        combo = np.cumsum(new) - 1
        parents = node[new]
        children = (np.take(a, parents, axis=0) for a in (mid, half))
        boxes = _projected_boxes(*children, planes, group[new])
        slot, pair = _points_in_boxes(planes, line, boxes, combo)
        yield from _descend(tree, level - 1, line[pair], node[pair] * _TREE_FANOUT + slot, planes)


def _projected_boxes(mid: np.ndarray, half: np.ndarray, planes: _Planes, group: np.ndarray) -> np.ndarray:
    """Padded 2D boxes of 3D boxes projected onto the planes of ``group``.

    ``mid`` and ``half`` are (k, 3, n): entry i holds the centres and
    half-extents of n boxes as columns, to project onto the plane of group
    ``group[i]``. Returns (k, 4, n) float32 rows lo_x, hi_x, lo_y, hi_y,
    grown by the cast's 2D padding. Rounding to float32 is monotone, so a
    point inside a box stays inside once both are rounded.
    """
    c = np.matmul(planes.axes[group], mid)
    h = np.matmul(planes.spans[group], half)
    h += planes.pad
    boxes = np.empty((len(c), 2, 2, c.shape[-1]), dtype=np.float32)
    np.subtract(c, h, out=boxes[:, :, 0])
    np.add(c, h, out=boxes[:, :, 1])
    return boxes.reshape(len(c), 4, -1)


def _points_in_boxes(planes: _Planes, lines: np.ndarray, boxes: np.ndarray, which: np.ndarray):
    """Index pairs (j, i) where the point of line ``lines[i]`` lies in box ``boxes[which[i], :, j]``.

    Bounds are included. Pairs come sorted by j, then i.
    """
    x, y = np.take(planes.point, lines, axis=1)[:, :, None]
    boxes = np.take(boxes, which, axis=0)
    inside = (boxes[:, 0] <= x) & (x <= boxes[:, 1]) & (boxes[:, 2] <= y) & (y <= boxes[:, 3])
    return np.divmod(np.flatnonzero(inside.T), len(lines))


def _near_triangles(corners: np.ndarray, axes: np.ndarray, point: np.ndarray, margin: float) -> np.ndarray:
    """Whether each point lies within about ``margin`` of its triangle, in the plane of its axes.

    Column j of each array is one (triangle, plane, point): ``corners`` is
    (3, 3, k), corner then coordinate, ``axes`` (2, 3, k), the plane's two
    unit axes, and ``point`` (2, k), the point in those axes. The corners
    are projected onto the plane. A point is kept when, for one orientation
    of the projected triangle, its signed distance from no edge's line is
    below -``margin``: it lies in the triangle with each edge moved out by
    ``margin``. That holds every point within ``margin`` of the triangle,
    whichever way round it is. A triangle projected onto a segment keeps
    the points within ``margin`` of the segment's line, and a zero-length
    edge rejects nothing. Non-finite arithmetic keeps the point.
    """
    x, y = (a[0] * corners[:, 0] + a[1] * corners[:, 1] + a[2] * corners[:, 2] for a in axes)
    ex, ey = x[[1, 2, 0]] - x, y[[1, 2, 0]] - y
    with np.errstate(over="ignore", invalid="ignore"):
        # The edge function: the signed distance from the edge's line times the edge's length.
        side = ex * (point[1] - y) - ey * (point[0] - x)
        # |ex| + |ey| is at least the edge's length and, unlike np.hypot, cheap.
        reach = margin * (np.abs(ex) + np.abs(ey))
        return ~(side < -reach).any(axis=0) | ~(side > reach).any(axis=0)


def _pair_hits(o, d, v0, e1, e2, det_floor, t_lim):
    """Moller-Trumbore on matched (ray, face) rows, one pair per row.

    The arithmetic of the all-faces scan (``all_faces_first_hits`` in
    ``tests/conftest.py``), with ``np.einsum`` dot products that equal its
    broadcast ones bit for bit. Returns (t, u, v); t is inf where the pair
    does not hit.
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
    lowest face index. A pair with t = inf is a miss and never wins. Two
    ``np.minimum.at`` passes find each ray's lowest t, then its lowest face
    at that t; ``out``'s face takes part only where ``out`` holds that t.
    A (ray, face) pair may appear once, here or in ``out``.
    """
    t_out, face_out, u_out, v_out = out
    i = np.flatnonzero(np.isfinite(t))
    low = t_out.copy()
    np.minimum.at(low, ray[i], t[i])
    i = i[t[i] == low[ray[i]]]
    lowest = np.where(t_out == low, face_out, np.iinfo(np.int64).max)
    np.minimum.at(lowest, ray[i], face[i])
    i = i[face[i] == lowest[ray[i]]]
    r = ray[i]
    t_out[r], face_out[r], u_out[r], v_out[r] = t[i], face[i], u[i], v[i]
