"""Acceptance suite: one test per shipped guarantee.

Each test prints a single [PASS]/[FAIL] line (visible with ``pytest -s``)
and then asserts, so a red run names the broken guarantee directly:

1. score-domain suite over >= 10,000 candidates on five desk meshes
2. rigid invariance of every score field under mesh + grasp transforms
3. oracle equivalence: kNN, gravity distance, force closure, centroid
4. closure discreteness vs hybrid refinement on the sphere candidates
5. flatness sanity on a plate interior and sphere diametral grasps
6. force-closure monotonicity across the friction ladder
7. AP protocol on the perfect / zero / 25-good scenes, NMS pair scan
8. byte-identical CLI labeling runs
"""

import itertools
import math
import time

import numpy as np
import pytest
from scipy.spatial.transform import Rotation

from graspscore import (
    CandidateGrid,
    FrictionBins,
    GripperModel,
    MetricWeights,
    PipelineConfig,
    SpatialIndex,
    closure_scores,
    combine_scores,
    evaluate_ap,
    grasp_nms,
    label_mesh,
    mass_properties,
    neighborhood_normal_consistency,
    save_obj,
    score_contacts,
    transform_mesh,
)
from graspscore.candidates import generate_views
from graspscore.gripper import ContactArrays, contacts_on_lines

import _scenes
from conftest import GraspPose, all_candidates, random_rotation, run_cli

# Score column layout: (s_t, s_f1, s_f2, s_f, s_g_raw, s_g, s_c_raw,
# s_c, s_hybrid).
_T, _F1, _F2, _F, _G, _C, _H = 0, 1, 2, 3, 5, 7, 8


def _report(num: int, name: str, failures: list[str], detail: str = ""):
    status = "FAIL" if failures else "PASS"
    tail = "; ".join(failures) if failures else detail
    line = f"[{status}] {num}/8 {name}" + (f": {tail}" if tail else "")
    print(line)
    assert not failures, line


@pytest.fixture(scope="module")
def labeled_desk(desk_meshes):
    """Full labeling runs over the five desk meshes, with wall time."""
    config = PipelineConfig(n_seeds=48, n_views=36, n_rotations=6)
    t0 = time.perf_counter()
    tables = {name: label_mesh(mesh, name, config)[0] for name, mesh in desk_meshes.items()}
    elapsed = time.perf_counter() - t0
    return tables, elapsed


@pytest.fixture(scope="module")
def desk_breakdowns(labeled_desk):
    tables, _ = labeled_desk
    # the score columns, in metrics.SCORE_COLUMNS order
    return {name: table.values[:, 14:] for name, table in tables.items()}


def test_criterion_1_score_domain_suite(labeled_desk, desk_breakdowns):
    records, elapsed = labeled_desk
    vals = np.vstack(list(desk_breakdowns.values()))
    n = len(vals)

    weights = MetricWeights()
    lam = np.array([weights.lambda_t, weights.lambda_f, weights.lambda_g, weights.lambda_c])
    unit_cols = vals[:, [_T, _F1, _F2, _F, _G, _C, _H]]
    product_dev = float(np.max(np.abs(vals[:, _F] - vals[:, _F1] * vals[:, _F2])))
    dot_dev = float(np.max(np.abs(vals[:, _H] - vals[:, [_T, _F, _G, _C]] @ lam)))

    failures = []
    if n < 10_000:
        failures.append(f"only {n} candidates")
    if not (np.all(unit_cols >= 0.0) and np.all(unit_cols <= 1.0)):
        failures.append("score outside [0, 1]")
    if product_dev > 1e-12:
        failures.append(f"s_f deviates from s_f1*s_f2 by {product_dev:.2e}")
    if dot_dev > 1e-12:
        failures.append(f"weighted sum deviates by {dot_dev:.2e}")
    if elapsed >= 60.0:
        failures.append(f"labeling took {elapsed:.1f}s")
    _report(1, "score-domain suite", failures,
            f"{n} candidates over {len(records)} meshes in {elapsed:.1f}s")


def test_criterion_2_rigid_invariance(icosphere):
    """Scores depend only on relative geometry, not the world frame."""
    config = PipelineConfig()
    gripper = config.gripper()
    grid = CandidateGrid.build(icosphere, n_seeds=6, n_views=8, n_rotations=2)
    batch = all_candidates(icosphere, grid, gripper)
    rotations, translations, widths, depths = batch.rotations, batch.translations, batch.widths, batch.depths

    search_half = np.full(len(widths), gripper.max_width / 2.0)

    def field_matrix(mesh, rots, trans):
        # Contacts are searched at full jaw opening, as during enumeration;
        # fingertip endpoints then follow the commanded width.
        centers = trans + depths[:, None] * rots[:, :, 2]
        valid, contacts, _ = contacts_on_lines(mesh, centers, rots[:, :, 0], search_half)
        if not valid.all():
            return None
        half_jaw = (widths / 2.0)[:, None] * rots[:, :, 0]
        contacts = contacts._replace(p_el=centers - half_jaw, p_er=centers + half_jaw)
        s_t, s_f1, s_f2, s_f, s_g_raw, s_c_raw = score_contacts(
            contacts, SpatialIndex.from_mesh(mesh), mass_properties(mesh).gravity_center,
            config.bins(), config.knn_k)
        s_g, s_c, s_hybrid = combine_scores(s_t, s_f, s_g_raw, s_c_raw, config.weights())
        return np.column_stack([s_t, s_f1, s_f2, s_f, s_g_raw, s_g, s_c_raw, s_c, s_hybrid])

    base = field_matrix(icosphere, rotations, translations)
    assert base is not None and len(base) > 50

    rng = np.random.default_rng(11)
    worst = 0.0
    dropped = 0
    for _ in range(100):
        rot = random_rotation(rng)
        shift = rng.uniform(-0.5, 0.5, size=3)
        moved = transform_mesh(icosphere, rot, shift)
        vals = field_matrix(moved, rot[None] @ rotations, translations @ rot.T + shift)
        if vals is None:
            dropped += 1
            continue
        worst = max(worst, float(np.max(np.abs(vals - base))))

    failures = []
    if dropped:
        failures.append(f"{dropped} transforms lost a contact frame")
    if worst > 1e-9:
        failures.append(f"worst field deviation {worst:.2e}")
    _report(2, "rigid invariance", failures,
            f"{len(base)} grasps x 100 transforms, worst deviation {worst:.2e}")


def _linear_scan_knn(points: np.ndarray, query: np.ndarray, k: int) -> np.ndarray:
    d = np.linalg.norm(points - query, axis=1)
    return np.lexsort((np.arange(len(points)), d))[:k]


def _dense_line_min(p_cl, p_cr, gc) -> float:
    """Distance from gc to the contact line by brute parameter refinement."""
    lo, hi = -5.0, 6.0
    best = math.inf
    for _ in range(4):
        ts = np.linspace(lo, hi, 10001)
        pts = p_cl + ts[:, None] * (p_cr - p_cl)
        d = np.linalg.norm(pts - gc, axis=1)
        j = int(np.argmin(d))
        best = float(d[j])
        lo, hi = ts[max(j - 1, 0)], ts[min(j + 1, len(ts) - 1)]
    return best


def _rim_cone_contains(ray: np.ndarray, axis: np.ndarray, mu: float) -> bool:
    # The threshold alignment comes from explicitly constructed boundary
    # rays of the friction cone, not from a closed-form cosine.
    half = math.atan(mu)
    helper = np.eye(3)[int(np.argmin(np.abs(axis)))]
    u0 = np.cross(axis, helper)
    u0 /= np.linalg.norm(u0)
    u1 = np.cross(axis, u0)
    phis = np.linspace(0.0, 2.0 * np.pi, 720, endpoint=False)
    rim = (math.cos(half) * axis
           + math.sin(half) * (np.cos(phis)[:, None] * u0 + np.sin(phis)[:, None] * u1))
    return float(np.dot(ray, axis)) >= float(np.max(rim @ axis))


def _random_closure_frames(rng, n) -> ContactArrays:
    """n random contact pairs with unit normals, one row each."""
    def unit(v):
        return v / np.linalg.norm(v)

    rows = []
    for _ in range(n):
        v_a = unit(rng.normal(size=3))
        p_cl = rng.uniform(-0.05, 0.05, size=3)
        p_cr = p_cl + rng.uniform(0.01, 0.08) * v_a
        v_ql, v_qr = unit(rng.normal(size=3)), unit(rng.normal(size=3))
        rows.append((p_cl, p_cr, v_ql, v_qr, v_a, p_cl - 0.005 * v_a, p_cr + 0.005 * v_a))
    return ContactArrays(*map(np.array, zip(*rows)))


def _closes(frames, mu) -> np.ndarray:
    """Force closure of each row at friction mu: a one-bin ladder scores
    1.1 - mu on a pass and 0 on a fail."""
    return closure_scores(frames.v_a, frames.v_ql, frames.v_qr, FrictionBins((mu,))) != 0.0


def test_criterion_3_oracle_equivalence(desk_meshes, cube, icosphere, l_prism):
    failures = []
    gripper = GripperModel()

    # Exact kNN against a lexsorted linear scan, 100 queries per mesh.
    rng = np.random.default_rng(5)
    knn_bad = 0
    for mesh in desk_meshes.values():
        index = SpatialIndex.from_mesh(mesh)
        lo = mesh.vertices.min(axis=0) - 0.01
        hi = mesh.vertices.max(axis=0) + 0.01
        queries = rng.uniform(lo, hi, size=(100, 3))
        idx, _ = index.knn_batch(queries, 10)
        for q, row in zip(queries, idx):
            if not np.array_equal(row, _linear_scan_knn(index.points, q, 10)):
                knn_bad += 1
    if knn_bad:
        failures.append(f"{knn_bad} kNN queries disagree with the linear scan")

    # Gravity term against dense minimization along the contact line.
    gravity_dev = 0.0
    for mesh in (cube, icosphere):
        grid = CandidateGrid.build(mesh, n_seeds=8, n_views=6, n_rotations=2)
        gc = mass_properties(mesh).gravity_center
        contacts = ContactArrays(*(a[:75] for a in all_candidates(mesh, grid, gripper).contacts))
        s_g_raw = score_contacts(contacts, SpatialIndex.from_mesh(mesh), gc)[4]
        gravity_dev = max(gravity_dev, *(abs(g - _dense_line_min(p_cl, p_cr, gc))
                                         for p_cl, p_cr, g in zip(contacts.p_cl, contacts.p_cr, s_g_raw)))
    if gravity_dev > 1e-6:
        failures.append(f"gravity distance off by {gravity_dev:.2e}")

    # Force-closure decisions against cone-boundary sampling, 500 frames
    # across the whole friction ladder.
    rng = np.random.default_rng(13)
    frames = _random_closure_frames(rng, 500)
    closure_bad = 0
    for mu in FrictionBins().mus:
        want = [_rim_cone_contains(v_a, -v_ql, mu) and _rim_cone_contains(-v_a, -v_qr, mu)
                for v_a, v_ql, v_qr in zip(frames.v_a, frames.v_ql, frames.v_qr)]
        closure_bad += int(np.sum(_closes(frames, mu) != want))
    if closure_bad:
        failures.append(f"{closure_bad} closure decisions disagree")

    # Volume centroid against voxel integration on the L prism. The prism
    # is constant along y, so the 200^3 sums collapse to one xz sheet of
    # cell centers times a full y column.
    scale = 0.02
    n_cells = 200
    xs = (np.arange(n_cells) + 0.5) * (2.0 * scale / n_cells)
    ys = (np.arange(n_cells) + 0.5) * (scale / n_cells)
    zs = (np.arange(n_cells) + 0.5) * (2.0 * scale / n_cells)
    sheet = ~((xs[:, None] < scale) & (zs[None, :] > scale))
    gc_voxel = np.array([
        float((sheet * xs[:, None]).sum() / sheet.sum()),
        float(ys.mean()),
        float((sheet * zs[None, :]).sum() / sheet.sum()),
    ])
    vol_voxel = float(sheet.sum()) * n_cells * (2.0 * scale / n_cells) * (scale / n_cells) * (2.0 * scale / n_cells)
    props = mass_properties(l_prism)
    centroid_dev = float(np.max(np.abs(props.gravity_center - gc_voxel)))
    if centroid_dev > 1e-3:
        failures.append(f"centroid off voxel oracle by {centroid_dev:.2e} m")
    if abs(props.volume - vol_voxel) > 1e-12:
        failures.append(f"volume off voxel oracle by {abs(props.volume - vol_voxel):.2e}")

    _report(3, "oracle equivalence", failures,
            f"gravity dev {gravity_dev:.2e}, centroid dev {centroid_dev:.2e}")


def test_criterion_4_discreteness_vs_refinement(desk_breakdowns):
    """The hybrid score separates candidates the closure grid lumps together."""
    vals = desk_breakdowns["icosphere"]
    closure_levels = set(vals[:, _T].tolist())
    hybrids = set(vals[:, _H].tolist())

    # Within a closure level, distinct (s_f, s_g, s_c) triples must map to
    # distinct hybrids.
    collisions = 0
    for level in closure_levels:
        rows = vals[vals[:, _T] == level]
        triples = {(r[_F], r[_G], r[_C]): r[_H] for r in rows}
        if len(set(triples.values())) != len(triples):
            collisions += 1

    failures = []
    if len(closure_levels) > 11:
        failures.append(f"{len(closure_levels)} closure levels")
    if len(hybrids) < 10 * len(closure_levels):
        failures.append(f"only {len(hybrids)} hybrid values for {len(closure_levels)} levels")
    if collisions:
        failures.append(f"{collisions} closure levels collapse distinct triples")
    _report(4, "discreteness vs refinement", failures,
            f"{len(closure_levels)} closure levels refine to {len(hybrids)} hybrid values")


def test_criterion_5_flatness_sanity(plate, icosphere):
    index = SpatialIndex.from_mesh(plate)
    # Probes on the plate's top face: three interior, two near an edge,
    # one near a corner. The flattest probe must be interior.
    probes = np.array([
        [0.0, 0.0, 0.002],
        [0.01, 0.005, 0.002],
        [-0.012, 0.008, 0.002],
        [0.029, 0.0, 0.002],
        [0.0, 0.0195, 0.002],
        [0.0295, 0.0195, 0.002],
    ])
    interior = np.array([True, True, True, False, False, False])
    normals = np.tile([0.0, 0.0, 1.0], (len(probes), 1))
    flatness = neighborhood_normal_consistency(probes, normals, index, k=10)
    top = int(np.argmax(flatness))

    failures = []
    if not interior[top]:
        failures.append(f"flattest probe is {probes[top].tolist()}")
    if flatness[top] < 0.99:
        failures.append(f"best flatness only {flatness[top]:.4f}")

    poses = [_scenes.diametral_grasp(np.zeros(3), view) for view in generate_views(8)]
    valid, contacts, _ = contacts_on_lines(icosphere, np.array([p.center for p in poses]),
                                           np.array([p.closing_axis for p in poses]),
                                           np.array([p.width / 2.0 for p in poses]))
    if not valid.all():
        failures.append("a diametral grasp lost its contacts")
    s_f2 = score_contacts(contacts, SpatialIndex.from_mesh(icosphere), np.zeros(3))[2]
    worst_alignment = float(s_f2.min(initial=1.0))
    if worst_alignment < 0.99:
        failures.append(f"diametral alignment only {worst_alignment:.4f}")

    _report(5, "flatness sanity", failures,
            f"plate interior {flatness[top]:.4f}, sphere alignment >= {worst_alignment:.4f}")


def test_criterion_6_closure_monotonicity(desk_breakdowns):
    rng = np.random.default_rng(17)
    mus = FrictionBins().mus
    frames = _random_closure_frames(rng, 500)
    passes = np.column_stack([_closes(frames, mu) for mu in mus])
    non_monotone = int(np.sum((passes[:, :-1] & ~passes[:, 1:]).any(axis=1)))

    allowed = {0.0} | {round(1.1 - mu, 10) for mu in mus}
    observed = set(np.vstack(list(desk_breakdowns.values()))[:, _T].tolist())
    off_grid = observed - allowed

    failures = []
    if non_monotone:
        failures.append(f"{non_monotone} frames lose closure as friction grows")
    if off_grid:
        failures.append(f"closure scores off the decimal grid: {sorted(off_grid)[:3]}")
    _report(6, "closure monotonicity", failures,
            f"500 frames monotone, {len(observed)} grid values")


def test_criterion_7_ap_protocol():
    layout = _scenes.sphere_scene(_scenes.sphere_library())

    perfect, zero, good25 = (
        evaluate_ap(preds, layout, _scenes.CLOSURE_ONLY)
        for preds in (_scenes.perfect_predictions(), _scenes.zero_predictions(), _scenes.good25_predictions()))
    zero_dev = abs(zero.map_value - 1.0 / 6.0)
    good_dev = abs(good25.map_value - _scenes.good25_oracle_map())

    failures = []
    if perfect.map_value != 1.0:
        failures.append(f"perfect scene mAP {perfect.map_value!r}")
    if zero_dev > 1e-9:
        failures.append(f"zero scene mAP off by {zero_dev:.2e}")
    if good_dev > 1e-9:
        failures.append(f"25-good scene mAP off by {good_dev:.2e}")

    # Survivors of greedy NMS on clustered random poses must differ by the
    # translation threshold or the rotation threshold, pairwise.
    rng = np.random.default_rng(3)
    defaults = PipelineConfig()
    scan_bad = 0
    dropped_best = 0
    for _ in range(5):
        grasps = [
            GraspPose(rotation=random_rotation(rng),
                      translation=rng.uniform(0.0, 0.04, size=3),
                      width=0.05, depth=0.02)
            for _ in range(100)
        ]
        scores = rng.uniform(size=100)
        rotations = np.array([g.rotation for g in grasps])
        kept = grasp_nms(rotations, np.array([g.translation for g in grasps]), scores)
        if int(np.argmax(scores)) not in kept.tolist():
            dropped_best += 1
        for a, b in itertools.combinations(kept.tolist(), 2):
            d_t = float(np.linalg.norm(grasps[a].translation - grasps[b].translation))
            rel = Rotation.from_matrix(grasps[a].rotation).inv() * Rotation.from_matrix(grasps[b].rotation)
            if d_t < defaults.nms_trans_thresh and float(rel.magnitude()) < defaults.nms_rot_thresh:
                scan_bad += 1
    if scan_bad:
        failures.append(f"{scan_bad} surviving NMS pairs are mutually close")
    if dropped_best:
        failures.append(f"{dropped_best} batches dropped the top-scored grasp")

    _report(7, "AP protocol", failures,
            f"mAP 1.000 / {zero.map_value:.4f} / {good25.map_value:.4f}")


def test_criterion_8_labeling_determinism(tmp_path, cube):
    mesh_path = tmp_path / "cube.obj"
    save_obj(str(mesh_path), cube.vertices, cube.faces)
    config_path = tmp_path / "tiny.cfg"
    config_path.write_text("n_seeds = 12\nn_views = 10\nn_rotations = 4\n")

    outputs = []
    for name in ("a.csv", "b.csv"):
        out = tmp_path / name
        run = run_cli("label", str(mesh_path), "--object-id", "cube", "--out", str(out),
                      "--config", str(config_path), cwd=tmp_path)
        assert run.returncode == 0, run.stderr
        outputs.append(out.read_bytes())

    failures = []
    if len(outputs[0]) < 100:
        failures.append("labeling produced no rows")
    if outputs[0] != outputs[1]:
        failures.append("repeated runs differ")
    _report(8, "labeling determinism", failures,
            f"two runs, {len(outputs[0])} bytes each, byte-identical")
