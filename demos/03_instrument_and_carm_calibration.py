"""Instrument and imaging-chain calibration.

Walks the full intra-op 2D chain: pivot-calibrate a stylus, DLT-calibrate
two C-arm views from a tracked calibrator, render and detect the jig
fiducials in synthetic rasters, triangulate them, and register the patient
automatically.
"""

import numpy as np

from spinenav import FiducialSet, RigidTransform, register_patient_2d
from spinenav.calibration import (
    Detection2D,
    detect_fiducials,
    dlt_calibrate,
    pinhole_projection,
    pivot_calibrate,
    project,
    render_fiducial_raster,
    reprojection_rms,
    triangulate,
)

rng = np.random.default_rng(11)


def look_at(source, target, up=(0, 0, 1)):
    z = np.asarray(target, float) - np.asarray(source, float)
    z /= np.linalg.norm(z)
    x = np.cross(up, z)
    x /= np.linalg.norm(x)
    r = np.vstack([x, np.cross(z, x), z])
    return RigidTransform(r, -r @ np.asarray(source, float))


# 1. pivot calibration: spin a stylus about a divot, solve for its tip
tip, pivot_pt = np.array([4.0, 1.0, 130.0]), np.array([10.0, 5.0, 0.0])
poses = []
for _ in range(25):
    q = rng.normal(size=4)
    rot = RigidTransform.from_quaternion(q).rotation
    poses.append(RigidTransform(rot, pivot_pt - rot @ tip))
pivot = pivot_calibrate(poses)
print(f"pivot calibration: tip {np.round(pivot.tip_offset, 3)} "
      f"(truth {tip}), residual {pivot.residual_rms:.2e} mm")

# 2. two C-arm views, DLT-calibrated from a known 3D pattern
ap_true = pinhole_projection(look_at((0, -600, 0), (0, 0, 0)), 1000.0, "AP")
lp_true = pinhole_projection(look_at((-600, 0, 0), (0, 0, 0)), 1000.0, "LP")
pattern = rng.uniform(-70, 70, size=(12, 3))
pattern_labels = tuple(f"C{i}" for i in range(12))
models = []
for true_model in (ap_true, lp_true):
    uv = project(true_model, pattern) + rng.normal(scale=0.2, size=(12, 2))
    detections = Detection2D(true_model.view_label, pattern_labels, uv)
    model = dlt_calibrate(list(zip(pattern_labels, pattern)), detections)
    rms = reprojection_rms(model, list(zip(pattern_labels, pattern)), detections)
    print(f"{true_model.view_label} view DLT reprojection rms: {rms:.3f} mm")
    models.append(model)

# 3. jig fiducials rendered into rasters and detected by distance signature
jig = FiducialSet.from_pairs("Patient", [
    ("J0", (-40.0, -25.0, -10.0)), ("J1", (38.0, -30.0, 5.0)),
    ("J2", (-32.0, 28.0, 12.0)), ("J3", (25.0, 35.0, -18.0)),
    ("J4", (2.0, -8.0, 30.0)), ("J5", (12.0, 10.0, -32.0))])
patient_pose = RigidTransform.from_axis_angle((0.1, 0.9, 0.2), 0.3, (8.0, -5.0, 12.0))
jig_world = jig.transformed(patient_pose, frame="CArm")

detections = []
for true_model, est_model in zip((ap_true, lp_true), models):
    uv_true = project(true_model, jig_world.points)
    raster = render_fiducial_raster(uv_true, true_model.view_label)
    found = detect_fiducials(raster, dict(zip(jig_world.labels, uv_true)))
    print(f"{true_model.view_label} raster: detected {len(found.labels)} blobs, "
          f"worst centroid error "
          f"{max(np.linalg.norm(found.position(l) - u) for l, u in zip(jig_world.labels, uv_true)):.3f} mm")
    detections.append((est_model, found))

# 4. triangulate one fiducial, then register the whole patient
point, gap = triangulate((models[0], detections[0][1].position("J0")),
                         (models[1], detections[1][1].position("J0")))
print(f"triangulated J0 error: "
      f"{np.linalg.norm(point - jig_world.position('J0')):.3f} mm (ray gap {gap:.3f})")

registration = register_patient_2d(jig, detections)
print(f"automatic 2D patient registration FRE: {registration.fre_rms:.3f} mm")
print("recovered translation:", np.round(registration.transform.translation, 3),
      "truth:", patient_pose.translation)
