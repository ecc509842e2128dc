"""Deterministic scene renderer: SceneSpec → image + exact ground truth.

This is the substitute for the physical data collection in §2 of the
paper.  It produces, for every frame:

* an RGB image (float32, ``[0, 1]``) with the VIP's neon hazard vest as a
  visually distinctive high-saturation region — the cue the retrained
  YOLO models learn;
* the vest bounding box (``xyxy``) — what makesense.ai annotation gave
  the authors;
* bounding boxes for distractor objects (pedestrians, bicycles, parked
  cars) used by the obstacle-alert pipeline;
* the VIP's 13 body keypoints (trt_pose substitute ground truth);
* a dense metric depth map from the renderer's z-buffer (Monodepth2
  substitute ground truth).

Projection model: pinhole-style — apparent size ∝ 1/z, feet position on
the ground plane ∝ 1/z below the horizon.  Rendering uses the vectorised
raster primitives from :mod:`repro.image.draw` with a z-buffer so
occlusion is handled correctly and the depth map is consistent with the
pixels.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..errors import DatasetError
from ..geometry.bbox import BBox
from ..geometry.keypoints import NUM_KEYPOINTS, KeypointSet
from ..image import draw, ops
from ..image.augment import AdversarialKind, AugmentConfig, apply_adversarial
from ..obs import current_tracer
from ..rng import coerce_rng
from .scene import CameraSpec, ObjectKind, SceneObject, SceneSpec
from .taxonomy import Category

#: Projection constant linking metric height to pixel height (calibrated
#: so a person 3 m away fills ~60 % of the frame, like the paper's
#: close-follow drone footage).
PROJ_K = 0.95

#: Far-plane depth written into sky pixels (metres).
SKY_DEPTH = 80.0

#: Neon hazard-vest colour (high-saturation yellow-green).
VEST_COLOR = (0.62, 1.0, 0.05)

#: Class id of the hazard vest (the dataset's single annotated class).
VEST_CLASS = 0

#: Class ids for auxiliary (pipeline-only) object boxes.
OBJECT_CLASS: Dict[ObjectKind, int] = {
    ObjectKind.VIP: VEST_CLASS,
    ObjectKind.PEDESTRIAN: 1,
    ObjectKind.BICYCLE: 2,
    ObjectKind.PARKED_CAR: 3,
    ObjectKind.TREE: 4,
    ObjectKind.LAMP_POST: 5,
    ObjectKind.BIN: 6,
}

_GROUND_COLORS = {
    Category.FOOTPATH: ((0.62, 0.60, 0.58), (0.55, 0.53, 0.51)),
    Category.PATH: ((0.48, 0.40, 0.30), (0.43, 0.36, 0.27)),
    Category.SIDE_OF_ROAD: ((0.32, 0.32, 0.34), (0.28, 0.28, 0.30)),
}

_SKY_TOP = (0.55, 0.70, 0.92)
_SKY_BOTTOM = (0.80, 0.87, 0.95)


@dataclass
class RenderedFrame:
    """Renderer output: pixels plus exact ground truth."""

    image: np.ndarray                 # (H, W, 3) float32
    depth: np.ndarray                 # (H, W) float32, metres
    vest_boxes: List[BBox]            # class 0; empty if vest out of frame
    object_boxes: List[BBox]          # distractor objects (classes 1..6)
    keypoints: Optional[KeypointSet]  # VIP keypoints, if VIP visible
    spec: SceneSpec
    applied_corruptions: Tuple[str, ...] = ()

    @property
    def size(self) -> Tuple[int, int]:
        return self.image.shape[0], self.image.shape[1]

    def all_boxes(self) -> List[BBox]:
        return list(self.vest_boxes) + list(self.object_boxes)


def _project(cam: CameraSpec, obj_x: float, z: float, h: int,
             w: int) -> Tuple[float, float, float]:
    """World → screen: returns (centre_x_px, feet_y_px, px_per_metre)."""
    horizon_y = cam.horizon * h
    feet_y = horizon_y + (cam.focal * cam.height_m / z) * h * PROJ_K
    px_per_m = (cam.focal / z) * h * PROJ_K
    cx = w / 2.0 + obj_x * (w / 2.0)
    return cx, feet_y, px_per_m


class SceneRenderer:
    """Renders :class:`SceneSpec` instances at a fixed resolution."""

    def __init__(self, image_size: int = 64) -> None:
        if image_size < 16:
            raise DatasetError(
                f"image_size must be >= 16, got {image_size}")
        self.image_size = int(image_size)

    # -- background ------------------------------------------------------

    def _background(self, spec: SceneSpec) -> Tuple[np.ndarray, np.ndarray]:
        s = self.image_size
        cam = spec.camera
        horizon_px = int(cam.horizon * s)
        img = draw.vertical_gradient(s, s, _SKY_TOP, _SKY_BOTTOM)
        top, bottom = _GROUND_COLORS[spec.ground]
        ground = draw.vertical_gradient(s - horizon_px, s, top, bottom)
        if spec.ground is Category.FOOTPATH:
            # Paving-tile texture blended into the gradient.
            tiles = draw.checker_texture(s - horizon_px, s,
                                         max(2, s // 16), top, bottom)
            ground = 0.6 * ground + 0.4 * tiles
        img[horizon_px:] = ground

        depth = np.full((s, s), SKY_DEPTH, dtype=np.float32)
        ys = np.arange(horizon_px, s, dtype=np.float32)
        # Invert the feet-projection formula: depth of the ground at row y.
        denom = np.maximum(ys - cam.horizon * s, 1e-3)
        depth[horizon_px:, :] = np.minimum(
            (cam.focal * cam.height_m * s * PROJ_K) / denom, SKY_DEPTH
        )[:, None]
        return img, depth

    # -- people ----------------------------------------------------------

    def _draw_person(self, img: np.ndarray, depth: np.ndarray,
                     obj: SceneObject, cam: CameraSpec,
                     vest: bool) -> Tuple[BBox, Optional[KeypointSet],
                                          Optional[BBox]]:
        """Draw a person; returns (body box, keypoints, vest box)."""
        s = self.image_size
        cx, feet_y, ppm = _project(cam, obj.x, obj.z, s, s)
        h_px = obj.height_m * ppm
        z = obj.z

        # Body landmark layout (fractions of body height, upright pose).
        ang = obj.pose_angle
        ca, sa = np.cos(ang), np.sin(ang)

        def up(frac_h: float, lateral: float = 0.0) -> Tuple[float, float]:
            """Point `frac_h` of body height above the feet, rotated about
            the feet by the pose angle (falls pivot at ground contact)."""
            dy = -frac_h * h_px
            dx = lateral * h_px
            rx = ca * dx - sa * dy
            ry = sa * dx + ca * dy
            return cx + rx, feet_y + ry

        head = up(0.93)
        neck = up(0.82)
        l_sh = up(0.78, -0.11)
        r_sh = up(0.78, +0.11)
        swing = 0.06 * np.sin(obj.walking_phase)
        l_el = up(0.62, -0.14 - swing)
        r_el = up(0.62, +0.14 + swing)
        l_wr = up(0.47, -0.15 - 1.5 * swing)
        r_wr = up(0.47, +0.15 + 1.5 * swing)
        l_hip = up(0.50, -0.08)
        r_hip = up(0.50, +0.08)
        l_kn = up(0.27, -0.09 - swing)
        r_kn = up(0.27, +0.09 + swing)
        ankles = up(0.02)

        limb_t = max(1.0, 0.045 * h_px)
        skin = (0.85, 0.70, 0.58)
        pants = (0.25, 0.27, 0.35)
        shirt = (0.45, 0.42, 0.48) if not vest else (0.35, 0.35, 0.40)

        # Legs and arms.
        draw.draw_line(img, *l_hip, *l_kn, pants, limb_t, depth, z)
        draw.draw_line(img, *r_hip, *r_kn, pants, limb_t, depth, z)
        draw.draw_line(img, *l_kn, *ankles, pants, limb_t, depth, z)
        draw.draw_line(img, *r_kn, *ankles, pants, limb_t, depth, z)
        draw.draw_line(img, *l_sh, *l_el, shirt, limb_t, depth, z)
        draw.draw_line(img, *r_sh, *r_el, shirt, limb_t, depth, z)
        draw.draw_line(img, *l_el, *l_wr, skin, limb_t * 0.8, depth, z)
        draw.draw_line(img, *r_el, *r_wr, skin, limb_t * 0.8, depth, z)
        # Torso: thick line from neck to hip midpoint.
        hip_mid = (0.5 * (l_hip[0] + r_hip[0]), 0.5 * (l_hip[1] + r_hip[1]))
        torso_t = max(1.5, 0.20 * h_px)
        draw.draw_line(img, *neck, *hip_mid, shirt, torso_t, depth, z)
        # Head.
        head_r = max(1.0, 0.07 * h_px)
        draw.fill_circle(img, head[0], head[1], head_r, skin, depth, z)

        vest_box: Optional[BBox] = None
        if vest:
            # Hazard vest: bright torso overlay from shoulders to hips,
            # drawn marginally nearer so it wins the z-test over the shirt.
            vest_t = torso_t * 1.1
            draw.draw_line(img, *neck, *hip_mid, VEST_COLOR, vest_t,
                           depth, z - 0.01)
            half = vest_t / 2.0
            xs = (neck[0] - half, neck[0] + half,
                  hip_mid[0] - half, hip_mid[0] + half)
            ys_ = (neck[1] - half, neck[1] + half,
                   hip_mid[1] - half, hip_mid[1] + half)
            x1, x2 = min(xs), max(xs)
            y1, y2 = min(ys_), max(ys_)
            x1, x2 = np.clip([x1, x2], 0, s)
            y1, y2 = np.clip([y1, y2], 0, s)
            if x2 - x1 > 1.0 and y2 - y1 > 1.0:
                vest_box = BBox(float(x1), float(y1), float(x2), float(y2),
                                cls=VEST_CLASS)

        # Body bounding box over all landmark extremes.
        all_pts = np.array([head, neck, l_sh, r_sh, l_el, r_el, l_wr, r_wr,
                            l_hip, r_hip, l_kn, r_kn, ankles])
        pad = limb_t
        bx1 = float(np.clip(all_pts[:, 0].min() - pad, 0, s - 2))
        bx2 = float(np.clip(all_pts[:, 0].max() + pad, bx1 + 1, s))
        by1 = float(np.clip(all_pts[:, 1].min() - head_r, 0, s - 2))
        by2 = float(np.clip(all_pts[:, 1].max() + pad, by1 + 1, s))
        body_box = BBox(bx1, by1, bx2, by2,
                        cls=OBJECT_CLASS[obj.kind] if not vest
                        else VEST_CLASS)

        kps: Optional[KeypointSet] = None
        if vest:
            pts = np.zeros((NUM_KEYPOINTS, 3), dtype=np.float64)
            ordered = [head, neck, l_sh, r_sh, l_el, r_el, l_wr, r_wr,
                       l_hip, r_hip, l_kn, r_kn, ankles]
            for i, (px, py) in enumerate(ordered):
                visible = 1.0 if (0 <= px < s and 0 <= py < s) else 0.0
                pts[i] = (px, py, visible)
            kps = KeypointSet(pts)
        return body_box, kps, vest_box

    # -- rigid objects -----------------------------------------------------

    def _draw_bicycle(self, img, depth, obj: SceneObject,
                      cam: CameraSpec) -> BBox:
        s = self.image_size
        cx, feet_y, ppm = _project(cam, obj.x, obj.z, s, s)
        h_px = obj.height_m * ppm
        z = obj.z
        wheel_r = max(1.0, 0.28 * h_px)
        wheel_y = feet_y - wheel_r
        dxw = 0.55 * h_px
        frame = (0.15, 0.15, 0.18)
        draw.fill_circle(img, cx - dxw, wheel_y, wheel_r, frame, depth, z)
        draw.fill_circle(img, cx + dxw, wheel_y, wheel_r, frame, depth, z)
        body = (0.70, 0.15, 0.15)
        t = max(1.0, 0.06 * h_px)
        draw.draw_line(img, cx - dxw, wheel_y, cx, feet_y - 0.8 * h_px,
                       body, t, depth, z)
        draw.draw_line(img, cx + dxw, wheel_y, cx, feet_y - 0.8 * h_px,
                       body, t, depth, z)
        draw.draw_line(img, cx - dxw, wheel_y, cx + dxw, wheel_y, body, t,
                       depth, z)
        x1 = np.clip(cx - dxw - wheel_r, 0, s - 2)
        x2 = np.clip(cx + dxw + wheel_r, x1 + 1, s)
        y1 = np.clip(feet_y - h_px, 0, s - 2)
        y2 = np.clip(feet_y, y1 + 1, s)
        return BBox(float(x1), float(y1), float(x2), float(y2),
                    cls=OBJECT_CLASS[obj.kind])

    def _draw_car(self, img, depth, obj: SceneObject,
                  cam: CameraSpec) -> BBox:
        s = self.image_size
        cx, feet_y, ppm = _project(cam, obj.x, obj.z, s, s)
        h_px = obj.height_m * ppm
        z = obj.z
        w_px = 2.6 * h_px
        body = (0.55, 0.58, 0.62)
        cabin = (0.35, 0.42, 0.50)
        draw.fill_rect(img, cx - w_px / 2, feet_y - 0.55 * h_px,
                       cx + w_px / 2, feet_y, body, depth, z)
        draw.fill_rect(img, cx - w_px * 0.3, feet_y - h_px,
                       cx + w_px * 0.3, feet_y - 0.5 * h_px, cabin,
                       depth, z)
        wheel_r = max(1.0, 0.16 * h_px)
        draw.fill_circle(img, cx - 0.32 * w_px, feet_y, wheel_r,
                         (0.08, 0.08, 0.08), depth, z - 0.01)
        draw.fill_circle(img, cx + 0.32 * w_px, feet_y, wheel_r,
                         (0.08, 0.08, 0.08), depth, z - 0.01)
        x1 = np.clip(cx - w_px / 2, 0, s - 2)
        x2 = np.clip(cx + w_px / 2, x1 + 1, s)
        y1 = np.clip(feet_y - h_px, 0, s - 2)
        y2 = np.clip(feet_y + wheel_r, y1 + 1, s)
        return BBox(float(x1), float(y1), float(x2), float(y2),
                    cls=OBJECT_CLASS[obj.kind])

    def _draw_prop(self, img, depth, obj: SceneObject,
                   cam: CameraSpec) -> BBox:
        s = self.image_size
        cx, feet_y, ppm = _project(cam, obj.x, obj.z, s, s)
        h_px = obj.height_m * ppm
        z = obj.z
        if obj.kind is ObjectKind.TREE:
            trunk_w = max(1.0, 0.07 * h_px)
            draw.fill_rect(img, cx - trunk_w, feet_y - 0.5 * h_px,
                           cx + trunk_w, feet_y, (0.35, 0.24, 0.12),
                           depth, z)
            draw.fill_circle(img, cx, feet_y - 0.7 * h_px, 0.32 * h_px,
                             (0.12, 0.40, 0.12), depth, z)
            half_w = 0.32 * h_px
        elif obj.kind is ObjectKind.LAMP_POST:
            pole_w = max(0.75, 0.02 * h_px)
            draw.fill_rect(img, cx - pole_w, feet_y - h_px, cx + pole_w,
                           feet_y, (0.25, 0.25, 0.28), depth, z)
            draw.fill_circle(img, cx, feet_y - h_px, max(1.0, 0.05 * h_px),
                             (0.9, 0.9, 0.75), depth, z)
            half_w = max(1.0, 0.05 * h_px)
        else:  # BIN
            half_w = 0.3 * h_px
            draw.fill_rect(img, cx - half_w, feet_y - h_px, cx + half_w,
                           feet_y, (0.15, 0.35, 0.20), depth, z)
        x1 = np.clip(cx - half_w, 0, s - 2)
        x2 = np.clip(cx + half_w, x1 + 1, s)
        y1 = np.clip(feet_y - h_px, 0, s - 2)
        y2 = np.clip(feet_y, y1 + 1, s)
        return BBox(float(x1), float(y1), float(x2), float(y2),
                    cls=OBJECT_CLASS[obj.kind])

    # -- main entry --------------------------------------------------------

    def render(self, spec: SceneSpec,
               rng: Optional[np.random.Generator] = None) -> RenderedFrame:
        """Render a scene spec into a frame with exact ground truth."""
        tracer = current_tracer()
        if not tracer.enabled:
            return self._render(spec, rng)
        with tracer.span("render.scene",
                         subcategory=spec.subcategory_key):
            return self._render(spec, rng)

    def _render(self, spec: SceneSpec,
                rng: Optional[np.random.Generator] = None
                ) -> RenderedFrame:
        gen = coerce_rng(rng, "render", spec.subcategory_key)
        img, depth = self._background(spec)

        vest_boxes: List[BBox] = []
        object_boxes: List[BBox] = []
        keypoints: Optional[KeypointSet] = None

        for obj in spec.objects:
            if obj.kind in (ObjectKind.VIP, ObjectKind.PEDESTRIAN):
                is_vip = obj.kind is ObjectKind.VIP
                body_box, kps, vest_box = self._draw_person(
                    img, depth, obj, spec.camera, vest=is_vip)
                if is_vip:
                    if vest_box is not None:
                        vest_boxes.append(vest_box)
                    keypoints = kps
                else:
                    object_boxes.append(body_box)
            elif obj.kind is ObjectKind.BICYCLE:
                object_boxes.append(
                    self._draw_bicycle(img, depth, obj, spec.camera))
            elif obj.kind is ObjectKind.PARKED_CAR:
                object_boxes.append(
                    self._draw_car(img, depth, obj, spec.camera))
            else:
                object_boxes.append(
                    self._draw_prop(img, depth, obj, spec.camera))

        # Global lighting and distance haze.
        img = ops.adjust_brightness(img, spec.lighting.brightness)
        if spec.lighting.haze > 0:
            haze_f = (spec.lighting.haze
                      * (1.0 - np.exp(-depth / 30.0)))[:, :, None]
            haze_c = np.array([0.75, 0.78, 0.82], dtype=np.float32)
            img = (img * (1 - haze_f) + haze_c * haze_f).astype(np.float32)

        # Adversarial corruptions requested by the spec.
        applied: List[str] = []
        boxes = vest_boxes
        if spec.adversarial:
            cfg = AugmentConfig(severity=spec.severity)
            for name in spec.adversarial:
                kind = AdversarialKind(name)
                img, boxes = apply_adversarial(img, boxes, kind, cfg, gen)
                applied.append(name)
            # Geometric corruptions may change the canvas; rescale back so
            # every frame in the dataset shares one resolution.
            if img.shape[:2] != (self.image_size, self.image_size):
                sy = self.image_size / img.shape[0]
                sx = self.image_size / img.shape[1]
                img = ops.resize_bilinear(img, self.image_size,
                                          self.image_size)
                boxes = [b.scaled(sx, sy) for b in boxes]
                depth = np.asarray(
                    ops.resize_bilinear(
                        np.repeat(depth[:, :, None], 3, axis=2),
                        self.image_size, self.image_size)[:, :, 0])
            vest_boxes = list(boxes)

        return RenderedFrame(
            image=np.ascontiguousarray(img, dtype=np.float32),
            depth=np.ascontiguousarray(depth, dtype=np.float32),
            vest_boxes=vest_boxes,
            object_boxes=object_boxes,
            keypoints=keypoints,
            spec=spec,
            applied_corruptions=tuple(applied),
        )
