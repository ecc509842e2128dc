"""Scene specification and stochastic scene sampling.

A :class:`SceneSpec` is a *complete, renderer-independent* description of
one frame: the camera (drone height / distance / roll), lighting, ground
type, and every object with its world position.  The renderer turns a
spec into pixels deterministically, so a spec + seed fully identifies an
image — this is what lets the 30k-image dataset exist as a lazy index
rather than 30k materialised arrays.

World model (simple pinhole-ish projection):

* The drone camera looks forward; the ground plane fills the lower part
  of the frame below a horizon line.
* Object distance ``z`` (metres, 2–30 m) controls both the on-screen
  scale (``scale ∝ 1/z``) and the vertical position of the object's feet
  (farther → closer to the horizon), matching the monocular depth cue
  Monodepth2 learns.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from ..errors import DatasetError
from ..rng import coerce_rng
from .taxonomy import Category, SubCategory


class ObjectKind(enum.Enum):
    """Object types appearing in the dataset scenes (Table 1 columns)."""

    VIP = "vip"                  # person wearing the neon hazard vest
    PEDESTRIAN = "pedestrian"    # person without a vest
    BICYCLE = "bicycle"
    PARKED_CAR = "parked_car"
    TREE = "tree"
    LAMP_POST = "lamp_post"
    BIN = "bin"


@dataclass(frozen=True)
class SceneObject:
    """One object instance in camera-relative world coordinates.

    ``x`` is the lateral offset in [-1, 1] (fraction of half-FoV at the
    object's depth); ``z`` is the distance from the camera in metres;
    ``pose_angle`` (radians from vertical) tilts people — ≥ ~1.0 rad is a
    fall posture for the SVM ground truth.
    """

    kind: ObjectKind
    x: float
    z: float
    height_m: float
    pose_angle: float = 0.0
    walking_phase: float = 0.0   # limb swing phase for people/bicycles

    def __post_init__(self) -> None:
        if self.z <= 0:
            raise DatasetError(f"object depth must be positive, got {self.z}")
        if self.height_m <= 0:
            raise DatasetError(
                f"object height must be positive, got {self.height_m}")


@dataclass(frozen=True)
class CameraSpec:
    """Drone camera parameters for one frame."""

    height_m: float = 1.6       # handheld-at-different-heights (§2)
    roll_deg: float = 0.0       # drone roll → tilted frames
    horizon: float = 0.38       # horizon line as fraction of image height
    focal: float = 1.1          # unitless focal factor for projection

    def __post_init__(self) -> None:
        if not 0.05 <= self.horizon <= 0.9:
            raise DatasetError(f"horizon {self.horizon} outside [0.05, 0.9]")
        if self.focal <= 0:
            raise DatasetError(f"focal must be positive, got {self.focal}")


@dataclass(frozen=True)
class Lighting:
    """Global illumination for the frame."""

    brightness: float = 1.0     # 1.0 = daylight; ~0.2 = dusk/low-light
    haze: float = 0.0           # distance haze strength in [0, 1]

    def __post_init__(self) -> None:
        if not 0.0 < self.brightness <= 1.5:
            raise DatasetError(
                f"brightness {self.brightness} outside (0, 1.5]")
        if not 0.0 <= self.haze <= 1.0:
            raise DatasetError(f"haze {self.haze} outside [0, 1]")


@dataclass(frozen=True)
class SceneSpec:
    """Full description of one frame before rendering."""

    subcategory_key: str
    camera: CameraSpec
    lighting: Lighting
    ground: Category            # drives ground texture (footpath/path/road)
    objects: Tuple[SceneObject, ...]
    #: Adversarial corruption request (kind names), empty for clean frames.
    adversarial: Tuple[str, ...] = ()
    severity: float = 0.0

    @property
    def vip(self) -> Optional[SceneObject]:
        """The VIP object, if present in the frame."""
        for obj in self.objects:
            if obj.kind is ObjectKind.VIP:
                return obj
        return None

    def is_fall(self) -> bool:
        """Ground truth for the fall-detection SVM."""
        v = self.vip
        return v is not None and abs(v.pose_angle) >= 0.9


_PERSON_HEIGHT_RANGE = (1.55, 1.9)
_CAR_HEIGHT_RANGE = (1.4, 1.65)
_BICYCLE_HEIGHT_RANGE = (1.0, 1.2)
_TREE_HEIGHT_RANGE = (2.5, 5.0)
_POST_HEIGHT_RANGE = (3.0, 4.5)
_BIN_HEIGHT_RANGE = (0.9, 1.2)


def _ground_for(sub: SubCategory) -> Category:
    if sub.category in (Category.MIXED, Category.ADVERSARIAL):
        return Category.PATH  # mixed/adversarial frames use path ground;
        # variation comes from object mix + corruption.
    return sub.category


def sample_scene(sub: SubCategory,
                 rng: Optional[np.random.Generator] = None,
                 fall_probability: float = 0.0,
                 vip_present: bool = True) -> SceneSpec:
    """Draw a random scene consistent with a Table 1 sub-category.

    The content flags on the sub-category decide which distractors appear
    (pedestrians, bicycles, parked cars, clutter props).  Adversarial
    frames get 1–2 corruption kinds at random severity ≥ 0.35 (visible
    conditions, per the dataset description).
    """
    gen = coerce_rng(rng, "scene", sub.key)

    objects: List[SceneObject] = []
    if vip_present:
        fall = bool(gen.random() < fall_probability)
        objects.append(SceneObject(
            kind=ObjectKind.VIP,
            x=float(gen.uniform(-0.45, 0.45)),
            z=float(gen.uniform(2.5, 9.0)),   # drone follows close behind
            height_m=float(gen.uniform(*_PERSON_HEIGHT_RANGE)),
            pose_angle=float(gen.uniform(1.1, 1.45)) if fall
            else float(gen.uniform(-0.12, 0.12)),
            walking_phase=float(gen.uniform(0, 2 * np.pi)),
        ))

    def add(kind: ObjectKind, n: int, hr: Tuple[float, float],
            zmin: float = 4.0, zmax: float = 25.0) -> None:
        for _ in range(n):
            objects.append(SceneObject(
                kind=kind,
                x=float(gen.uniform(-0.95, 0.95)),
                z=float(gen.uniform(zmin, zmax)),
                height_m=float(gen.uniform(*hr)),
                pose_angle=float(gen.uniform(-0.1, 0.1)),
                walking_phase=float(gen.uniform(0, 2 * np.pi)),
            ))

    if sub.pedestrians:
        add(ObjectKind.PEDESTRIAN, int(gen.integers(1, 4)),
            _PERSON_HEIGHT_RANGE)
    if sub.bicycles:
        add(ObjectKind.BICYCLE, int(gen.integers(1, 3)),
            _BICYCLE_HEIGHT_RANGE)
    if sub.parked_cars:
        add(ObjectKind.PARKED_CAR, int(gen.integers(1, 4)),
            _CAR_HEIGHT_RANGE, zmin=5.0)
    if sub.clutter:
        add(ObjectKind.TREE, int(gen.integers(1, 3)), _TREE_HEIGHT_RANGE,
            zmin=6.0)
        add(ObjectKind.LAMP_POST, int(gen.integers(0, 2)),
            _POST_HEIGHT_RANGE, zmin=6.0)
        add(ObjectKind.BIN, int(gen.integers(0, 2)), _BIN_HEIGHT_RANGE)

    adversarial: Tuple[str, ...] = ()
    severity = 0.0
    lighting = Lighting(brightness=float(gen.uniform(0.85, 1.0)),
                        haze=float(gen.uniform(0.0, 0.25)))
    if sub.category is Category.ADVERSARIAL:
        from ..image.augment import AdversarialKind
        kinds = list(AdversarialKind)
        n = int(gen.integers(1, 3))
        picked = gen.choice(len(kinds), size=n, replace=False)
        adversarial = tuple(kinds[int(i)].value for i in picked)
        severity = float(gen.uniform(0.35, 1.0))

    camera = CameraSpec(
        height_m=float(gen.uniform(1.2, 2.4)),
        roll_deg=float(gen.uniform(-4.0, 4.0)),
        horizon=float(gen.uniform(0.3, 0.45)),
    )
    return SceneSpec(
        subcategory_key=sub.key,
        camera=camera,
        lighting=lighting,
        ground=_ground_for(sub),
        objects=tuple(objects),
        adversarial=adversarial,
        severity=severity,
    )
