"""Bounded star-shaped sampling domains."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class DomainDescriptor:
    """Axis-aligned cube of given half-width, or the unit ball.

    Both are bounded and star-shaped with respect to the origin.
    """

    shape: str = "axis_cube"       # "axis_cube" | "unit_ball"
    half_width: float = 1.0        # cube only; the ball has radius 1

    def __post_init__(self):
        if self.shape not in ("axis_cube", "unit_ball"):
            raise ValueError(f"unknown domain shape {self.shape!r}")
        if self.shape == "axis_cube" and self.half_width <= 0:
            raise ValueError("cube half-width must be positive")

    @property
    def radius(self) -> float:
        return self.half_width if self.shape == "axis_cube" else 1.0

    def volume(self, d: int) -> float:
        if self.shape == "axis_cube":
            return (2.0 * self.half_width) ** d
        return math.pi ** (d / 2) / math.gamma(d / 2 + 1)

    def contains(self, x: np.ndarray) -> np.ndarray:
        """Membership of physical points (closed set); x is (n, d) or (d,)."""
        x = np.atleast_2d(np.asarray(x, dtype=float))
        if self.shape == "axis_cube":
            return np.max(np.abs(x), axis=1) <= self.half_width
        return np.einsum("ij,ij->i", x, x) <= 1.0

    def inner_margin(self, lo: np.ndarray, hi: np.ndarray, margin: float) -> np.ndarray:
        """Per box [lo, hi] of the (m, d) corner arrays: does it lie in the
        domain at distance >= margin?"""
        corner = np.maximum(np.abs(lo), np.abs(hi))
        if self.shape == "axis_cube":
            return np.max(corner, axis=-1) <= self.half_width - margin
        return np.sqrt(np.sum(corner ** 2, axis=-1)) <= 1.0 - margin

    def box_intersects(self, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        """Per open box (lo, hi) of the (m, d) corner arrays: does it meet the
        domain in positive measure?"""
        if self.shape == "axis_cube":
            return np.all(lo < self.half_width, axis=-1) & np.all(hi > -self.half_width, axis=-1)
        nearest = np.clip(0.0, lo, hi)      # box point closest to the origin
        return np.sum(nearest ** 2, axis=-1) < 1.0

    def to_json(self) -> dict:
        out = {"shape": self.shape}
        if self.shape == "axis_cube":
            out["half_width"] = self.half_width
        return out

    @staticmethod
    def from_json(obj: dict) -> "DomainDescriptor":
        if obj["shape"] == "axis_cube":
            return DomainDescriptor("axis_cube", obj.get("half_width", 1.0))
        return DomainDescriptor("unit_ball")
