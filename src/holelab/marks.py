"""Mark (hole radius factor) distributions and their closed-form moments."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

INF = math.inf


@dataclass(frozen=True)
class MarkDistribution:
    """I.i.d. law of the radius factor attached to each point.

    ``beta_eff`` is the exponent used in rate predictions: the largest b
    (minus a safety margin) such that the (d-2+b)-moment is finite.  For
    bounded laws it is the +inf sentinel.  Pareto laws are normalised so
    that the (d-2+beta_eff)-moment equals one.
    """

    kind: str                      # "constant" | "uniform" | "pareto"
    params: tuple = ()
    beta_eff: float = INF
    eta_margin: float = 0.05

    @staticmethod
    def constant(r: float) -> "MarkDistribution":
        if r < 0:
            raise ValueError("constant mark must be >= 0")
        return MarkDistribution("constant", (float(r),))

    @staticmethod
    def uniform(lo: float, hi: float) -> "MarkDistribution":
        if not 0 <= lo < hi:
            raise ValueError("uniform marks need 0 <= lo < hi")
        return MarkDistribution("uniform", (float(lo), float(hi)))

    @staticmethod
    def pareto(alpha: float, x_min: float, d: int, eta_margin: float = 0.05) -> "MarkDistribution":
        if alpha <= d - 2:
            raise ValueError("pareto tail index must exceed d-2")
        beta = alpha - (d - 2) - eta_margin
        if beta <= 0:
            raise ValueError("effective beta must be positive; reduce eta_margin")
        return MarkDistribution("pareto", (float(alpha), float(x_min)), beta, eta_margin)

    @staticmethod
    def pareto_for_beta(d: int, beta_eff: float, eta_margin: float = 0.05) -> "MarkDistribution":
        """Pareto law with given effective beta, scaled so E[rho^(d-2+beta_eff)] = 1."""
        alpha = (d - 2) + beta_eff + eta_margin
        p = (d - 2) + beta_eff
        # E[rho^p] = alpha x^p / (alpha - p) = 1  =>  x = (eta/alpha)^(1/p)
        x_min = (eta_margin / alpha) ** (1.0 / p)
        return MarkDistribution("pareto", (alpha, x_min), beta_eff, eta_margin)

    # ------------------------------------------------------------------
    def moment(self, p: float) -> float:
        """Closed-form E[rho^p]; +inf when the tail integral diverges."""
        if p < 0:
            raise ValueError("moment order must be >= 0")
        if self.kind == "constant":
            (r,) = self.params
            return r ** p
        if self.kind == "uniform":
            lo, hi = self.params
            return (hi ** (p + 1) - lo ** (p + 1)) / ((p + 1) * (hi - lo))
        alpha, x = self.params
        if p >= alpha:
            return INF
        return alpha * x ** p / (alpha - p)

    def truncated_moment(self, p: float, t: float) -> float:
        """E[rho^p 1_{rho < t}] in closed form (always finite)."""
        if self.kind == "constant":
            (r,) = self.params
            return r ** p if r < t else 0.0
        if self.kind == "uniform":
            lo, hi = self.params
            top = min(hi, t)
            if top <= lo:
                return 0.0
            return (top ** (p + 1) - lo ** (p + 1)) / ((p + 1) * (hi - lo))
        alpha, x = self.params
        if t <= x:
            return 0.0
        if p == alpha:
            return alpha * x ** alpha * math.log(t / x)
        return alpha * x ** alpha * (t ** (p - alpha) - x ** (p - alpha)) / (p - alpha)

    def tail(self, t) -> np.ndarray:
        """P(rho > t), vectorised in t."""
        t = np.asarray(t, dtype=float)
        if self.kind == "constant":
            (r,) = self.params
            return (t < r).astype(float)
        if self.kind == "uniform":
            lo, hi = self.params
            return np.clip((hi - t) / (hi - lo), 0.0, 1.0)
        alpha, x = self.params
        return np.where(t <= x, 1.0, (x / np.maximum(t, x)) ** alpha)

    def quantile(self, u: np.ndarray) -> np.ndarray:
        """Inverse CDF; maps uniforms in [0,1) to mark values."""
        u = np.asarray(u, dtype=float)
        if self.kind == "constant":
            (r,) = self.params
            return np.full_like(u, r)
        if self.kind == "uniform":
            lo, hi = self.params
            return lo + (hi - lo) * u
        alpha, x = self.params
        out = 1.0 - u                   # the rest runs in place (a 0-d u gives scalars)
        out **= -1.0 / alpha
        out *= x
        return out

    def to_json(self) -> dict:
        out = {"kind": self.kind, "beta_eff": None if math.isinf(self.beta_eff) else self.beta_eff}
        if self.kind == "constant":
            out["r"] = self.params[0]
        elif self.kind == "uniform":
            out["lo"], out["hi"] = self.params
        else:
            out["alpha"], out["x_min"] = self.params
            out["eta_margin"] = self.eta_margin
        return out

    @staticmethod
    def from_json(obj: dict, d: int) -> "MarkDistribution":
        kind = obj["kind"]
        if kind == "constant":
            return MarkDistribution.constant(obj["r"])
        if kind == "uniform":
            return MarkDistribution.uniform(obj["lo"], obj["hi"])
        if kind == "pareto":
            eta = obj.get("eta_margin", 0.05)
            if "alpha" in obj and "x_min" in obj:
                dist = MarkDistribution.pareto(obj["alpha"], obj["x_min"], d, eta)
                if obj.get("beta_eff") is not None:
                    # keep the stored effective beta bit-for-bit
                    dist = MarkDistribution("pareto", dist.params, obj["beta_eff"], eta)
                return dist
            return MarkDistribution.pareto_for_beta(d, obj["beta_eff"], eta)
        raise ValueError(f"unknown mark kind {kind!r}")
