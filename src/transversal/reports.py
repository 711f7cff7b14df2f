"""Check reports, and the one error-bar record every estimate returns.

Every check produces a CheckReport whose claim is normalized to the
orientation ``lhs <= rhs`` (equality checks set ``details["relation"]`` to
"eq").  Verdicts: "pass" when the claim holds within a relative band,
"inconclusive" when a violation is within three Monte Carlo standard errors,
"fail" otherwise.

An ``Estimate`` is a value with its error bar, whatever route produced it:
a volume, a visibility, or a Monte Carlo tuple quantity.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

import numpy as np

#: relative slack applied to every comparison
REL_BAND = 1e-9
#: absolute floor of the comparison band
ABS_BAND = 1e-12


def _canon(obj):
    """Canonical JSON-ready form used for instance fingerprints."""
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, float):
        return float(obj)
    if isinstance(obj, (np.floating, np.integer)):
        return _canon(obj.item())
    if isinstance(obj, np.ndarray):
        return [_canon(x) for x in obj.tolist()]
    if isinstance(obj, (list, tuple)):
        return [_canon(x) for x in obj]
    if isinstance(obj, dict):
        return {str(k): _canon(v) for k, v in sorted(obj.items())}
    if hasattr(obj, "to_dict"):
        return _canon(obj.to_dict())
    if hasattr(obj, "__dict__"):
        return _canon(vars(obj))
    return repr(obj)


def fingerprint(*parts) -> str:
    """First 12 hex digits of the SHA-256 of the canonical JSON encoding."""
    payload = json.dumps(_canon(list(parts)), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:12]


def verdict_leq(lhs, rhs, mc_error=0.0, rel=REL_BAND, abs_=ABS_BAND) -> str:
    """Verdict for the claim lhs <= rhs with a Monte Carlo allowance."""
    violation = lhs - rhs
    band = rel * abs(rhs) + abs_
    if violation <= band:
        return "pass"
    if violation <= 3.0 * mc_error + band:
        return "inconclusive"
    return "fail"


@dataclass(frozen=True)
class Estimate:
    """A value and its error bar: a Monte Carlo standard error, a quadrature
    n/2n gap, or 0 for an exact value.  ``method`` names the route and
    ``n_samples`` counts its Monte Carlo draws (0 on the other routes)."""

    value: float
    std_error: float
    method: str
    n_samples: int = 0

    def root(self, k):
        """value^(1/k) with the delta-method error |value^(1/k) se / (k value)|."""
        value = self.value ** (1.0 / k)
        se = abs(value * self.std_error / (k * self.value)) if self.std_error else 0.0
        return Estimate(value, se, self.method, self.n_samples)


@dataclass
class CheckReport:
    check_id: str
    instance: str
    lhs: float
    rhs: float
    constant: float
    margin: float
    mc_error: float
    verdict: str
    seed: int
    runtime_ms: float = 0.0
    details: dict = field(default_factory=dict)

    def to_dict(self, timings=False):
        return {
            "check_id": self.check_id,
            "instance": self.instance,
            "lhs": float(self.lhs),
            "rhs": float(self.rhs),
            "constant": None if self.constant is None else float(self.constant),
            "margin": float(self.margin),
            "mc_error": float(self.mc_error),
            "verdict": self.verdict,
            "seed": int(self.seed),
            "runtime_ms": float(self.runtime_ms) if timings else 0.0,
            "details": _canon(self.details),
        }

    @property
    def passed(self):
        return self.verdict == "pass"


def make_report(
    check_id,
    instance_parts,
    lhs,
    rhs,
    *,
    constant=None,
    constant_formula="",
    mc_error=0.0,
    verdict=None,
    seed=0,
    details=None,
) -> CheckReport:
    """Assemble a CheckReport; default verdict is the lhs <= rhs comparison."""
    details = dict(details or {})
    if constant_formula:
        details.setdefault("constant_formula", constant_formula)
    if verdict is None:
        verdict = verdict_leq(lhs, rhs, mc_error)
    return CheckReport(
        check_id=check_id,
        instance=fingerprint(*instance_parts),
        lhs=float(lhs),
        rhs=float(rhs),
        constant=constant,
        margin=float(rhs) - float(lhs),
        mc_error=float(mc_error),
        verdict=verdict,
        seed=int(seed),
        details=details,
    )
