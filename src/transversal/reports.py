"""Check reports, the claims they judge, and the one error-bar record every
estimate returns.

A check states its sub-claims (both sides of a sandwich, an identity, an
equality case, a printed constant reported but not asserted) as ``Claim``
records.  ``make_report`` keeps the worst verdict of the asserted claims;
the report's top-level lhs/rhs are its first asserted claim.

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


def verdict_leq(lhs, rhs, mc_error=0.0) -> str:
    """Verdict for the claim lhs <= rhs with a Monte Carlo allowance."""
    violation = lhs - rhs
    band = REL_BAND * abs(rhs) + ABS_BAND
    if violation <= band:
        return "pass"
    if violation <= 3.0 * mc_error + band:
        return "inconclusive"
    return "fail"


#: verdicts from worst to best
SEVERITY = ("fail", "inconclusive", "pass")

_RELATIONS = {
    "leq": lambda c: verdict_leq(c.lhs, c.rhs, c.error),
    "eq": lambda c: "pass" if abs(c.lhs - c.rhs) <= c.tol else "fail",
    "lt": lambda c: "pass" if c.rhs - c.lhs > c.tol else "fail",
}


@dataclass(frozen=True)
class Claim:
    """One sub-claim ``lhs <relation> rhs`` of a check.  ``leq`` is judged by
    ``verdict_leq`` with ``error`` as the error bar, ``eq`` holds when
    |lhs - rhs| <= tol and ``lt`` when rhs - lhs > tol.  An unasserted claim
    (a printed constant) is reported and never moves the verdict."""

    name: str
    lhs: float
    rhs: float
    relation: str = "leq"
    error: float = 0.0
    tol: float = 0.0
    asserted: bool = True

    def verdict(self):
        return _RELATIONS[self.relation](self)

    def to_dict(self):
        keys = ("name", "lhs", "rhs", "relation", "asserted")
        return {**{k: getattr(self, k) for k in keys}, "verdict": self.verdict()}


def worst_verdict(claims):
    """The worst verdict of the asserted claims; inconclusive when none is."""
    verdicts = [c.verdict() for c in claims if c.asserted]
    return min(verdicts, key=SEVERITY.index, default="inconclusive")


def ok_flags(claims):
    """``{"<name>_ok": passed}`` for each claim, the boolean form of its verdict."""
    return {f"{c.name}_ok": c.verdict() == "pass" for c in claims}


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


def make_report(
    check_id,
    instance_parts,
    lhs,
    rhs,
    *,
    constant=None,
    constant_formula="",
    mc_error=0.0,
    claims=None,
    seed=0,
    details=None,
) -> CheckReport:
    """Assemble a CheckReport judged by ``claims`` (default: lhs <= rhs within mc_error)."""
    if claims is None:
        claims = [Claim("bound", lhs, rhs, error=mc_error)]
    details = dict(details or {}, claims=list(claims))
    if constant_formula:
        details.setdefault("constant_formula", constant_formula)
    return CheckReport(
        check_id=check_id,
        instance=fingerprint(*instance_parts),
        lhs=float(lhs),
        rhs=float(rhs),
        constant=constant,
        margin=float(rhs) - float(lhs),
        mc_error=float(mc_error),
        verdict=worst_verdict(claims),
        seed=int(seed),
        details=details,
    )
