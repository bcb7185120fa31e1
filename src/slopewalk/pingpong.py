"""Planner and checker for annulus-walk certificates.

connect(i, i') emits an ordered list of moves joining the boundary annuli
X_i and X_{i'} through X_1: a seed point on X_i whose twin lands on an
X_{2^a - 1}, a within-annulus hop to the wild weight-2 point there, a twin
down to X_1, and the mirror image of that construction back up to X_{i'}.
verify_certificate re-derives every numeric claim once (annulus indices,
twin arithmetic, classicality, construction shapes), checks the assumptions
block against the moves, and returns violations as data, never exceptions.
Each distinct violation is reported once. The index-sum relation
i + i' = (k-1)/v(w) follows from the twin arithmetic once both indices are
integers, so it is not checked apart. Indices (which decide membership)
and shapes are integer closed forms in (k, m) and the slope's numerator
and denominator; the planner checks its own points the same way and raises
InvariantError when one is off, so no check depends on assert.

The certificate JSON schema (version 1):

    {"schema": 1,
     "endpoints": [i, i'],
     "moves": [{"kind": ..., "from": point, "to": point, "justification": ...}],
     "assumptions": [{"kind": ..., "tag": ..., "move": ..., "status": ...}]}

Certificates trust one geometric axiom, recorded explicitly in every
assumptions block: two boundary points on the same X_i lie on a common
irreducible component (tag same_annulus_same_component). Analytic
hypotheses consumed by within-annulus moves (n-regularity, large image,
non-CM) are recorded as labeled assumptions; they can be discharged
separately for concrete eigensystems via spaces.is_n_regular.
"""

from __future__ import annotations

from collections import Counter, namedtuple
from fractions import Fraction

from .eigencurve import (
    EigencurvePointModel,
    annulus_index,
    below_k_minus_1,
    boundary_point,
    twin,
)
from .errors import ConstraintViolated, InvariantError, PreconditionError, SlopewalkError
from .serialize import json_scalar
from .weightspace import WeightCharacter

SCHEMA_VERSION = 1

KIND_START = "start"
KIND_WITHIN = "within_annulus"
KIND_TWIN = "twin"
KINDS = (KIND_START, KIND_WITHIN, KIND_TWIN)

JUSTIFICATIONS = (
    "lem_propagation",
    "lem_slope_of_twin_point",
    "lem_ping_pong",
    "lem_first_step",
    "lem_induction_step",
)

AXIOM_TAG = "same_annulus_same_component"


def _require_object(obj, what: str) -> None:
    if not isinstance(obj, dict):
        raise PreconditionError(f"{what} must be a JSON object, got {type(obj).__name__}")


class Move(namedtuple("Move", "kind src dst justification")):
    __slots__ = ()
    kind: str
    src: EigencurvePointModel
    dst: EigencurvePointModel
    justification: str

    def to_json_obj(self) -> dict:
        return {
            "kind": self.kind,
            "from": self.src.to_json_obj(),
            "to": self.dst.to_json_obj(),
            "justification": self.justification,
        }

    @classmethod
    def from_json_obj(cls, obj: dict) -> "Move":
        return cls(
            json_scalar(obj["kind"], str),
            EigencurvePointModel.from_json_obj(obj["from"]),
            EigencurvePointModel.from_json_obj(obj["to"]),
            json_scalar(obj["justification"], str),
        )


class Assumption(namedtuple("Assumption", "kind tag move status")):
    __slots__ = ()
    kind: str  # "axiom" or "hypothesis"
    tag: str
    move: int | None
    status: str  # "declared", "assumed", or "checked"

    def to_json_obj(self) -> dict:
        return {"kind": self.kind, "tag": self.tag, "move": self.move, "status": self.status}

    @classmethod
    def from_json_obj(cls, obj: dict) -> "Assumption":
        _require_object(obj, "assumption")
        move = obj.get("move")
        move = None if move is None else json_scalar(move, int)
        kind, tag, status = (json_scalar(obj[name], str) for name in ("kind", "tag", "status"))
        return cls(kind, tag, move, status)


class Violation(namedtuple("Violation", "move code detail")):
    __slots__ = ()
    move: int | None
    code: str
    detail: str


class PingPongCertificate(namedtuple("PingPongCertificate", "endpoints moves assumptions")):
    __slots__ = ()
    endpoints: tuple[int, int]
    moves: tuple[Move, ...]
    assumptions: tuple[Assumption, ...]

    def to_json_obj(self) -> dict:
        return {
            "schema": SCHEMA_VERSION,
            "endpoints": list(self.endpoints),
            "moves": [m.to_json_obj() for m in self.moves],
            "assumptions": [a.to_json_obj() for a in self.assumptions],
        }

    @classmethod
    def from_json_obj(cls, obj: dict) -> "PingPongCertificate":
        _require_object(obj, "certificate")
        if json_scalar(obj.get("schema", -1), int) != SCHEMA_VERSION:
            raise PreconditionError(f"unsupported certificate schema {obj.get('schema')!r}")
        endpoints = json_scalar(obj["endpoints"], list)
        if len(endpoints) != 2:
            raise PreconditionError("endpoints must be a pair")
        return cls(
            tuple(json_scalar(x, int) for x in endpoints),
            tuple(Move.from_json_obj(m) for m in obj["moves"]),
            tuple(Assumption.from_json_obj(a) for a in obj.get("assumptions", [])),
        )


def _smallest_wild_exponent(i: int) -> int:
    """Smallest m with 2^m - 1 > i, i.e. 2^m > i + 1 (for i >= 0)."""
    return (i + 1).bit_length()


def _first_step_seed(i: int, m: int) -> EigencurvePointModel:
    k = 2 * i + (2 << m) - 1
    return EigencurvePointModel(WeightCharacter(k, 0), Fraction(2 * i))


def _ensure(ok: bool, claim: str) -> None:
    """A planner invariant, kept under python -O."""
    if not ok:
        raise InvariantError(f"walk planner: {claim}")


def first_step(i: int, m: int):
    """Seed point on X_i with twin on X_{2^m - 1}.

    The seed has weight 2i + 2^(m+1) - 1 (odd, so v(w) = 2) and slope 2i;
    the constraint 2^m - 1 > i guarantees the two refinements have distinct
    slopes. Returns (seed, twin_point, moves).
    """
    if i < 1:
        raise PreconditionError(f"annulus index must be >= 1, got {i}")
    if m < 1 or (1 << m) - 1 <= i:
        raise ConstraintViolated(f"need 2^m - 1 > i, got m={m}, i={i}")
    z_prime = _first_step_seed(i, m)
    _ensure(annulus_index(z_prime) == i, f"seed off X_{i}")
    s = z_prime.slope
    _ensure(2 * s.numerator != (z_prime.k - 1) * s.denominator, "seed refinements share a slope")
    z_doubleprime = twin(z_prime)
    _ensure(annulus_index(z_doubleprime) == (1 << m) - 1, f"seed twin off X_{(1 << m) - 1}")
    moves = (
        Move(KIND_START, z_prime, z_prime, "lem_first_step"),
        Move(KIND_TWIN, z_prime, z_doubleprime, "lem_slope_of_twin_point"),
    )
    return z_prime, z_doubleprime, moves


def induction_step(m: int):
    """Wild weight-2 point on X_{2^m - 1} whose twin lies on X_1.

    For m >= 2 the point has character (k=2, wild exponent m+1) and slope
    1 - 2^(-m), strictly between 1/2 and 1, so its refinements have distinct
    slopes. For m = 1 the annulus X_{2^m - 1} already is X_1 and no move is
    needed. Returns (z_doubleprime, z_prime, moves).
    """
    if m < 1:
        raise PreconditionError(f"need m >= 1, got {m}")
    if m == 1:
        z = boundary_point(1, WeightCharacter(2, 2))
        return z, z, ()
    top = (1 << m) - 1
    z_doubleprime = EigencurvePointModel(WeightCharacter(2, m + 1), Fraction(top, top + 1))
    _ensure(annulus_index(z_doubleprime) == top, f"induction point off X_{top}")
    s = z_doubleprime.slope
    _ensure(s.denominator < 2 * s.numerator < 2 * s.denominator, "induction slope outside (1/2, 1)")
    z_prime = twin(z_doubleprime)
    _ensure(annulus_index(z_prime) == 1, "induction twin off X_1")
    moves = (Move(KIND_TWIN, z_doubleprime, z_prime, "lem_ping_pong"),)
    return z_doubleprime, z_prime, moves


def _standard_assumptions(moves) -> tuple[Assumption, ...]:
    out = [Assumption("axiom", AXIOM_TAG, None, "declared")]
    for j, mv in enumerate(moves):
        if mv.kind == KIND_WITHIN:
            out.append(Assumption("hypothesis", "n_regular", j, "assumed"))
            out.append(Assumption("hypothesis", "sl2_image_non_cm", j, "assumed"))
    return tuple(out)


def connect(i_start: int, i_end: int) -> PingPongCertificate:
    """Certificate routing X_{i_start} to X_{i_end} through X_1.

    Always the same route shape: at most 8 moves (1 for i_start == i_end),
    never optimized.
    """
    if i_start < 1 or i_end < 1:
        raise PreconditionError("annulus indices must be >= 1")
    if i_start == i_end:
        z = _first_step_seed(i_start, _smallest_wild_exponent(i_start))
        moves = (Move(KIND_START, z, z, "lem_first_step"),)
        return PingPongCertificate((i_start, i_end), moves, _standard_assumptions(moves))
    a = _smallest_wild_exponent(i_start)
    b = _smallest_wild_exponent(i_end)
    z1, z2, head = first_step(i_start, a)
    z3, z4, ping = induction_step(a)  # a >= 2, so ping is one twin move
    z5_twin, z5, _ = induction_step(b)  # z5 on X_1, its twin z5_twin = z6
    z8, z7, _ = first_step(i_end, b)
    moves = head + (Move(KIND_WITHIN, z2, z3, "lem_induction_step"),) + ping + (
        Move(KIND_WITHIN, z4, z5, "lem_propagation"),
        Move(KIND_TWIN, z5, z5_twin, "lem_ping_pong"),
        Move(KIND_WITHIN, z5_twin, z7, "lem_first_step"),
        Move(KIND_TWIN, z7, z8, "lem_slope_of_twin_point"),
    )
    return PingPongCertificate((i_start, i_end), moves, _standard_assumptions(moves))


# -- checker ------------------------------------------------------------------

def _index_or_violation(j, pt, violations) -> int | None:
    try:
        return annulus_index(pt)
    except SlopewalkError as exc:
        violations.append(Violation(j, type(exc).__name__, str(exc)))
        return None


def _check_first_step_shape(j, pt, twin_side: bool, violations) -> None:
    """Seed form: slope 2i, weight 2i + 2^(m+1) - 1, 2^m - 1 > i.
    Twin side sees the same point after the involution."""
    ok = pt.wc.m == 0 and pt.slope.denominator == 1
    if ok:
        s = pt.slope.numerator
        if twin_side:
            s = pt.k - 1 - s
        gap = pt.k - s + 1  # should be 2^(m+1)
        ok = s >= 2 and s % 2 == 0 and gap >= 4 and gap & (gap - 1) == 0 and gap // 2 - 1 > s // 2
    if not ok:
        violations.append(
            Violation(j, "FirstStepForm", f"point {pt.to_json_obj()} is not a first-step anchor")
        )


def _check_induction_shape(j, pt, violations) -> None:
    """Induction form: weight 2, wild exponent m >= 3, slope 1 - 2^(1-m)."""
    m, s = pt.wc.m, pt.slope
    if not (pt.k == 2 and m >= 3 and s.denominator == 1 << (m - 1) and s.numerator == s.denominator - 1):
        violations.append(
            Violation(j, "InductionForm", f"point {pt.to_json_obj()} is not an induction anchor")
        )


def verify_certificate(cert: PingPongCertificate) -> list[Violation]:
    """Re-derive every arithmetic claim; an empty list means the certificate
    is accepted. Each distinct violation is listed once, in first-seen order."""
    violations: list[Violation] = []
    if len(cert.moves) == 0:
        return [Violation(None, "Empty", "certificate has no moves")]
    if any(e < 1 for e in cert.endpoints):
        violations.append(Violation(None, "BadEndpoints", f"endpoints {cert.endpoints}"))
    for j, mv in enumerate(cert.moves):
        if mv.kind not in KINDS:
            violations.append(Violation(j, "BadKind", f"unknown kind {mv.kind!r}"))
            continue
        if mv.justification not in JUSTIFICATIONS:
            violations.append(Violation(j, "BadJustification", f"{mv.justification!r}"))
        src_idx = _index_or_violation(j, mv.src, violations)
        dst_idx = _index_or_violation(j, mv.dst, violations)
        if mv.kind == KIND_START:
            if j != 0:
                violations.append(Violation(j, "StartMisplaced", "start move after position 0"))
            if mv.src != mv.dst:
                violations.append(Violation(j, "StartNotFixed", "start move must not change the point"))
        elif mv.kind == KIND_WITHIN:
            if src_idx is not None and dst_idx is not None and src_idx != dst_idx:
                violations.append(
                    Violation(j, "IndexMismatch", f"within-annulus move {src_idx} -> {dst_idx}")
                )
            for pt in (mv.src, mv.dst):
                if not below_k_minus_1(pt.slope, pt.k):
                    violations.append(
                        Violation(j, "NotClassical", f"slope {pt.slope} >= k-1 = {pt.k - 1}")
                    )
                if not pt.classical_claim:
                    violations.append(Violation(j, "ClassicalClaimMissing", "endpoint not claimed classical"))
        elif mv.kind == KIND_TWIN:
            if not mv.src.pc:
                violations.append(
                    Violation(j, "NotPotentiallyCrystalline", "twin applied to a non-pc point")
                )
            else:
                try:
                    expected = twin(mv.src)
                except ValueError as exc:
                    violations.append(Violation(j, "TwinUndefined", str(exc)))
                else:
                    if mv.dst != expected:
                        violations.append(
                            Violation(j, "TwinArithmetic", f"expected twin {expected.to_json_obj()}")
                        )
        # construction-shape checks keyed by justification
        if mv.justification == "lem_first_step":
            if mv.kind == KIND_START:
                _check_first_step_shape(j, mv.src, False, violations)
            elif mv.kind == KIND_WITHIN:
                _check_first_step_shape(j, mv.dst, True, violations)
        if mv.justification == "lem_induction_step" and mv.kind == KIND_WITHIN:
            _check_induction_shape(j, mv.dst, violations)
    for j in range(len(cert.moves) - 1):
        if cert.moves[j].dst != cert.moves[j + 1].src:
            violations.append(Violation(j + 1, "ChainBroken", "move does not start where the previous ended"))
    ends = (
        (0, cert.moves[0].src, cert.endpoints[0], "first point off the start annulus"),
        (len(cert.moves) - 1, cert.moves[-1].dst, cert.endpoints[1], "last point off the end annulus"),
    )
    for j, pt, end, detail in ends:
        try:
            if annulus_index(pt) != end:
                violations.append(Violation(j, "EndpointMismatch", detail))
        except SlopewalkError:
            pass  # already reported as a per-point violation
    if not _assumptions_match(cert):
        violations.append(
            Violation(None, "AssumptionsMismatch", "assumptions block is not the one the moves consume")
        )
    # an invalid point on both sides of one move gives the same (move, code,
    # detail) twice; it is reported once
    return list(dict.fromkeys(violations))


def _assumptions_match(cert: PingPongCertificate) -> bool:
    """The block declares the axiom and labels each within-annulus move's
    hypotheses, in any order, and nothing else."""
    expected = Counter((a.kind, a.tag, a.move) for a in _standard_assumptions(cert.moves))
    return Counter((a.kind, a.tag, a.move) for a in cert.assumptions) == expected and all(
        a.status == "declared" if a.kind == "axiom" else a.status in ("assumed", "checked")
        for a in cert.assumptions
    )


def verify_certificate_json(obj) -> list[Violation]:
    """Total-function checker over raw JSON: malformed input becomes a
    violation instead of an exception."""
    try:
        cert = PingPongCertificate.from_json_obj(obj)
    except (SlopewalkError, ValueError, KeyError, TypeError, ArithmeticError) as exc:
        return [Violation(None, "Malformed", f"{type(exc).__name__}: {exc}")]
    return verify_certificate(cert)
