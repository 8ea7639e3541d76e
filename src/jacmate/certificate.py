"""Certificate documents: the tool's machine-readable conclusions.

A document couples the exact combinatorial certificate with the optional
tongue region checks and falsifier trials.  The headline conclusion is
only NO_REAL_JACOBIAN_MATE when the edge criterion holds and no enabled
check contradicts it; the document computes it from those parts, so it
cannot disagree with them.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .falsifier import MinRecord, NoRealZero, TrialReport, ZeroWitness
from .poly import BivariatePolynomial, Transform
from .polygon import CriterionCertificate, OuterEdge
from .tongue import FAILED, TongueCertificate

__all__ = [
    "NO_REAL_JACOBIAN_MATE",
    "INCONCLUSIVE",
    "NOT_COVERED",
    "CONCLUSIONS",
    "CERTIFICATE_SCHEMA",
    "CertificateDocument",
    "build_certificate",
    "edge_to_dict",
    "criterion_to_dict",
    "tongue_to_dict",
    "search_result_to_dict",
    "trials_to_list",
    "document_to_dict",
    "emit_certificate_json",
]

TOOL_VERSION = "0.1.0"

NO_REAL_JACOBIAN_MATE = "NO_REAL_JACOBIAN_MATE"
INCONCLUSIVE = "INCONCLUSIVE"
NOT_COVERED = "NOT_COVERED"
CONCLUSIONS = (NO_REAL_JACOBIAN_MATE, INCONCLUSIVE, NOT_COVERED)

UNCERTIFIED_WARNING = "input is not certified; a mate may exist and misses mean nothing"


def _expected_conclusion(
    criterion: CriterionCertificate, tongue: TongueCertificate | None
) -> str:
    if not criterion.satisfied:
        return NOT_COVERED
    if tongue is not None and tongue.status == FAILED:
        return INCONCLUSIVE
    return NO_REAL_JACOBIAN_MATE


@dataclass(frozen=True)
class CertificateDocument:
    input: str  # canonical polynomial text
    criterion: CriterionCertificate
    tongue: TongueCertificate | None
    falsifier_trials: TrialReport | None

    @property
    def conclusion(self) -> str:
        return _expected_conclusion(self.criterion, self.tongue)

    @property
    def summary(self) -> str:
        if self.conclusion == NO_REAL_JACOBIAN_MATE:
            edge = self.criterion.witness_edge
            via = ""
            t = self.criterion.transform_used
            if t is not None and (t.swap_xy or t.negate_x or t.negate_y):
                via = " after a coordinate transform"
            return (
                f"{self.input} does not have a real Jacobian mate: "
                f"right outer edge from {tuple(edge.start)} to {tuple(edge.end)} "
                f"has no interior lattice points{via}."
            )
        if self.conclusion == INCONCLUSIVE:
            return (
                f"{self.input}: edge criterion satisfied but the tongue region "
                f"check did not pass; see the tongue section."
            )
        return f"{self.input}: not covered by the edge criterion; no conclusion."


def build_certificate(
    p: BivariatePolynomial,
    criterion: CriterionCertificate,
    tongue: TongueCertificate | None = None,
    trials: TrialReport | None = None,
) -> CertificateDocument:
    """Document for p around its already decided edge criterion."""
    return CertificateDocument(str(p), criterion, tongue, trials)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def _transform_dict(t: Transform) -> dict:
    return {"swap_xy": t.swap_xy, "negate_x": t.negate_x, "negate_y": t.negate_y}


def edge_to_dict(edge: OuterEdge) -> dict:
    return {
        "from": list(edge.start),
        "to": list(edge.end),
        "normal": list(edge.normal),
        "slope": str(edge.slope),
        "is_right": edge.is_right,
    }


def criterion_to_dict(cert: CriterionCertificate) -> dict:
    return {
        "satisfied": cert.satisfied,
        "transform": _transform_dict(cert.transform_used),
        "witness_edge": None if cert.witness_edge is None else edge_to_dict(cert.witness_edge),
        "endpoints": None if cert.endpoints is None else [list(e) for e in cert.endpoints],
        "primitive_check": cert.primitive_check,
        "theta": None if cert.theta is None else str(cert.theta),
    }


def tongue_to_dict(tc: TongueCertificate) -> dict:
    out: dict = {"status": tc.status, "reasons": list(tc.reasons)}
    if tc.region is not None:
        r = tc.region
        out["region"] = {
            "transform": _transform_dict(r.transform),
            "flipped": r.flipped,
            "poly": str(r.poly),
            "x0": str(r.x0),
            "f_x0": r.profile.f_x0,
            "t0": str(r.profile.t0),
            "a": r.profile.a,
            "b": r.profile.b,
            "halfline": {"y": 0.0, "x_from": float(r.x0)},
        }
    if tc.level_report is not None:
        lv = tc.level_report
        out["levels"] = {
            "passed": lv.passed,
            "failures": list(lv.failures),
            "records": [
                {
                    "t": rec.t,
                    "classification": rec.classification,
                    "component_count": rec.component_count,
                    "boundary_endpoint_count": rec.boundary_endpoint_count,
                    "closed_loop_detected": rec.closed_loop_detected,
                    "ok": rec.ok,
                    "anomalies": list(rec.anomalies),
                    "bottom_endpoint_count": rec.bottom_endpoint_count,
                    "ends_at_infinity": rec.ends_at_infinity,
                }
                for rec in lv.records
            ],
            "exact_facts": list(lv.exact_facts),
        }
    return out


def search_result_to_dict(r: ZeroWitness | MinRecord | NoRealZero) -> tuple[str, dict]:
    """A search's answer as its outcome name and the body under that name."""
    if isinstance(r, ZeroWitness):
        return "witness", {
            "point": list(r.point),
            "jac_value": r.jac_value,
            "jac_exact": r.jac_exact,
            "method": r.method,
            "bracket": None if r.bracket is None else [str(v) for v in r.bracket],
        }
    if isinstance(r, NoRealZero):
        return "no_real_zero", {
            "sign": r.sign,
            "bound": str(r.bound),
            "root_free": list(r.root_free),
            "boxes_searched": r.boxes_searched,
        }
    return "min_record", {
        "best_point": list(r.best_point),
        "best_abs_jac": r.best_abs_jac,
        "boxes_searched": r.boxes_searched,
    }


def trials_to_list(report: TrialReport) -> list:
    out = []
    for tr in report.outcomes:
        outcome, body = search_result_to_dict(tr.result)
        out.append(
            {"index": tr.index, "seed": tr.seed, "q": tr.q_text, "outcome": outcome, outcome: body}
        )
    return out


def document_to_dict(doc: CertificateDocument) -> dict:
    out = {
        "tool_version": TOOL_VERSION,
        "input": doc.input,
        "conclusion": doc.conclusion,
        "summary": doc.summary,
        "criterion": criterion_to_dict(doc.criterion),
    }
    if doc.tongue is not None:
        out["tongue"] = tongue_to_dict(doc.tongue)
    if doc.falsifier_trials is not None:
        out["falsifier_trials"] = trials_to_list(doc.falsifier_trials)
        out["falsifier_summary"] = {
            "trials": len(doc.falsifier_trials.outcomes),
            "witness_rate": doc.falsifier_trials.witness_rate,
            "certified_input": doc.criterion.satisfied,
            "warning": None if doc.criterion.satisfied else UNCERTIFIED_WARNING,
        }
    return out


def emit_certificate_json(doc: CertificateDocument) -> str:
    return json.dumps(document_to_dict(doc), indent=2, allow_nan=False)


_PAIR = {"type": "array", "items": {"type": "integer"}, "minItems": 2, "maxItems": 2}
_TRANSFORM = {
    "type": "object",
    "required": ["swap_xy", "negate_x", "negate_y"],
    "properties": {
        "swap_xy": {"type": "boolean"},
        "negate_x": {"type": "boolean"},
        "negate_y": {"type": "boolean"},
    },
}
_EDGE = {
    "type": "object",
    "required": ["from", "to", "normal", "slope"],
    "properties": {
        "from": _PAIR,
        "to": _PAIR,
        "normal": _PAIR,
        "slope": {"type": "string"},
        "is_right": {"type": "boolean"},
    },
}

CERTIFICATE_SCHEMA = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "type": "object",
    "required": ["tool_version", "input", "conclusion", "summary", "criterion"],
    "additionalProperties": False,
    "properties": {
        "tool_version": {"type": "string"},
        "input": {"type": "string"},
        "conclusion": {"enum": list(CONCLUSIONS)},
        "summary": {"type": "string"},
        "criterion": {
            "type": "object",
            "required": ["satisfied", "transform", "witness_edge"],
            "properties": {
                "satisfied": {"type": "boolean"},
                "transform": _TRANSFORM,
                "witness_edge": {"oneOf": [{"type": "null"}, _EDGE]},
                "endpoints": {
                    "oneOf": [
                        {"type": "null"},
                        {"type": "array", "items": _PAIR, "minItems": 2, "maxItems": 2},
                    ]
                },
                "primitive_check": {"type": ["null", "integer"]},
                "theta": {"type": ["null", "string"]},
            },
        },
        "tongue": {
            "type": "object",
            "required": ["status", "reasons"],
            "properties": {
                "status": {"enum": ["Verified", "Inconclusive", "Failed"]},
                "reasons": {"type": "array", "items": {"type": "string"}},
                "region": {"type": "object"},
                "levels": {
                    "type": "object",
                    "required": ["passed", "records"],
                    "properties": {
                        "passed": {"type": "boolean"},
                        "records": {
                            "type": "array",
                            "items": {
                                "type": "object",
                                "required": ["t", "classification", "ok"],
                                "properties": {
                                    "t": {"type": "number"},
                                    "classification": {
                                        "enum": [
                                            "Empty",
                                            "SegmentWithBoundaryEndpoints",
                                            "ContainedInB",
                                        ]
                                    },
                                    "component_count": {"type": "integer"},
                                    "boundary_endpoint_count": {"type": "integer"},
                                    "closed_loop_detected": {"type": "boolean"},
                                    "ok": {"type": "boolean"},
                                    "anomalies": {
                                        "type": "array",
                                        "items": {"type": "string"},
                                    },
                                    "bottom_endpoint_count": {"type": "integer"},
                                    "ends_at_infinity": {"type": "integer"},
                                },
                            },
                        },
                        "exact_facts": {"type": "array", "items": {"type": "string"}},
                    },
                },
            },
        },
        "falsifier_trials": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["index", "seed", "q", "outcome"],
                "properties": {
                    "index": {"type": "integer"},
                    "seed": {"type": "integer"},
                    "q": {"type": "string"},
                    "outcome": {"enum": ["witness", "min_record", "no_real_zero"]},
                    "witness": {
                        "type": "object",
                        "required": ["point", "jac_value", "method"],
                        "properties": {
                            "point": {
                                "type": "array",
                                "items": {"type": "number"},
                                "minItems": 2,
                                "maxItems": 2,
                            },
                            "jac_value": {"type": "number"},
                            "jac_exact": {"type": "number"},
                            "method": {
                                "enum": [
                                    "ExactGridHit",
                                    "SignChangeBisection",
                                    "LocalMinimization",
                                ]
                            },
                            # y on the line x = point[0], exact rationals
                            "bracket": {
                                "oneOf": [
                                    {"type": "null"},
                                    {
                                        "type": "array",
                                        "items": {"type": "string"},
                                        "minItems": 2,
                                        "maxItems": 2,
                                    },
                                ]
                            },
                        },
                    },
                    "min_record": {
                        "type": "object",
                        "required": ["best_point", "best_abs_jac", "boxes_searched"],
                    },
                    # s * Jac - C > 0 on R^2, C the exact rational bound
                    "no_real_zero": {
                        "type": "object",
                        "required": ["sign", "bound", "root_free", "boxes_searched"],
                        "properties": {
                            "sign": {"enum": [1, -1]},
                            "bound": {"type": "string"},
                            "root_free": {"type": "array", "items": {"type": "string"}},
                            "boxes_searched": {"const": 0},
                        },
                    },
                },
            },
        },
        "falsifier_summary": {
            "type": "object",
            "required": ["trials", "witness_rate"],
            "properties": {
                "trials": {"type": "integer"},
                "witness_rate": {"type": "number"},
                "certified_input": {"type": "boolean"},
                "warning": {"type": ["null", "string"]},
            },
        },
    },
}
