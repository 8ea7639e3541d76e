import json

import jsonschema
import pytest

from jacmate.poly import parse_polynomial
from jacmate.polygon import corollary_certificate
from jacmate.tongue import tongue_certificate
from jacmate.falsifier import random_trials
from jacmate.certificate import (
    CERTIFICATE_SCHEMA,
    INCONCLUSIVE,
    NO_REAL_JACOBIAN_MATE,
    NOT_COVERED,
    CertificateDocument,
    build_certificate,
    document_to_dict,
    emit_certificate_json,
)


def certify(p, **parts):
    return build_certificate(p, corollary_certificate(p), **parts)


def validate(doc):
    data = json.loads(emit_certificate_json(doc))
    jsonschema.validate(data, CERTIFICATE_SCHEMA)
    return data


def test_positive_certificate(p1):
    doc = certify(p1)
    assert doc.conclusion == NO_REAL_JACOBIAN_MATE
    data = validate(doc)
    assert data["conclusion"] == NO_REAL_JACOBIAN_MATE
    assert data["criterion"]["satisfied"] is True
    assert data["criterion"]["witness_edge"]["from"] == [0, 1]
    assert data["criterion"]["witness_edge"]["to"] == [1, 2]
    assert "tongue" not in data
    assert "falsifier_trials" not in data


def test_not_covered_certificate():
    doc = certify(parse_polynomial("x^2 + y^2"))
    assert doc.conclusion == NOT_COVERED
    data = validate(doc)
    assert data["criterion"]["satisfied"] is False
    assert data["criterion"]["witness_edge"] is None
    assert data["criterion"]["theta"] is None
    assert "no conclusion" in data["summary"]


def test_summary_wording(p3, swap_case):
    plain = certify(p3).summary
    assert "does not have a real Jacobian mate" in plain
    assert "(0, 1)" in plain and "(2, 2)" in plain
    assert "transform" not in plain
    swapped = certify(swap_case).summary
    assert "after a coordinate transform" in swapped


def test_full_document_with_tongue_and_trials(p3):
    tc = tongue_certificate(p3, corollary_certificate(p3))
    trials = random_trials(p3, 4)
    doc = certify(p3, tongue=tc, trials=trials)
    assert doc.conclusion == NO_REAL_JACOBIAN_MATE
    data = validate(doc)
    assert data["tongue"]["status"] == "Verified"
    assert len(data["falsifier_trials"]) == 4
    assert data["falsifier_summary"]["witness_rate"] == 1.0
    assert data["falsifier_summary"]["certified_input"] is True
    assert data["falsifier_summary"]["warning"] is None
    assert data["tongue"]["region"]["t0"] == "1/8"
    records = data["tongue"]["levels"]["records"]
    assert len(records) == 30
    assert all(r["ok"] for r in records)


def test_failed_tongue_downgrades_conclusion(p3):
    tc = tongue_certificate(p3, corollary_certificate(p3))
    failed = type(tc)(
        status="Failed",
        reasons=("synthetic",),
        region=tc.region,
        level_report=tc.level_report,
    )
    doc = certify(p3, tongue=failed)
    assert doc.conclusion == INCONCLUSIVE
    data = validate(doc)
    assert "did not pass" in data["summary"]


def test_conclusion_follows_from_the_parts(p3):
    # the conclusion is read off the criterion and the tongue, never stored:
    # a document cannot be built that disagrees with its parts
    crit = corollary_certificate(p3)
    doc = CertificateDocument(str(p3), crit, None, None)
    assert doc.conclusion == NO_REAL_JACOBIAN_MATE
    with pytest.raises(TypeError):
        CertificateDocument(str(p3), crit, None, None, NOT_COVERED)


def test_key_order_and_determinism(p3):
    doc = certify(p3)
    text1 = emit_certificate_json(doc)
    text2 = emit_certificate_json(certify(p3))
    assert text1 == text2
    data = json.loads(text1)
    assert list(data) == ["tool_version", "input", "conclusion", "summary", "criterion"]


def test_json_has_no_nan(p1):
    tc = tongue_certificate(p1, corollary_certificate(p1))
    doc = certify(p1, tongue=tc, trials=random_trials(p1, 2))
    text = emit_certificate_json(doc)
    assert "NaN" not in text and "Infinity" not in text
    json.loads(text)  # strict parse


def test_uncertified_input_warns():
    p = parse_polynomial("x^2 + y^2")
    summary = validate(certify(p, trials=random_trials(p, 2)))["falsifier_summary"]
    assert summary["certified_input"] is False
    assert summary["warning"] is not None


def test_schema_rejects_extra_top_level_keys(p3):
    data = document_to_dict(certify(p3))
    data["extra"] = 1
    with pytest.raises(jsonschema.ValidationError):
        jsonschema.validate(data, CERTIFICATE_SCHEMA)


def test_schema_rejects_bad_conclusion(p3):
    data = document_to_dict(certify(p3))
    data["conclusion"] = "PROVED"
    with pytest.raises(jsonschema.ValidationError):
        jsonschema.validate(data, CERTIFICATE_SCHEMA)


def test_input_round_trips_through_parser(p3):
    data = document_to_dict(certify(p3))
    assert parse_polynomial(data["input"]) == p3
