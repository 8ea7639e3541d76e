"""Records store only their independent facts: a derived one cannot be passed in."""

import dataclasses

import pytest

from jacmate.branches import branch_candidates
from jacmate.falsifier import find_jacobian_zero
from jacmate.poly import parse_polynomial
from jacmate.polygon import corollary_certificate, newton_polygon, right_outer_edges
from jacmate.tongue import tongue_certificate


@pytest.fixture(scope="module")
def records():
    """One instance of each of the eight records, keyed by class name."""
    p = parse_polynomial("y + x^2*y^2")
    criterion = corollary_certificate(p)
    tongue = tongue_certificate(p, criterion)
    # an even face root, so the asymptote carries sign probes
    q = parse_polynomial("2*x^2*y^2 - 4*x^2*y + 2*x^2 + 2*y^5 - y^2 - 2*y + 1")
    (asym,) = branch_candidates(q, right_outer_edges(newton_polygon(q))[0])
    return {
        "CriterionCertificate": criterion,
        "OuterEdge": criterion.witness_edge,
        "BranchAsymptote": asym,
        "SignProbe": asym.probes[0],
        "LevelRecord": tongue.level_report.records[-1],
        "RestrictionProfile": tongue.region.profile,
        # Jac = x^200 + 1, which the miss proof refuses, and 1 + 3y^2 + x^2
        "MinRecord": find_jacobian_zero(parse_polynomial("1/201*x^201 + x"), parse_polynomial("y")),
        "NoRealZero": find_jacobian_zero(parse_polynomial("x"), parse_polynomial("y + y^3 + x^2*y")),
        "x0": tongue.region.x0,
    }


@pytest.mark.parametrize(
    "name, field",
    [
        ("CriterionCertificate", "satisfied"),
        ("CriterionCertificate", "endpoints"),
        ("CriterionCertificate", "primitive_check"),
        ("CriterionCertificate", "theta"),
        ("OuterEdge", "is_right"),
        ("OuterEdge", "slope"),
        ("BranchAsymptote", "c_interval"),
        ("BranchAsymptote", "c_star"),
        ("BranchAsymptote", "root_multiplicity"),
        ("BranchAsymptote", "theta"),
        ("BranchAsymptote", "existence"),
        ("SignProbe", "straddles"),
        ("LevelRecord", "component_count"),
        ("RestrictionProfile", "x0"),
        ("RestrictionProfile", "f_x0"),
        ("RestrictionProfile", "a"),
        ("RestrictionProfile", "b"),
        ("MinRecord", "boxes_searched"),
        ("NoRealZero", "bound"),
        ("NoRealZero", "boxes_searched"),
    ],
)
def test_a_derived_fact_cannot_be_passed_in(records, name, field):
    record = records[name]
    # the profile's x0 is the region's; every other fact is still read off the record
    value = records["x0"] if field == "x0" else getattr(record, field)
    with pytest.raises(TypeError):
        dataclasses.replace(record, **{field: value})
