import pytest

from cudfsolve import (
    PARANOID,
    TRENDY,
    BadCriteria,
    CriteriaSeq,
    Criterion,
    Polarity,
    SignedCriterion,
    parse_criteria,
)


def test_paranoid_preset():
    assert parse_criteria("paranoid") is PARANOID
    # stored and printed most significant first
    assert [i.criterion for i in PARANOID.items] == [
        Criterion.REMOVED,
        Criterion.CHANGED,
    ]
    assert str(PARANOID) == "-removed,-changed"


def test_trendy_preset():
    assert parse_criteria("trendy") is TRENDY
    assert str(TRENDY) == "-removed,-notuptodate,-unsat_recommends,-new"
    assert all(i.polarity is Polarity.MINUS for i in TRENDY.items)


def test_parse_explicit_list_matches_preset():
    assert parse_criteria("-removed,-changed") == PARANOID


def test_parse_accepts_plus_signs_and_spaces():
    seq = parse_criteria(" -removed , +new ")
    assert seq.items == (
        SignedCriterion(Criterion.REMOVED, Polarity.MINUS),
        SignedCriterion(Criterion.NEW, Polarity.PLUS),
    )


def test_str_parse_round_trip():
    seq = parse_criteria("-changed,+unsat_recommends,-notuptodate")
    assert parse_criteria(str(seq)) == seq


def test_empty_criteria():
    seq = parse_criteria("")
    assert not seq and len(seq) == 0


@pytest.mark.parametrize(
    "text", ["removed", "-nope", "-removed,,-changed", "-removed,-removed", "+removed,-removed"]
)
def test_rejected_criteria_strings(text):
    with pytest.raises(BadCriteria):
        parse_criteria(text)


def test_duplicate_criterion_rejected_at_construction():
    item = SignedCriterion(Criterion.NEW, Polarity.MINUS)
    with pytest.raises(BadCriteria):
        CriteriaSeq((item, item))


def test_storage_order_is_the_written_order():
    assert [str(i) for i in TRENDY.items] == str(TRENDY).split(",")
    # fact positions count up from the least significant criterion
    assert TRENDY.facts() == (
        ("newpackage", -1),
        ("recommend", -2),
        ("uptodate", -3),
        ("remove", -4),
    )


def test_polarity_of():
    assert PARANOID.polarity_of(Criterion.REMOVED) is Polarity.MINUS
    assert parse_criteria("+removed").polarity_of(Criterion.REMOVED) is Polarity.PLUS
    assert PARANOID.polarity_of(Criterion.CHANGED) is Polarity.MINUS
    assert PARANOID.polarity_of(Criterion.NEW) is None


def test_criterion_facts_decode_to_the_same_sequence():
    for text in ("paranoid", "trendy", "", "+new", "-removed,+notuptodate,-unsat_recommends"):
        seq = parse_criteria(text)
        assert CriteriaSeq.from_facts(seq.facts()) == seq
        assert CriteriaSeq.from_facts(reversed(seq.facts())) == seq


def test_fact_names():
    assert Criterion.NEW.fact_name == "newpackage"
    assert Criterion.REMOVED.fact_name == "remove"
    assert Criterion.CHANGED.fact_name == "change"
    assert Criterion.NOT_UP_TO_DATE.fact_name == "uptodate"
    assert Criterion.UNSAT_RECOMMENDS.fact_name == "recommend"
