import gc
import json

import pytest

from oracles import classical_predicate, oracle_equivalence
from rootproj import output
from rootproj.catalog import build, parse_label
from rootproj.classify import (classify_theta, load_golden_tables,
                               proper_subsets, verify_paper)


def pred(name, theta):
    return classical_predicate(parse_label(name), theta)


def test_predicate_a5_three_blocks():
    p = pred("A5", (1, 3, 5))
    assert str(p.predicted) == "A2"


def test_predicate_b4_two_blocks():
    p = pred("B4", (1, 3))
    assert str(p.predicted) == "BC2"


def test_predicate_c4_one_to_three():
    p = pred("C4", (2, 3))
    assert str(p.predicted) == "A2"
    assert "3m" in p.condition_trace or "A_2" in p.condition_trace


def test_predicate_a3_middle_no_prediction():
    assert pred("A3", (2,)).predicted is None


def test_predicate_b_tail_recovery():
    assert str(pred("B4", (4,)).predicted) == "B3"
    assert str(pred("B4", (3, 4)).predicted) == "B2"
    assert pred("B3", (2,)).predicted is None


def test_predicate_c_tail_gives_bc():
    assert str(pred("C3", (3,)).predicted) == "BC2"
    assert str(pred("C3", (2, 3)).predicted) == "BC1"
    assert str(pred("C4", (1, 3)).predicted) == "C2"


def test_predicate_d_cases():
    assert str(pred("D4", (3, 4)).predicted) == "B2"
    assert str(pred("D4", (1, 3)).predicted) == "C2"
    assert str(pred("D4", (1, 4)).predicted) == "C2"
    assert pred("D4", (2,)).predicted is None
    assert str(pred("D5", (3, 4, 5)).predicted) == "B2"


def test_predicate_two_block_rules():
    # two blocks of any sizes on A_n leave one pair of roots
    assert str(pred("A4", (1, 2, 3)).predicted) == "A1"
    # blocks of sizes 1 and 3 give A2 on B and D as on C, tail or not
    assert str(pred("B5", (1, 2, 5)).predicted) == "A2"
    assert str(pred("D4", (1, 2)).predicted) == "A2"
    assert str(pred("D6", (2, 3, 5, 6)).predicted) == "A2"
    assert pred("B5", (1, 5)).predicted is None


def test_predicate_rejects_exceptional_input():
    with pytest.raises(ValueError):
        pred("E6", (1,))


def test_proper_subset_count():
    assert len(list(proper_subsets(4))) == 2 ** 4 - 2
    subsets = list(proper_subsets(3))
    assert subsets == [(1,), (2,), (3,), (1, 2), (1, 3), (2, 3)]


def test_enumerate_g2(enumerated):
    docs = enumerated("G2").docs
    assert len(docs) == 2
    for doc in docs:
        assert doc["d"] == 1
        assert not any(r["found"] for r in doc["reports"])


def test_enumerate_f4_exactly_two_g2_rows(enumerated):
    docs = enumerated("F4").docs
    assert len(docs) == 14
    hits = [doc["theta"] for doc in docs
            for r in doc["reports"]
            if r["target"] == "G2" and r["found"]]
    assert hits == [[1, 2], [3, 4]]
    restricted_hits = [doc["theta"] for doc in docs
                       for r in doc["reports"]
                       if r["target"] == "G2" and r["basis_from_delta_theta"]]
    assert restricted_hits == [[1, 2], [3, 4]]


def test_enumerate_e6_unique_g2_row(enumerated):
    docs = enumerated("E6").docs
    assert len(docs) == 62
    hits = [doc["theta"] for doc in docs
            for r in doc["reports"]
            if r["target"] == "G2" and r["basis_from_delta_theta"]]
    assert hits == [[1, 3, 5, 6]]


def test_classify_theta_leaves_no_cyclic_garbage():
    # the basis search recurses through module-level functions, so a
    # projection and its pools are freed when classify_theta returns, not
    # at the cyclic collector's next run
    e8 = build(parse_label("E8"))
    gc.disable()
    try:
        gc.collect()
        classify_theta(e8, (1,))
        assert gc.collect() == 0
    finally:
        gc.enable()


@pytest.mark.parametrize("name", ["F4", "E6"])
def test_classify_theta_returns_the_enumerate_line(name, enumerated):
    # classify_theta is the library's one classification of a theta: its
    # document serializes to the line enumerate writes for that theta
    sys = build(parse_label(name))
    lines = enumerated(name).text.splitlines()
    thetas = list(proper_subsets(sys.rank))
    assert len(lines) == len(thetas)
    for theta, line in zip(thetas, lines):
        assert json.dumps(classify_theta(sys, theta), sort_keys=True) == line


def test_golden_tables_parse():
    tables = load_golden_tables()
    assert set(tables) == {"E6", "E7", "E8", "F4"}
    e8 = tables["E8"]
    irr = e8.found["irreducible"]
    assert ((8,), "E7") in irr
    assert ((2, 3, 4, 5), "F4") in irr
    assert ((8,), "E7") in e8.not_found["irreducible-restricted"]


@pytest.mark.parametrize("name", ["F4", "E6"])
def test_verify_paper_small_systems_pass(name, enumerated):
    label = parse_label(name)
    report = verify_paper(label, enumerated(name).docs)
    assert report.ok, "\n".join(output.verification_text(report))
    assert report.records_checked == 2 ** label.rank - 2


def test_verify_paper_rejects_classical():
    with pytest.raises(ValueError):
        verify_paper(parse_label("A5"), [])
    with pytest.raises(ValueError):
        verify_paper(parse_label("G2"), [])


def test_verify_paper_refuses_another_systems_documents(enumerated):
    with pytest.raises(ValueError, match="F4"):
        verify_paper(parse_label("E6"), enumerated("F4").docs)


def _theta_error(docs):
    """The message verify_paper raises on E7's stream docs."""
    with pytest.raises(ValueError) as info:
        verify_paper(parse_label("E7"), docs)
    return str(info.value)


def test_verify_paper_refuses_a_stream_of_other_thetas(enumerated):
    # every proper theta once, in enumerate's order, or no verdict: a
    # truncated, padded or reordered stream, or one with a theta that is
    # no proper subset of E7's simple roots, would pass the tables with
    # other records than the system has
    docs = enumerated("E7").docs
    assert len(docs) == 126
    assert _theta_error(docs[:-5]) == "no document of theta=1,2,3,4,6,7"
    assert _theta_error([]) == "no document of theta=1"
    assert _theta_error(docs + docs[:3]) == \
        "theta=1 is out of place: not the next proper theta of E7"
    assert _theta_error(docs[:1] + docs) == \
        "theta=1 is out of place: not the next proper theta of E7"
    assert _theta_error(docs[1:]) == \
        "theta=2 is out of place: not the next proper theta of E7"
    swapped = [docs[1], docs[0], *docs[2:]]
    assert _theta_error(swapped).startswith("theta=2 is out of place")
    foreign = dict(docs[7], theta=[9])
    assert _theta_error([*docs[:7], foreign, *docs[8:]]) == \
        "theta=9 is out of place: not the next proper theta of E7"


def test_oracle_equivalence_a_family():
    for n in (3, 4, 5, 6):
        report = oracle_equivalence(parse_label(f"A{n}"))
        assert report.ok
        assert len(report.entries) == 2 ** n - 2


def test_oracle_equivalence_selected_rows():
    rep = oracle_equivalence(parse_label("B4"))
    assert rep.ok
    by_theta = {e.theta: e for e in rep.entries}
    assert by_theta[(1, 3)].prediction == "BC2"
    assert by_theta[(1, 3)].confirmed is True
    rep = oracle_equivalence(parse_label("C4"))
    assert rep.ok
    by_theta = {e.theta: e for e in rep.entries}
    assert by_theta[(2, 3)].prediction == "A2"
    assert by_theta[(2, 3)].confirmed is True
    rep = oracle_equivalence(parse_label("D4"))
    assert rep.ok
    by_theta = {e.theta: e for e in rep.entries}
    assert by_theta[(3, 4)].prediction == "B2"
    assert by_theta[(3, 4)].confirmed is True

