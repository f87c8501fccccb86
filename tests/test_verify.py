from __future__ import annotations

import pytest

import mutvis.solvers
import mutvis.verify
from mutvis import CapExceeded, is_connected
from mutvis.verify import (
    SuiteOptions,
    VerificationRecord,
    describe_suites,
    named_corpus,
    random_connected_graph,
    random_corpus,
    run_all,
    run_suite,
    suite_ids,
    tree_corpus,
)

# ids that outside callers rely on
_PINNED = ("thm:cp-tree-by-graphs", "cor:theta", "the:over-visible")


def test_registry_contains_the_documented_suites():
    ids = suite_ids()
    for tid in _PINNED:
        assert tid in ids
    descriptions = describe_suites()
    assert set(descriptions) == set(ids)
    assert all(descriptions[tid] for tid in ids)


def test_unknown_suite_id():
    with pytest.raises(KeyError) as err:
        run_suite("thm:no-such-result")
    assert "cor:theta" in str(err.value)


def test_records_are_well_formed():
    records = run_suite("fam:gm", SuiteOptions())
    assert records
    for r in records:
        assert isinstance(r, VerificationRecord)
        assert r.status in ("pass", "fail", "skipped-cap")
        d = r.to_dict()
        assert set(d) == {"theorem_id", "instance", "expected", "observed", "status"}
        assert d["theorem_id"] == "fam:gm"


def test_cap_shortfall_becomes_skipped_not_failed():
    records = run_suite("fam:gm", SuiteOptions(bp_cap=4))
    statuses = {r.instance: r.status for r in records}
    assert statuses["gm:1"] == "pass"
    assert statuses["gm:2"] == "skipped-cap"
    assert all(r.status != "fail" for r in records)
    assert all(r.passed for r in records)


def test_every_suite_passes_on_a_reduced_budget():
    opts = SuiteOptions(count=6, max_n=10)
    for tid in suite_ids():
        records = run_suite(tid, opts)
        assert records, tid
        failures = [r for r in records if r.status == "fail"]
        assert not failures, (tid, failures[:3])


def test_named_corpus_is_bounded_and_deduplicated():
    graphs = named_corpus(12)
    assert all(g.order <= 12 for g in graphs)
    names = [g.name for g in graphs]
    assert len(names) == len(set(names))
    assert {"petersen", "fig1", "fig2"} <= set(names)
    assert named_corpus(8) is named_corpus(8)
    assert all(g.order <= 8 for g in named_corpus(8))


def test_random_corpora_are_deterministic_and_connected():
    a = random_corpus(10, 9, 3)
    b = random_corpus(10, 9, 3)
    assert a == b
    assert all(is_connected(g) and 2 <= g.order <= 9 for g in a)
    assert random_connected_graph(7, 1) != random_connected_graph(7, 2)
    trees = tree_corpus(8, 3, 7, 0)
    assert all(t.num_edges == t.order - 1 for t in trees)
    assert all(3 <= t.order <= 7 for t in trees)


def test_run_all_aggregates_every_suite():
    opts = SuiteOptions(count=3, max_n=8)
    records = run_all(opts)
    seen = {r.theorem_id for r in records}
    assert seen == set(suite_ids())
    assert all(r.status != "fail" for r in records)


def test_run_suite_calls_each_check_before_resuming_the_suite(monkeypatch):
    def stub(opts):
        for k in range(3):
            yield f"k{k}", str(k), lambda: (str(k), k != 2)

        def capped():
            raise CapExceeded("stub needs more")

        yield "capped", "anything", capped

    monkeypatch.setitem(mutvis.verify._SUITES, "test:stub", ("a stub suite", stub))
    records = run_suite("test:stub")
    assert [(r.instance, r.expected, r.observed, r.status) for r in records[:3]] == [
        ("k0", "0", "0", "pass"),
        ("k1", "1", "1", "pass"),
        ("k2", "2", "2", "fail"),
    ]
    assert records[3].status == "skipped-cap"
    assert records[3].observed == "cap exceeded: stub needs more"
    assert {r.theorem_id for r in records} == {"test:stub"}


def test_zero_caps_skip_instances_and_never_abort_the_run():
    records = run_all(SuiteOptions(bp_cap=0, n_cap=0))
    assert records and all(r.status != "fail" for r in records)
    skipped = [r for r in records if r.status == "skipped-cap"]
    assert skipped and all(r.observed.startswith("cap exceeded: ") for r in skipped)
    assert any(r.theorem_id == "thm:cp-bounds" for r in skipped)


def test_suites_solve_through_the_invariant_table(monkeypatch):
    # A distinct stub value per kind shows which table entry each figure
    # came from; a suite that called a solver directly would show the true
    # value instead.
    stubs = {"mu": 91, "mut": 92, "muit": 93, "alpha": 94}
    for kind, value in stubs.items():
        report = mutvis.solvers.InvariantReport(kind, value, (), "stub")
        monkeypatch.setitem(mutvis.solvers.INVARIANTS, kind, lambda g, caps, r=report: r)
    opts = SuiteOptions(count=3)

    complete = run_suite("prop:cp-complete-by-complete", opts)
    assert complete and all(r.observed == "mut=92" for r in complete)
    gm = run_suite("fam:gm", opts)
    assert gm and all(r.observed.endswith(", mut=92, independent mut=93") for r in gm)
    trees = run_suite("prop:for-trees", opts)
    assert trees and all(r.observed.startswith("mu=91, ") for r in trees)
    sandwich = run_suite("fam:sandwich", opts)
    assert sandwich and all(r.observed.endswith(" <= 93 <= min(92, 94)") for r in sandwich)


def test_over_visible_drops_only_the_exact_value_past_the_cap():
    records = {r.instance: r for r in run_suite("the:over-visible", SuiteOptions())}
    capped = records["gm:2 x gm:2"]
    assert capped.status == "pass" and "exact mut" not in capped.observed
    others = [r for name, r in records.items() if name != "gm:2 x gm:2"]
    assert others and all(r.status == "pass" and ", exact mut=" in r.observed for r in others)


def test_run_all_answers_each_question_once_per_run(monkeypatch):
    opts = SuiteOptions(count=3, max_n=8)
    alone = [record for tid in suite_ids() for record in run_suite(tid, opts)]
    asked = []

    def spy(kind, solve):
        def ask(g, caps):
            asked.append((kind, g.adjacency_masks()))
            return solve(g, caps)

        return ask

    def reference(g, kind, naive_oracle=mutvis.verify.naive_oracle):
        asked.append(("naive " + kind, g.adjacency_masks()))
        return naive_oracle(g, kind)

    for kind, solve in list(mutvis.solvers.INVARIANTS.items()):
        monkeypatch.setitem(mutvis.solvers.INVARIANTS, kind, spy(kind, solve))
    monkeypatch.setattr(mutvis.verify, "naive_oracle", reference)
    assert run_all(opts) == alone
    first = len(asked)
    assert first and len(set(asked)) == first
    assert {"naive mut", "naive muit", "naive mu"} <= {question for question, _ in asked}
    # The memo ends with its run: a second run asks every question again.
    assert run_all(opts) == alone
    assert asked[first:] == asked[:first]
    assert mutvis.verify._memo is None


def test_a_capped_answer_is_asked_again(monkeypatch):
    asked = []

    def capped(g, caps):
        asked.append(g.name)
        raise CapExceeded("stub cap")

    def stub(opts):
        g = mutvis.verify.named_corpus()[0]
        for k in range(2):
            yield f"k{k}", "capped", lambda: (str(mutvis.verify._solve("mut", g, opts)), True)

    monkeypatch.setitem(mutvis.solvers.INVARIANTS, "mut", capped)
    monkeypatch.setitem(mutvis.verify._SUITES, "test:stub", ("a stub suite", stub))
    records = run_suite("test:stub")
    assert [r.status for r in records] == ["skipped-cap", "skipped-cap"]
    assert len(asked) == 2


def test_a_recalled_answer_names_the_graph_asked_about(monkeypatch):
    # path:2 and complete:2 have the same adjacency masks.
    asked = []
    solve = mutvis.solvers.INVARIANTS["mut"]

    def counted(g, caps):
        asked.append(g.name)
        return solve(g, caps)

    def stub(opts):
        for spec in ("path:2", "complete:2"):
            g = mutvis.verify.graph_of(mutvis.verify.build(spec))
            yield spec, spec, lambda: (mutvis.verify._solve("mut", g, opts).graph_name, True)

    monkeypatch.setitem(mutvis.solvers.INVARIANTS, "mut", counted)
    monkeypatch.setitem(mutvis.verify._SUITES, "test:stub", ("a stub suite", stub))
    records = run_suite("test:stub")
    assert [r.observed for r in records] == ["path:2", "complete:2"]
    assert asked == ["path:2"]
