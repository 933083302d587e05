"""Property-based tests for label domination and label stores."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.label import Label, LabelStore

label_tuples = st.tuples(
    st.integers(0, 7),  # mask
    st.integers(0, 50),  # scaled_os
    st.integers(0, 50),  # bs
)


def make(node, mask, sos, bs):
    return Label(node=node, mask=mask, scaled_os=float(sos), os=float(sos), bs=float(bs))


class TestDominationIsAPartialOrder:
    @given(label_tuples)
    def test_reflexive(self, t):
        label = make(0, *t)
        assert label.dominates(label)

    @given(label_tuples, label_tuples)
    def test_antisymmetric_up_to_score_equality(self, a, b):
        la, lb = make(0, *a), make(0, *b)
        if la.dominates(lb) and lb.dominates(la):
            assert a == b

    @given(label_tuples, label_tuples, label_tuples)
    def test_transitive(self, a, b, c):
        la, lb, lc = make(0, *a), make(0, *b), make(0, *c)
        if la.dominates(lb) and lb.dominates(lc):
            assert la.dominates(lc)


class TestStoreMaintainsSkyline:
    @settings(max_examples=60)
    @given(st.lists(label_tuples, min_size=1, max_size=30))
    def test_no_stored_label_dominates_another(self, tuples):
        store = LabelStore(num_nodes=1)
        for t in tuples:
            label = make(0, *t)
            if not store.is_dominated(label):
                store.insert(label)
        alive = list(store.labels_at(0))
        for a in alive:
            for b in alive:
                if a is not b:
                    assert not a.dominates(b) or (
                        a.mask == b.mask and a.scaled_os == b.scaled_os and a.bs == b.bs
                    )

    @settings(max_examples=60)
    @given(st.lists(label_tuples, min_size=1, max_size=30))
    def test_every_input_dominated_by_some_survivor(self, tuples):
        """The skyline must still cover everything that was inserted."""
        store = LabelStore(num_nodes=1)
        accepted = []
        for t in tuples:
            label = make(0, *t)
            if not store.is_dominated(label):
                store.insert(label)
            accepted.append(label)
        alive = list(store.labels_at(0))
        for label in accepted:
            assert any(s.dominates(label) for s in alive)

    @settings(max_examples=40)
    @given(st.lists(label_tuples, min_size=1, max_size=25), st.integers(2, 3))
    def test_k_store_keeps_at_most_k_mutually_dominating(self, tuples, k):
        """With k-domination, any label is dominated by < k stored ones."""
        store = LabelStore(num_nodes=1, k=k)
        for t in tuples:
            label = make(0, *t)
            if not store.is_dominated(label):
                store.insert(label)
        alive = list(store.labels_at(0))
        for label in alive:
            dominators = sum(1 for other in alive if other is not label and other.dominates(label))
            assert dominators < k
