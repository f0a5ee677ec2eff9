"""The extended (semantic) mode algebra: lattice laws and table agreement.

The semantic modes (SI/AP/INC and their intention forms) are *derived*
from rights vectors rather than hand-written, so these tests pin the
algebraic contract the rest of the system leans on:

* compatibility stays symmetric over all 11 modes;
* the supremum is a join: idempotent, commutative, associative, with X
  as top, and ``covers`` is exactly its induced partial order;
* the three implementations — naive dict twins, the object-keyed
  tables and the row-major flat compatibility table the lock table and
  the wire matrix index — agree on every one of the 121 mode pairs;
* the classic 5x5 block is bit-identical to the hand-written GLPT76
  matrix (the flag-off ablation depends on this).

Exhaustive 11x11(x11) enumeration is cheap, so every law is checked
over every pair/triple.
"""

from repro.locking.modes import (
    AP,
    CLASSIC_MODES,
    COMPAT_FLAT,
    EXTENDED_MODES,
    IAP,
    IINC,
    INC,
    IS,
    ISI,
    IX,
    MODES_BY_CODE,
    N_MODES,
    S,
    SEMANTIC_MODES,
    SI,
    SIX,
    X,
    compatible,
    compatible_naive,
    covers,
    covers_naive,
    intention_of,
    op_classes_commute,
    supremum,
    supremum_naive,
)


class TestExtendedCompatibility:
    def test_symmetric(self):
        for a in EXTENDED_MODES:
            for b in EXTENDED_MODES:
                assert compatible(a, b) == compatible(b, a)

    def test_classic_block_unchanged(self):
        # the flag-off differential rests on the classic 5x5 block being
        # exactly the hand-written GLPT76 matrix
        classic = {
            (IS, IS): True, (IS, IX): True, (IS, S): True, (IS, SIX): True, (IS, X): False,
            (IX, IX): True, (IX, S): False, (IX, SIX): False, (IX, X): False,
            (S, S): True, (S, SIX): False, (S, X): False,
            (SIX, SIX): False, (SIX, X): False,
            (X, X): False,
        }
        for (a, b), expected in classic.items():
            assert compatible(a, b) is expected
            assert compatible(b, a) is expected

    def test_commuting_peers_admit_each_other(self):
        # the whole point: two inserters (appenders, incrementers) on the
        # same granule run concurrently
        for mode in (SI, AP, INC):
            assert compatible(mode, mode)
            assert compatible(mode, intention_of(mode))

    def test_distinct_semantic_classes_conflict(self):
        # an insert does not commute with an append or an increment
        assert not compatible(SI, AP)
        assert not compatible(SI, INC)
        assert not compatible(AP, INC)

    def test_semantic_actuals_exclude_readers_and_writers(self):
        # a commuting update is still a write to everyone else
        for mode in (SI, AP, INC):
            assert not compatible(mode, S)
            assert not compatible(mode, IS)
            assert not compatible(mode, X)
            assert not compatible(mode, IX)
            assert not compatible(mode, SIX)

    def test_semantic_intentions_mix_with_classic_intentions(self):
        # fine-grained commuting updates below coexist with fine-grained
        # reads below — only actual claims clash
        for semantic in (ISI, IAP, IINC):
            assert compatible(semantic, IS)
            assert compatible(semantic, IX)
            assert not compatible(semantic, S)
            assert not compatible(semantic, X)

    def test_stronger_never_conflicts_less(self):
        for held in EXTENDED_MODES:
            for weaker in EXTENDED_MODES:
                if covers(held, weaker):
                    for other in EXTENDED_MODES:
                        if compatible(held, other):
                            assert compatible(weaker, other)


class TestExtendedSupremumLattice:
    def test_idempotent(self):
        for mode in EXTENDED_MODES:
            assert supremum(mode, mode) is mode

    def test_commutative(self):
        for a in EXTENDED_MODES:
            for b in EXTENDED_MODES:
                assert supremum(a, b) is supremum(b, a)

    def test_associative(self):
        for a in EXTENDED_MODES:
            for b in EXTENDED_MODES:
                for c in EXTENDED_MODES:
                    assert supremum(supremum(a, b), c) is supremum(
                        a, supremum(b, c)
                    )

    def test_x_is_top(self):
        for mode in EXTENDED_MODES:
            assert supremum(mode, X) is X

    def test_covers_is_the_induced_order(self):
        # covers(a, b) <=> sup(a, b) is a: the lattice and the partial
        # order are the same structure
        for a in EXTENDED_MODES:
            for b in EXTENDED_MODES:
                assert covers(a, b) == (supremum(a, b) is a)

    def test_covers_monotone_under_join(self):
        for a in EXTENDED_MODES:
            for b in EXTENDED_MODES:
                joined = supremum(a, b)
                assert covers(joined, a) and covers(joined, b)

    def test_selected_semantic_joins(self):
        # a commuting-update claim joined with anything non-commuting
        # collapses to the classic escalation ladder
        assert supremum(ISI, IAP) is IX
        assert supremum(ISI, IS) is IX
        assert supremum(ISI, S) is SIX
        assert supremum(SI, ISI) is SI
        assert supremum(SI, S) is X
        assert supremum(SI, AP) is X
        assert supremum(SI, IS) is X

    def test_intention_of_semantic_modes(self):
        assert intention_of(SI) is ISI
        assert intention_of(AP) is IAP
        assert intention_of(INC) is IINC
        for mode in (ISI, IAP, IINC):
            assert intention_of(mode) is mode

    def test_ix_covers_semantic_intentions(self):
        # classic writers need no new intention modes on ancestors
        for mode in (ISI, IAP, IINC):
            assert covers(IX, mode)


class TestOpClassCommutativity:
    def test_reads_and_like_updates_commute(self):
        for kind in ("r", "si", "ap", "inc"):
            assert op_classes_commute(kind, kind)

    def test_writes_never_commute(self):
        for kind in ("r", "w", "si", "ap", "inc"):
            assert not op_classes_commute("w", kind)
            assert not op_classes_commute(kind, "w")

    def test_distinct_classes_never_commute(self):
        kinds = ("r", "w", "si", "ap", "inc")
        for a in kinds:
            for b in kinds:
                if a != b:
                    assert not op_classes_commute(a, b)

    def test_compatibility_refines_commutativity(self):
        # two actual claims are compatible only when their op classes
        # commute (the semantic justification of the matrix)
        class_of = {S: "r", X: "w", SI: "si", AP: "ap", INC: "inc"}
        for a, kind_a in class_of.items():
            for b, kind_b in class_of.items():
                assert compatible(a, b) == op_classes_commute(kind_a, kind_b)


class TestTableAgreement:
    """Naive twins, object tables and the flat byte table never drift."""

    def test_flat_tables_cover_all_pairs(self):
        assert len(COMPAT_FLAT) == N_MODES * N_MODES

    def test_exhaustive_three_way_agreement(self):
        for a in EXTENDED_MODES:
            for b in EXTENDED_MODES:
                flat = a.code * N_MODES + b.code
                assert compatible(a, b) == compatible_naive(a, b)
                assert bool(COMPAT_FLAT[flat]) == compatible(a, b)
                assert covers(a, b) == covers_naive(a, b)
                assert supremum(a, b) is supremum_naive(a, b)

    def test_codes_are_stable(self):
        # wire golden pins depend on the classic codes never moving and
        # the semantic codes extending, not interleaving
        assert [m.code for m in CLASSIC_MODES] == [0, 1, 2, 3, 4]
        assert [m.code for m in SEMANTIC_MODES] == [5, 6, 7, 8, 9, 10]
        for code, mode in enumerate(MODES_BY_CODE):
            assert mode.code == code
