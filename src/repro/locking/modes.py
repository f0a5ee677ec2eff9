"""Lock modes, compatibility and supremum ("at least as restrictive") order.

The paper uses the four System R granular modes (section 3.1):

* ``IS`` — *Intention Share*: grants the right to lock a descendant in S;
* ``IX`` — *Intention eXclusive*: grants the right to lock a descendant in
  S or X;
* ``S``  — *Share*: read lock, implicitly S-locks the whole subtree;
* ``X``  — *eXclusive*: write lock, implicitly X-locks the whole subtree.

``SIX`` (Share + Intention eXclusive) from Gray et al. is provided as an
extension; the paper's protocol never requests it but lock conversions can
produce it (a transaction holding S that requests IX must end up holding
the supremum of both, which is SIX).

Semantic (commutativity-aware) modes
------------------------------------

On NF² complex objects many update operations commute: two set-inserts
into the same set, two appends to the same list, two counter increments.
Classic X locks serialize them anyway.  Following the operation-conflict
view of SemanticLock (Malta & Martinez), six additional modes refine X
for exactly those operation classes:

* ``SI``  — *Set Insert*: the right to insert members anywhere in the
  subtree's sets; compatible with other SI holders (insert/insert
  commutes) but not with readers or general writers;
* ``AP``  — *APpend*: the same for list appends;
* ``INC`` — *INCrement*: the same for counter increments;
* ``ISI``/``IAP``/``IINC`` — the matching intention modes a transaction
  plants on ancestors before taking SI/AP/INC below.

The extended table is not hand-written.  Each mode is a set of *rights*
``(scope, op-class)`` — ``("sub", c)`` claims operation class ``c`` over
the whole subtree, ``("int", c)`` merely announces the intention to claim
``c`` on some descendant.  Two modes are compatible iff no subtree-scoped
right of one clashes with a right of the other (intentions never clash
with intentions); the supremum is the unique weakest mode whose rights
contain both operands'; ``covers`` is rights-set inclusion.  At import
time the derivation is asserted to reproduce the hand-written classic
5x5 block exactly, so the semantic extension provably changes nothing
about the paper's lattice.
"""

from __future__ import annotations

import enum
from typing import Dict, FrozenSet, Tuple


class LockMode(enum.Enum):
    """The granular lock modes of Gray/Lorie/Putzolu/Traiger, plus the
    commutativity-aware semantic modes (SI/AP/INC and their intentions)."""

    IS = "IS"
    IX = "IX"
    S = "S"
    SIX = "SIX"
    X = "X"
    ISI = "ISI"
    IAP = "IAP"
    IINC = "IINC"
    SI = "SI"
    AP = "AP"
    INC = "INC"

    def __repr__(self):
        return self.value

    def __str__(self):
        return self.value

    @property
    def is_intention(self) -> bool:
        """True for the pure intention modes (IS, IX, ISI, IAP, IINC)."""
        return self in (
            LockMode.IS,
            LockMode.IX,
            LockMode.ISI,
            LockMode.IAP,
            LockMode.IINC,
        )

    @property
    def is_exclusive_class(self) -> bool:
        """True for modes that announce write intent (IX, SIX, X, and the
        semantic mutator modes — commuting updates are still updates)."""
        return self in (
            LockMode.IX,
            LockMode.SIX,
            LockMode.X,
            LockMode.SI,
            LockMode.AP,
            LockMode.INC,
        )

    @property
    def is_semantic(self) -> bool:
        """True for the commutativity-aware extension modes."""
        return self in (
            LockMode.ISI,
            LockMode.IAP,
            LockMode.IINC,
            LockMode.SI,
            LockMode.AP,
            LockMode.INC,
        )


IS, IX, S, SIX, X = LockMode.IS, LockMode.IX, LockMode.S, LockMode.SIX, LockMode.X
ISI, IAP, IINC = LockMode.ISI, LockMode.IAP, LockMode.IINC
SI, AP, INC = LockMode.SI, LockMode.AP, LockMode.INC

#: The classic compatibility matrix (GLPT76, table form) extended with the
#: semantic modes.  ``True`` means the two modes may be held concurrently
#: by different transactions.  The classic 5x5 block is hand-written (the
#: definition); the semantic rows are derived from the rights vectors
#: below and the derivation is asserted against this block.
_COMPATIBLE: Dict[Tuple[LockMode, LockMode], bool] = {}


def _fill_compatibility():
    rows = {
        IS: {IS: True, IX: True, S: True, SIX: True, X: False},
        IX: {IS: True, IX: True, S: False, SIX: False, X: False},
        S: {IS: True, IX: False, S: True, SIX: False, X: False},
        SIX: {IS: True, IX: False, S: False, SIX: False, X: False},
        X: {IS: False, IX: False, S: False, SIX: False, X: False},
    }
    for held, row in rows.items():
        for requested, ok in row.items():
            _COMPATIBLE[(held, requested)] = ok


_fill_compatibility()


#: Supremum (least upper bound) in the restrictiveness lattice.  When a
#: transaction already holding mode ``a`` requests mode ``b`` on the same
#: node, it must afterwards hold ``supremum(a, b)`` (lock conversion).
_SUPREMUM: Dict[Tuple[LockMode, LockMode], LockMode] = {}


def _fill_supremum():
    order = {
        (IS, IS): IS,
        (IS, IX): IX,
        (IS, S): S,
        (IS, SIX): SIX,
        (IS, X): X,
        (IX, IX): IX,
        (IX, S): SIX,
        (IX, SIX): SIX,
        (IX, X): X,
        (S, S): S,
        (S, SIX): SIX,
        (S, X): X,
        (SIX, SIX): SIX,
        (SIX, X): X,
        (X, X): X,
    }
    for (a, b), sup in order.items():
        _SUPREMUM[(a, b)] = sup
        _SUPREMUM[(b, a)] = sup


_fill_supremum()


# -- the semantic extension, derived from rights vectors -----------------------
#
# Operation classes: plain reads ``r``, general writes ``w``, and the three
# commuting update classes ``si`` (set insert), ``ap`` (list append),
# ``inc`` (counter increment).  Two operation classes clash unless they are
# the same *commuting* class: reads clash with every update (inserts are
# not read-stable), general writes clash with everything including
# themselves, but si/si, ap/ap and inc/inc commute.

#: Every operation class, in a stable order.
OP_CLASSES = ("r", "w", "si", "ap", "inc")

#: The commuting operation classes (pairs of the same class commute).
COMMUTING_CLASSES = frozenset(("r", "si", "ap", "inc"))


def op_classes_commute(a: str, b: str) -> bool:
    """Do operations of classes ``a`` and ``b`` commute on one object?

    This single relation grounds the whole extension: the lock table
    (via the derived mode compatibility) and the serialization oracle
    (via precedence edges) must agree on it, or locking admits
    schedules the oracle rejects.
    """
    return a == b and a in COMMUTING_CLASSES


_Right = Tuple[str, str]  # ("sub" | "int", op class)

#: Mode -> rights vector.  ``("sub", c)`` claims op class ``c`` over the
#: whole subtree; ``("int", c)`` announces the intention to claim ``c``
#: on some descendant.
_RIGHTS: Dict[LockMode, FrozenSet[_Right]] = {
    IS: frozenset({("int", "r")}),
    IX: frozenset(("int", c) for c in OP_CLASSES),
    S: frozenset({("sub", "r"), ("int", "r")}),
    ISI: frozenset({("int", "si")}),
    IAP: frozenset({("int", "ap")}),
    IINC: frozenset({("int", "inc")}),
    SI: frozenset({("sub", "si"), ("int", "si")}),
    AP: frozenset({("sub", "ap"), ("int", "ap")}),
    INC: frozenset({("sub", "inc"), ("int", "inc")}),
}
_RIGHTS[SIX] = _RIGHTS[S] | _RIGHTS[IX]
_RIGHTS[X] = frozenset(
    (scope, c) for scope in ("sub", "int") for c in OP_CLASSES
)


def _rights_clash(a: _Right, b: _Right) -> bool:
    scope_a, class_a = a
    scope_b, class_b = b
    if scope_a == "int" and scope_b == "int":
        return False  # intentions only conflict below, where claims meet
    return not op_classes_commute(class_a, class_b)


def _derive_compatible(a: LockMode, b: LockMode) -> bool:
    return not any(
        _rights_clash(right_a, right_b)
        for right_a in _RIGHTS[a]
        for right_b in _RIGHTS[b]
    )


def _derive_supremum(a: LockMode, b: LockMode) -> LockMode:
    union = _RIGHTS[a] | _RIGHTS[b]
    candidates = [m for m in _MODE_ORDER if _RIGHTS[m] >= union]
    minimal = [
        m
        for m in candidates
        if not any(_RIGHTS[o] < _RIGHTS[m] for o in candidates)
    ]
    if len(minimal) != 1:  # pragma: no cover - lattice malformed
        raise AssertionError(
            "no unique supremum for %r, %r: %r" % (a, b, minimal)
        )
    return minimal[0]


# -- int-indexed fast tables ---------------------------------------------------
#
# The Enum-tuple dictionaries above are the *definitions* (and remain
# available as ``compatible_naive``/``supremum_naive`` for the ablation
# benchmarks), but every conflict test in the lock table pays for them with
# a tuple allocation plus two enum hashes.  The hot-path functions below
# index precomputed dense tables by a small integer stamped onto each mode
# member instead — one attribute load and two list subscripts per test.
#
# The classic modes keep their original codes 0-4 (wire frames and pinned
# golden bytes depend on them); the semantic modes take 5-10.

_MODE_ORDER = (IS, IX, S, SIX, X, ISI, IAP, IINC, SI, AP, INC)
for _i, _mode in enumerate(_MODE_ORDER):
    _mode.code = _i

#: The classic GLPT modes — unchanged by the semantic extension.
CLASSIC_MODES = (IS, IX, S, SIX, X)

#: The commutativity-aware extension modes.
SEMANTIC_MODES = (ISI, IAP, IINC, SI, AP, INC)

#: Every mode, in code order.
EXTENDED_MODES = _MODE_ORDER


def _extend_tables():
    """Fill the semantic rows/columns of the naive dicts from the rights
    derivation, after proving the derivation reproduces the hand-written
    classic block exactly."""
    for a in CLASSIC_MODES:
        for b in CLASSIC_MODES:
            derived = _derive_compatible(a, b)
            if derived != _COMPATIBLE[(a, b)]:  # pragma: no cover
                raise AssertionError(
                    "rights derivation breaks classic compat(%r, %r)" % (a, b)
                )
            derived_sup = _derive_supremum(a, b)
            if derived_sup is not _SUPREMUM[(a, b)]:  # pragma: no cover
                raise AssertionError(
                    "rights derivation breaks classic sup(%r, %r)" % (a, b)
                )
    for a in _MODE_ORDER:
        for b in _MODE_ORDER:
            if (a, b) not in _COMPATIBLE:
                _COMPATIBLE[(a, b)] = _derive_compatible(a, b)
            if (a, b) not in _SUPREMUM:
                _SUPREMUM[(a, b)] = _derive_supremum(a, b)


_extend_tables()

_COMPAT_TABLE = [
    [_COMPATIBLE[(a, b)] for b in _MODE_ORDER] for a in _MODE_ORDER
]
_SUP_TABLE = [
    [_SUPREMUM[(a, b)] for b in _MODE_ORDER] for a in _MODE_ORDER
]
_COVERS_TABLE = [
    [_SUPREMUM[(a, b)] is a for b in _MODE_ORDER] for a in _MODE_ORDER
]

#: Number of modes; the valid codes are ``range(N_MODES)``.
N_MODES = len(_MODE_ORDER)

#: Inverse of ``.code``: ``MODES_BY_CODE[mode.code] is mode``.
MODES_BY_CODE = _MODE_ORDER

# Flat single-subscript compatibility, row-major ``[a.code * N_MODES +
# b.code]``: code that holds raw int codes (the lock table's waits-for
# scans, the wire matrix) tests a pair with one bytes subscript instead
# of the attribute load + two nested list subscripts of ``compatible``.
COMPAT_FLAT = bytes(
    1 if _COMPAT_TABLE[a][b] else 0
    for a in range(N_MODES)
    for b in range(N_MODES)
)

# The *group mode* of a resource entry: how many transactions hold it in
# each mode, packed into one int as ``N_MODES`` fields of ``HELD_BITS``
# bits (field ``c`` counts the holders whose effective mode has code
# ``c``).  A request is compatible with every holder iff no field its
# mode conflicts with is non-zero — ``held & CONFLICT_MASK[code] == 0`` —
# so a grant is decided without walking the holders.  2**24 holders of
# one mode on one resource is out of reach of an in-memory table.
HELD_BITS = 24

#: ``HELD_UNIT[code]``: one holder in mode ``code``.
HELD_UNIT = tuple(1 << (code * HELD_BITS) for code in range(N_MODES))

#: ``CONFLICT_MASK[code]``: the count fields of every held mode a request
#: for ``code`` is incompatible with (column ``code`` of the table above).
CONFLICT_MASK = tuple(
    sum(
        ((1 << HELD_BITS) - 1) << (held * HELD_BITS)
        for held in range(N_MODES)
        if not _COMPAT_TABLE[held][requested]
    )
    for requested in range(N_MODES)
)


def compatible(held: LockMode, requested: LockMode) -> bool:
    """Can ``requested`` be granted while another txn holds ``held``?"""
    return _COMPAT_TABLE[held.code][requested.code]


def supremum(a: LockMode, b: LockMode) -> LockMode:
    """Least upper bound of two modes in the restrictiveness lattice."""
    return _SUP_TABLE[a.code][b.code]


def covers(held: LockMode, required: LockMode) -> bool:
    """Is ``held`` *at least as restrictive* as ``required``?

    This is the paper's "(at least) IS/IX locked" test: a node locked in
    IX satisfies a requirement of "at least IS"; a node locked in S does
    *not* satisfy "at least IX" (S grants no write intention).
    """
    return _COVERS_TABLE[held.code][required.code]


def compatible_naive(held: LockMode, requested: LockMode) -> bool:
    """Dict-backed compatibility test (pre-optimization ablation path)."""
    return _COMPATIBLE[(held, requested)]


def supremum_naive(a: LockMode, b: LockMode) -> LockMode:
    """Dict-backed supremum (pre-optimization ablation path)."""
    return _SUPREMUM[(a, b)]


def covers_naive(held: LockMode, required: LockMode) -> bool:
    """Dict-backed "at least as restrictive" test (ablation path).

    Defined, like the int-indexed table, as ``supremum(held, required) is
    held`` — the differential harness swaps this in for :func:`covers` to
    prove the int-indexed tables change nothing observable.
    """
    return _SUPREMUM[(held, required)] is held


def intention_of(mode: LockMode) -> LockMode:
    """The intention mode a parent must carry before ``mode`` is requested.

    Protocol rules 1-4: S needs parents "(at least) IS"; X and IX need
    parents "(at least) IX".  SIX behaves like X for this purpose because
    it includes write intent.  Each semantic actual mode needs its own
    intention (SI needs "(at least) ISI", and so on) — IX covers all of
    them, so classic writers never have to know the extension exists.
    """
    if mode in (S, IS):
        return IS
    if mode in (SI, ISI):
        return ISI
    if mode in (AP, IAP):
        return IAP
    if mode in (INC, IINC):
        return IINC
    return IX


#: The classic modes, as the public stable tuple (property tests iterate
#: this; the semantic extension is exported separately).
ALL_MODES = CLASSIC_MODES

#: Modes the paper's protocol requests explicitly (SIX only via conversion).
PAPER_MODES = (IS, IX, S, X)
