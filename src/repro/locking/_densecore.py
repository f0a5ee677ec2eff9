"""Pure-python int kernels of the dense lock path.

These are the innermost loops of plan filtering and batched pruning,
written against primitive types only — ``array``-like integer sequences,
int-keyed dicts and flat ``bytes`` mode tables.  The differential
fingerprint harness replays lock traces across the ``use_dense_path``
ablation flag.

Nothing here may import enums, resources or any repro module: the callers
translate to ints on the way in and back on the way out.
"""

from __future__ import annotations


def filter_uncovered(rids, codes, held_codes, covers_flat, n_modes):
    """Indexes of steps not covered by a transaction's held summary.

    ``rids``/``codes`` are parallel int sequences (one compiled plan);
    ``held_codes`` maps resource-id -> held mode code (or is None);
    ``covers_flat`` is the row-major covers table.  Returns the list of
    indexes whose step must still be requested, in plan order.
    """
    keep = []
    if held_codes is None:
        return list(range(len(rids)))
    get = held_codes.get
    for i in range(len(rids)):
        held = get(rids[i], -1)
        if held < 0 or not covers_flat[held * n_modes + codes[i]]:
            keep.append(i)
    return keep


def count_compatible(held_codes_list, target_code, compat_flat, n_modes):
    """How many leading entries of ``held_codes_list`` admit ``target_code``.

    Returns ``len(held_codes_list)`` when every held code is compatible
    with the target; otherwise the index of the first incompatible holder.
    The caller charges one conflict test per examined entry either way.
    """
    base = target_code
    for i in range(len(held_codes_list)):
        if not compat_flat[held_codes_list[i] * n_modes + base]:
            return i
    return len(held_codes_list)


def supremum_code(a, b, sup_flat, n_modes):
    """Supremum of two mode codes via the flat table."""
    return sup_flat[a * n_modes + b]
