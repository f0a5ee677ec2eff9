"""Differential protocol testing and ablation equivalence.

The same explored schedules, replayed against every protocol and both
ablation paths, must tell one coherent story:

* every **safe** protocol (the paper's, both System R baselines, the
  honest DAG baseline) yields only conflict-serializable schedules, and
  the protocols *obliged* to the entry-point visibility rule (those that
  claim implicit cover of referenced common data) never violate it;
* the **unsafe** DAG horn — the paper's section 3.2.2 straw man — must
  be caught: the explorer has to rediscover a concrete interleaving that
  violates entry-point visibility, and (on the read-modify-write
  workloads) a non-serializable schedule, without being told where to
  look;
* the **ablations** must be invisible: exploration with the incremental
  reference index on or off, and with the dense int-indexed mode tables
  or their dict-backed naive twins, must produce bit-identical schedule
  fingerprints (same interleavings, same outcomes, same final states);
* the **plan-compilation layer** must be invisible down to the lock
  trace: a workload replayed with the compiled-plan cache versus
  uncached planning must produce bit-identical lock-trace fingerprints —
  every request, grant, wait and release event in the same order, not
  merely the same final state.
"""

from __future__ import annotations

import contextlib
import itertools
from collections import OrderedDict
from typing import Dict, Optional, Sequence

from repro.errors import CheckError
from repro.locking import modes
from repro.locking.plancache import PlanCache
from repro.protocol import PROTOCOLS
from repro.check.program import IMPLICIT_COVER_PROTOCOLS
from repro.check.scheduler import (
    DEFAULT_STEP_RULES,
    ExplorationReport,
    Explorer,
    Workload,
)

#: Protocols expected to keep every schedule safe.
SAFE_PROTOCOLS = ("herrmann", "system_r_tuple", "system_r_relation", "naive_dag")

#: Protocols expected to exhibit the section 3.2.2 anomaly.
UNSAFE_PROTOCOLS = ("naive_dag_unsafe",)

#: Protocols obliged to the entry-point visibility rule: exactly those
#: claiming implicit cover of referenced common data.  (The tuple-level
#: System R baseline locks referenced tuples explicitly in its plans, so
#: the obligation holds for it by construction as well.)
VISIBILITY_OBLIGED = frozenset(IMPLICIT_COVER_PROTOCOLS)


def check_rules_for(protocol_name: str) -> tuple:
    """Per-step audit rules appropriate for one protocol."""
    rules = tuple(DEFAULT_STEP_RULES)
    if protocol_name in VISIBILITY_OBLIGED:
        rules = rules + ("entry-point-visibility",)
    return rules


def explore_protocols(
    workload: Workload,
    protocols: Sequence[str] = SAFE_PROTOCOLS + UNSAFE_PROTOCOLS,
    max_schedules: int = 5000,
    max_steps: int = 300,
    walks: int = 0,
    seed: int = 0,
    variant: Optional[dict] = None,
) -> "OrderedDict[str, ExplorationReport]":
    """Explore one workload under several protocols.

    ``walks > 0`` switches from exhaustive enumeration to seeded random
    walks (for workloads whose trees are too large); the reports then
    carry ``exhaustive=False``.
    """
    reports: "OrderedDict[str, ExplorationReport]" = OrderedDict()
    for name in protocols:
        explorer = Explorer(
            workload,
            variant=dict(variant or {}, protocol_cls=PROTOCOLS[name]),
            check_rules=check_rules_for(name),
            max_schedules=max_schedules,
            max_steps=max_steps,
        )
        if walks:
            reports[name] = explorer.random_walks(walks=walks, seed=seed)
        else:
            reports[name] = explorer.explore()
    return reports


def assert_safe_protocols_agree(
    reports: Dict[str, ExplorationReport],
    safe: Sequence[str] = SAFE_PROTOCOLS,
) -> Dict[str, dict]:
    """Every safe protocol must certify every explored schedule.

    Returns per-protocol summaries; raises :class:`CheckError` naming the
    first offending schedule otherwise.
    """
    summaries = {}
    for name in safe:
        if name not in reports:
            continue
        report = reports[name]
        obliged = name in VISIBILITY_OBLIGED
        bad = report.counterexamples(visibility_obliged=obliged)
        if bad:
            result, verdict = bad[0]
            raise CheckError(
                "protocol %s claimed safe but schedule [%s] is not: %s"
                % (name, result.schedule_string(), verdict.describe())
            )
        summaries[name] = report.summary()
    return summaries


def find_unsafe_counterexample(report: ExplorationReport):
    """The anomaly evidence on an unsafe protocol, or None.

    Returns ``(result, verdict)`` of the first schedule violating
    entry-point visibility or conflict serializability.
    """
    for result, verdict in report.verdicts(visibility_obliged=True):
        if not verdict.ok:
            return result, verdict
    return None


@contextlib.contextmanager
def naive_mode_tables():
    """Swap the dense int-indexed mode tables for their dict-backed twins.

    Patches every consumer that binds the functions by name at import
    time (lock table, protocol base, verifier).  Used by the ablation
    harness to prove the fast tables change nothing observable.
    """
    import repro.locking.lock_table as lock_table
    import repro.protocol.base as protocol_base
    import repro.verify as verify

    patches = [
        (lock_table, "compatible", modes.compatible_naive),
        (lock_table, "supremum", modes.supremum_naive),
        (lock_table, "covers", modes.covers_naive),
        (protocol_base, "covers", modes.covers_naive),
        (verify, "compatible", modes.compatible_naive),
        (verify, "covers", modes.covers_naive),
    ]
    saved = [(module, name, getattr(module, name)) for module, name, _ in patches]
    for module, name, replacement in patches:
        setattr(module, name, replacement)
    try:
        yield
    finally:
        for module, name, original in saved:
            setattr(module, name, original)


def ablation_fingerprints(
    workload: Workload,
    protocol: str = "herrmann",
    max_schedules: int = 5000,
    max_steps: int = 300,
) -> Dict[str, tuple]:
    """Explore one workload under every ablation path.

    Returns the four fingerprints (reference index on/off × dense/naive
    mode tables).  :func:`assert_ablations_agree` checks they coincide.
    """
    fingerprints: Dict[str, tuple] = {}
    for use_index in (True, False):
        for naive_tables in (False, True):
            explorer = Explorer(
                workload,
                variant={
                    "protocol_cls": PROTOCOLS[protocol],
                    "use_reference_index": use_index,
                },
                check_rules=check_rules_for(protocol),
                max_schedules=max_schedules,
                max_steps=max_steps,
            )
            label = "refindex=%s/tables=%s" % (
                "on" if use_index else "off",
                "naive" if naive_tables else "dense",
            )
            if naive_tables:
                with naive_mode_tables():
                    fingerprints[label] = explorer.explore().fingerprint()
            else:
                fingerprints[label] = explorer.explore().fingerprint()
    return fingerprints


def _on_off_fingerprints(
    label: str, workloads, flags, protocol, max_schedules, max_steps
) -> Dict[str, tuple]:
    """Explore ``workloads[enabled]`` with every flag in ``flags`` set to
    ``enabled``, off then on; the fingerprints include the lock trace."""
    fingerprints: Dict[str, tuple] = {}
    for enabled in (False, True):
        variant = {"protocol_cls": PROTOCOLS[protocol]}
        variant.update((flag, enabled) for flag in flags)
        explorer = Explorer(
            workloads[enabled],
            variant=variant,
            check_rules=check_rules_for(protocol),
            max_schedules=max_schedules,
            max_steps=max_steps,
        )
        key = "%s=%s" % (label, "on" if enabled else "off")
        fingerprints[key] = explorer.explore().fingerprint(include_trace=True)
    return fingerprints


def plan_cache_fingerprints(
    workload: Workload,
    protocol: str = "herrmann",
    max_schedules: int = 5000,
    max_steps: int = 300,
) -> Dict[str, tuple]:
    """Explore one workload with plan caching off vs. on.

    "Off" builds every stack with a zero-budget :class:`PlanCache`.  The
    fingerprints *include the lock-trace narrative*: the compiled-plan
    cache claims to be a pure performance layer, so the bar is
    event-for-event identity of the lock operations.
    :func:`assert_ablations_agree` checks the two paths coincide.
    """

    def build_uncached(**variant):
        stack, programs = workload.build(**variant)
        stack.protocol.plan_cache = PlanCache(0)
        return stack, programs

    return _on_off_fingerprints(
        "plan-cache",
        (Workload(workload.name, build_uncached), workload),
        (),
        protocol, max_schedules, max_steps,
    )


def semantic_modes_fingerprints(
    workload: Workload,
    protocol: str = "herrmann",
    max_schedules: int = 5000,
    max_steps: int = 300,
) -> Dict[str, tuple]:
    """Explore one workload with semantic lock modes off vs. on.

    The commutativity-aware modes (SI/AP/INC) are an *opt-in* protocol
    extension: a workload whose operations are all classic reads and
    writes must replay every lock event bit-identically whether or not
    the stack would accept the new modes — turning the flag on may only
    change behavior when an operation actually demands a semantic mode.
    The fingerprints include the lock-trace narrative accordingly.
    (Workloads with commuting operations are excluded by construction:
    there the flag is *supposed* to admit more interleavings, which the
    certification and explorer tests cover instead.)
    :func:`assert_ablations_agree` checks the two paths coincide.
    """
    return _on_off_fingerprints(
        "semantic-modes",
        (workload, workload),
        ("use_semantic_modes",),
        protocol, max_schedules, max_steps,
    )


#: What the components of one schedule's fingerprint are
#: (:meth:`ScheduleResult.fingerprint` with the trace folded in).
_FINGERPRINT_PARTS = ("choices", "outcomes", "data ops", "final state", "lock trace")


def _first_difference(ours, theirs):
    """``(index, ours[index], theirs[index])`` where two unequal sequences
    first differ; the shorter one reads ``<absent>`` past its end."""
    for index, (a, b) in enumerate(
        itertools.zip_longest(ours, theirs, fillvalue="<absent>")
    ):
        if a != b:
            return index, a, b
    raise ValueError("sequences are equal")


def _both_sequences(ours, theirs) -> bool:
    return isinstance(ours, (tuple, list)) and isinstance(theirs, (tuple, list))


def _describe_divergence(base_label, base, label, fingerprint) -> str:
    """Name the first schedule two exploration fingerprints disagree on,
    and the outcome / data-op / trace element that differs in it."""
    position, ours, theirs = _first_difference(base, fingerprint)
    where = "schedule #%d" % position
    if _both_sequences(ours, theirs):
        where += " (choices %r)" % (ours[0],)
        part, ours, theirs = _first_difference(ours, theirs)
        where += ", " + _FINGERPRINT_PARTS[part]
        if _both_sequences(ours, theirs):
            index, ours, theirs = _first_difference(ours, theirs)
            where += "[%d]" % index
    return "%s: %r under %s but %r under %s" % (
        where, ours, base_label, theirs, label
    )


def assert_ablations_agree(fingerprints: Dict[str, tuple]) -> int:
    """All ablation fingerprints must be identical; returns schedule count."""
    items = list(fingerprints.items())
    base_label, base = items[0]
    for label, fingerprint in items[1:]:
        if fingerprint != base:
            raise CheckError(
                "ablation paths diverge: %s explored %d schedules, %s "
                "explored %d — the optimizations are observable; first "
                "difference at %s"
                % (
                    base_label,
                    len(base),
                    label,
                    len(fingerprint),
                    _describe_divergence(base_label, base, label, fingerprint),
                )
            )
    return len(base)


def differential_check(
    workload: Workload,
    protocols: Sequence[str] = SAFE_PROTOCOLS + UNSAFE_PROTOCOLS,
    max_schedules: int = 5000,
    max_steps: int = 300,
    walks: int = 0,
    seed: int = 0,
    ablations: bool = True,
    plan_cache: bool = True,
    semantic_modes: bool = True,
) -> dict:
    """The full differential story for one workload.

    Returns a summary dict; raises :class:`CheckError` when a safe
    protocol misbehaves, when the unsafe baseline's anomaly is *not*
    rediscovered, or when the ablation paths disagree.
    """
    reports = explore_protocols(
        workload,
        protocols=protocols,
        max_schedules=max_schedules,
        max_steps=max_steps,
        walks=walks,
        seed=seed,
    )
    summary = {
        "workload": workload.name,
        "safe": assert_safe_protocols_agree(reports),
        "reports": reports,
    }
    for name in UNSAFE_PROTOCOLS:
        if name not in reports:
            continue
        evidence = find_unsafe_counterexample(reports[name])
        if evidence is None:
            if workload.expect_anomaly:
                raise CheckError(
                    "explorer failed to rediscover the section 3.2.2 anomaly "
                    "under %s on workload %s" % (name, workload.name)
                )
            continue
        summary.setdefault("anomalies", {})[name] = evidence
    if ablations and not walks:
        fingerprints = ablation_fingerprints(
            workload, max_schedules=max_schedules, max_steps=max_steps
        )
        summary["ablation_schedules"] = assert_ablations_agree(fingerprints)
        summary["ablations"] = fingerprints
    if plan_cache and not walks:
        fingerprints = plan_cache_fingerprints(
            workload, max_schedules=max_schedules, max_steps=max_steps
        )
        summary["plan_cache_schedules"] = assert_ablations_agree(fingerprints)
        summary["plan_cache"] = fingerprints
    if semantic_modes and not walks and not workload.has_commuting_ops:
        fingerprints = semantic_modes_fingerprints(
            workload, max_schedules=max_schedules, max_steps=max_steps
        )
        summary["semantic_modes_schedules"] = assert_ablations_agree(
            fingerprints
        )
        summary["semantic_modes"] = fingerprints
    return summary
