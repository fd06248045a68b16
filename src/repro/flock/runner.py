"""Suffix-fork batch execution of audit campaigns.

:class:`FlockRunner` is the batch layer over
:class:`~repro.flock.template.ForkTemplate`: it groups a campaign's
schedules by warm-start prefix (``PrefixKey`` digest — same config,
seed, and timing overrides), makes one resident template per group
(thawed **once** from a warm-start image, or built directly from the
reference config), and executes the group's schedules back-to-back as
cheap forks while the template advances monotonically along the
reference timeline.  Groups run largest-first, so a worker keeps one
template resident at a time and the biggest amortization happens first.

On top of the shared-object table itself, only one thing is recycled
across forks: the **event pool** — each fork's kernel acquires from the
previous fork's free list, keeping the hot event objects resident.
Decoded auditor state has no runner-side memo.  Prefix checkpoints are
shared objects, and each delta chain carries one decode memo
(:func:`~repro.snapshot.read_section`) that moves to the payload read
last: forks share a prefix memo only until one of them reads its first
suffix link, after which later readers replay the prefix chain again.

Everything observable is bit-for-bit identical to the warm and cold
paths: findings, error strings, shrink results, trace digests.  The
property tests and the bench's digest cross-checks are the oracle.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Tuple

from ..errors import AuditViolation
from ..sim.events import EventPool
from ..warmstart.engine import MIN_GROUP, divergence_time
from ..warmstart.store import ImageStore, PrefixKey
from .template import FORK_EPS, FORK_QUANTUM, ForkTemplate, fork_position

#: Default shard size for parallel flock campaigns: groups larger than
#: this are split so one hot prefix still spreads across workers.
DEFAULT_FORK_BATCH = 32


class FlockRunner:
    """Flock execution of one campaign's schedules (drop-in for
    :class:`~repro.warmstart.engine.WarmRunner` where it matters:
    ``plan`` / ``audit_schedule`` / ``traced_audit`` / ``violates`` /
    ``stats``)."""

    def __init__(self, config, store: Optional[ImageStore] = None,
                 timeline=None, min_group: int = MIN_GROUP,
                 fork_batch: int = DEFAULT_FORK_BATCH,
                 build_missing: bool = True) -> None:
        self.config = config
        self.store = store
        self.timeline = timeline
        self.min_group = min_group
        self.fork_batch = max(1, int(fork_batch))
        #: Whether a missing template may be built from a direct
        #: reference run (workers consuming a pre-built image store
        #: turn this off and degrade to cold instead).
        self.build_missing = build_missing
        self._templates: Dict[str, ForkTemplate] = {}
        self._group_counts: Dict[str, int] = {}
        self._pool = EventPool()
        self.flock_runs = 0
        self.cold_runs = 0
        self.templates_built = 0
        self.decode_seconds = 0.0
        self.build_seconds = 0.0
        self.fork_seconds = 0.0
        self.run_seconds = 0.0

    # ------------------------------------------------------------------
    # planning and grouping
    # ------------------------------------------------------------------
    def _key(self, schedule) -> PrefixKey:
        return PrefixKey.for_schedule(self.config, schedule)

    def plan(self, schedules) -> None:
        """Count prefix-group sizes (the template-worthiness signal).

        Recounts from scratch, so planning the same campaign twice
        (``run_audit`` plans, then hands the batch to ``run_batch``,
        which plans again) cannot inflate singleton groups past the
        ``min_group`` gate."""
        counts: Dict[str, int] = {}
        for sched in schedules:
            digest = self._key(sched).digest()
            counts[digest] = counts.get(digest, 0) + 1
        self._group_counts = counts

    def groups(self, schedules) -> List[List[int]]:
        """Campaign schedule indices grouped by prefix, largest group
        first; within a group, divergence-ascending (the template's
        advancement order)."""
        by_digest: Dict[str, List[int]] = {}
        for idx, sched in enumerate(schedules):
            by_digest.setdefault(self._key(sched).digest(), []).append(idx)
        ordered = sorted(by_digest.values(),
                         key=lambda idxs: (-len(idxs), idxs[0]))
        for idxs in ordered:
            idxs.sort(key=lambda i: (divergence_time(schedules[i]), i))
        return ordered

    def shards(self, schedules) -> List[List[int]]:
        """Groups split into ``fork_batch``-sized chunks for parallel
        dispatch (one resident template per chunk per worker)."""
        shards: List[List[int]] = []
        for idxs in self.groups(schedules):
            for at in range(0, len(idxs), self.fork_batch):
                shards.append(idxs[at:at + self.fork_batch])
        return shards

    # ------------------------------------------------------------------
    # template lifecycle
    # ------------------------------------------------------------------
    def _template_for(self, schedule, force: bool = False
                      ) -> Optional[ForkTemplate]:
        digest = self._key(schedule).digest()
        template = self._templates.get(digest)
        if template is not None:
            return template
        if not force and self._group_counts.get(digest, 0) < self.min_group:
            return None
        template = self._make_template(schedule)
        if template is not None:
            self._templates[digest] = template
            self.templates_built += 1
        return template

    def _make_template(self, schedule) -> Optional[ForkTemplate]:
        if self.store is not None:
            # Start no later than the group's earliest fork position
            # (groups execute divergence-ascending, so this schedule's
            # position is the earliest the template must serve).
            position = fork_position(divergence_time(schedule),
                                     self.config.horizon)
            image = self.store.latest_before(self._key(schedule),
                                             position + FORK_EPS)
            if image is not None:
                begin = time.monotonic()
                template = ForkTemplate.from_image(image)
                self.decode_seconds += time.monotonic() - begin
                return template
        if not self.build_missing:
            return None
        begin = time.monotonic()
        template = ForkTemplate.from_reference(self.config, schedule)
        self.build_seconds += time.monotonic() - begin
        return template

    def ensure_template(self, schedule) -> None:
        """Force-build the template for ``schedule``'s prefix and
        pre-dump at each of its fault instants.

        The shrink hook: every shrink candidate keeps a subset of the
        violator's faults, so its divergence time is one of the
        violator's fault instants — pre-dumping there (ascending) lets
        candidates fork no matter which order the shrinker tries them
        in, even though template advancement is monotone.
        """
        times = [spec.activate_at for spec in schedule.software]
        times += [spec.crash_at for spec in schedule.crashes]
        if not times:
            # Override-only violator: its reference *is* the violating
            # run (useless as a template), and candidates that drop an
            # override leave the prefix group anyway.  Let the shrink
            # replay cold.
            return
        template = self._template_for(schedule, force=True)
        if template is None:
            return
        positions = sorted({fork_position(t, self.config.horizon)
                            for t in times})
        for position in positions:
            if (position < FORK_QUANTUM
                    or position < template.start_position
                    or position < template.position):
                continue
            if not template.advance_to(position):
                break
            template.dump()

    def release(self) -> None:
        """Drop resident templates (end of campaign / shrink phase)."""
        self._templates.clear()

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def _fork_for(self, template: ForkTemplate, schedule):
        """A thawed ``(system, auditor)`` fork positioned strictly
        before ``schedule``'s divergence — or ``None`` when no clean
        fork position is reachable (cold fallback)."""
        position = fork_position(divergence_time(schedule),
                                 self.config.horizon)
        if position < FORK_QUANTUM or position < template.start_position:
            return None
        data: Optional[bytes] = None
        if position >= template.position and template.advance_to(position):
            data = template.dump()
        else:
            data = template.dump_at(position)
        if data is None:
            return None
        begin = time.monotonic()
        system, auditor = template.fork(data, fail_fast=True)
        system.sim._pool = self._pool
        schedule.arm(system)
        self.fork_seconds += time.monotonic() - begin
        return system, auditor

    def audit_schedule(self, schedule, fail_fast: bool = True):
        """Flock-or-cold audit of one schedule (cold-identical
        findings).  Mirrors ``WarmRunner.audit_schedule``."""
        return self.traced_audit(schedule, fail_fast=fail_fast)[0]

    def traced_audit(self, schedule, fail_fast: bool = False,
                     force_template: bool = False):
        """Audit one schedule, returning ``(findings, system)`` — the
        system with its full trace (prefix records travel in the fork),
        for the bench's digest cross-checks."""
        from ..audit.auditor import OnlineAuditor
        from ..audit.campaign import build_audit_system
        template = self._template_for(schedule, force=force_template)
        if template is not None:
            forked = self._fork_for(template, schedule)
            if forked is not None:
                self.flock_runs += 1
                system, auditor = forked
                auditor.fail_fast = fail_fast
                return self._execute(system, auditor)
        self.cold_runs += 1
        system = build_audit_system(self.config, schedule)
        auditor = OnlineAuditor(
            system, fail_fast=fail_fast,
            include_ground_truth=self.config.include_ground_truth)
        return self._execute(system, auditor)

    def _execute(self, system, auditor):
        begin = time.monotonic()
        try:
            system.run()
        except AuditViolation:
            pass
        try:
            auditor.finalize()
        except AuditViolation:
            pass
        self.run_seconds += time.monotonic() - begin
        return auditor.findings, system

    def violates(self, schedule) -> bool:
        """Flock drop-in for the shrink predicate (crashed replays are
        non-violating, matching ``schedule_violates``)."""
        try:
            return bool(self.audit_schedule(schedule, fail_fast=True))
        except Exception:
            return False

    def run_batch(self, schedules) -> List[Dict]:
        """Execute a whole campaign serially: grouped, largest group
        first, one resident template per group.  Returns result dicts
        (in input order) shaped exactly like the campaign workers'."""
        self.plan(schedules)
        results: List[Optional[Dict]] = [None] * len(schedules)
        for idxs in self.groups(schedules):
            for idx in idxs:
                results[idx] = self._run_one(schedules[idx])
        return [r for r in results if r is not None]

    def _run_one(self, schedule) -> Dict:
        before = self.flock_runs
        try:
            findings = self.audit_schedule(schedule, fail_fast=True)
        except Exception as exc:  # simulation bug — report, don't abort
            return {"schedule": schedule.to_dict(), "violated": False,
                    "findings": [],
                    "error": f"{type(exc).__name__}: {exc}",
                    "flock": self.flock_runs > before}
        return {"schedule": schedule.to_dict(),
                "violated": bool(findings),
                "findings": [f.to_dict() for f in findings],
                "error": None,
                "flock": self.flock_runs > before}

    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, float]:
        """Counters and the per-phase timing breakdown."""
        stats: Dict[str, float] = {
            "flock_runs": self.flock_runs,
            "cold_runs": self.cold_runs,
            "templates_built": self.templates_built,
            "flock_groups": len(self._group_counts),
            "decode_seconds": round(self.decode_seconds, 6),
            "build_seconds": round(self.build_seconds, 6),
            "fork_seconds": round(self.fork_seconds, 6),
            "run_seconds": round(self.run_seconds, 6),
        }
        forks = dumps = dump_bytes = shared = 0
        advance = encode = 0.0
        for template in self._templates.values():
            tstats = template.stats()
            forks += tstats["forks"]
            dumps += tstats["dumps"]
            dump_bytes += tstats["dump_bytes"]
            shared += tstats["shared_objects"]
            advance += tstats["advance_seconds"]
            encode += tstats["dump_seconds"]
        stats.update({
            "forks": forks, "dumps": dumps, "dump_bytes": dump_bytes,
            "shared_objects": shared,
            "advance_seconds": round(advance, 6),
            "dump_encode_seconds": round(encode, 6),
        })
        stats["pool_reused"] = self._pool.reused
        if self.store is not None:
            stats.update(self.store.stats())
        return stats


def _run_flock_shard(item) -> List[Dict]:
    """Worker: flock-audit one shard of schedules off one template.

    The coordinator pre-built image sets into the on-disk store at
    ``root``; the worker thaws its shard's template from the newest
    usable image exactly once and forks every schedule from it.
    """
    from ..audit.config import AuditConfig
    from ..audit.schedule import FaultSchedule
    config_dict, schedule_dicts, root, fork_batch = item
    config = AuditConfig.from_dict(config_dict)
    schedules = [FaultSchedule.from_dict(d) for d in schedule_dicts]
    store = ImageStore(root=root) if root else None
    runner = FlockRunner(config, store=store, fork_batch=fork_batch,
                         build_missing=store is None)
    return runner.run_batch(schedules)
