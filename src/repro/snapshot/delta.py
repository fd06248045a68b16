"""Incremental (delta) encoding of the journal and message-log sections.

Between two consecutive captures of one process the journals and the
shadow's suppressed-message log change by a handful of entries, yet the
seed pipeline re-pickled them whole every time — making checkpoint cost
O(journal size) instead of O(new entries).  This module computes the
difference of a section against the previous capture, directly in the
packed (plain-tuple) form that gets encoded, and replays it:

* a journal delta is ``(added records, revalidated keys, removed keys,
  pruning horizon)`` — the records added, the keys whose ``validated``
  flag flipped, the keys pruned/discarded, and the new horizon;
* a log delta is ``(min_keep_sn, appended entries, reclaimed_count)``
  — the bound of the surviving base suffix (the reclaim/clear effect),
  the entries appended past the previous capture's last sequence
  number, and the monitoring counter.

Capture-side *baselines* hold the previous capture's own objects, not
fingerprints of them: a journal baseline is a shallow copy of the
records dict plus the keys that were unvalidated at that capture; a log
baseline is the tuple of log entries.  The diffs compare objects before
fields.  A journal record is never mutated after construction except
for its one-way ``validated`` flag, and a log entry never is, so an
entry that *is* the baseline's object changed at most that flag.  Only
entries whose objects differ — a record discarded and re-added, or a
baseline whose objects are not the live ones (a flock fork diffs its
private records against the template's shared baseline) — are compared
field by field.  A baseline is only valid for the state the previous
payload encodes, so the encoder replaces it at every capture and drops
it entirely on restore (the full-section fallback).

If the live section has changed in a way the delta language cannot
express (a message log whose sequence numbers restarted after
``clear()``), :func:`log_delta` returns ``None`` and the encoder falls
back to a full section — correctness never depends on the delta being
representable.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, FrozenSet, Optional, Tuple

from ..journal import Journal, JournalRecord
from ..messages.log import LogEntry, MessageLog
from ..types import MessageKind

#: Sections that support delta encoding, in snapshot-assembly order.
DELTA_SECTIONS = ("journals", "msg_log")

#: A journal's baseline: its records dict at the previous capture (a
#: shallow copy) and the keys whose records were unvalidated then.
JournalBase = Tuple[Dict[object, JournalRecord], FrozenSet[object]]

#: A message log's baseline: its entries at the previous capture.
LogBase = Tuple[LogEntry, ...]


def _pack_record(rec: JournalRecord) -> Tuple:
    """A journal record as a plain tuple — steady-state deltas are tiny
    and mostly overhead, so the wire form avoids pickling class
    references and field names for every payload.  ``taint_map`` (set
    only on N-component topologies) rides as a twelfth element when
    present, so records without one pack exactly as before it existed."""
    packed = (rec.key, rec.kind.value, rec.sender, rec.receiver, rec.sn,
              rec.sent_dirty, rec.validated, rec.corrupt, rec.time,
              rec.taint_sn, rec.dsn)
    if rec.taint_map is not None:
        return packed + (rec.taint_map,)
    return packed


def _unpack_record(data: Tuple) -> JournalRecord:
    (key, kind, sender, receiver, sn, sent_dirty, validated, corrupt,
     time, taint_sn, dsn) = data[:11]
    return JournalRecord(key=key, kind=MessageKind(kind), sender=sender,
                         receiver=receiver, sn=sn, sent_dirty=sent_dirty,
                         validated=validated, corrupt=corrupt, time=time,
                         taint_sn=taint_sn,
                         taint_map=data[11] if len(data) > 11 else None,
                         dsn=dsn)


# ----------------------------------------------------------------------
# journals
# ----------------------------------------------------------------------
def _record_identity(rec: JournalRecord) -> Tuple:
    """Every field of a record except the mutable ``validated`` flag —
    what the diff compares when a live record is not the baseline's
    object.  A key whose identity changed between captures (discarded
    and re-added with other fields) is encoded as remove + add rather
    than trusting the stale base record."""
    return (rec.kind, rec.sender, rec.receiver, rec.sn, rec.sent_dirty,
            rec.corrupt, rec.time, rec.taint_sn, rec.taint_map, rec.dsn)


def journal_base(journal: Journal) -> JournalBase:
    """The baseline of a journal that was just encoded whole."""
    records = journal._records
    return dict(records), frozenset(
        [key for key, rec in records.items() if not rec.validated])


def journal_delta(journal: Journal, base: JournalBase
                  ) -> Tuple[Tuple, JournalBase]:
    """Diff a live journal against its baseline; returns the packed
    delta and the baseline of the journal as it is now."""
    base_records, base_unvalidated = base
    records = journal._records
    added = []
    revalidated = []
    unvalidated = []
    matched = 0
    for key, rec in records.items():
        validated = rec.validated
        old = base_records.get(key)
        if old is not rec and (old is None or _record_identity(old)
                               != _record_identity(rec)):
            added.append(_pack_record(rec))
        else:
            matched += 1
            if validated and key in base_unvalidated:
                revalidated.append(key)
        if not validated:
            unvalidated.append(key)
    removed = []
    if matched != len(base_records):
        for key, old in base_records.items():
            rec = records.get(key)
            if rec is not old and (rec is None or _record_identity(rec)
                                   != _record_identity(old)):
                removed.append(key)
    return ((tuple(added), tuple(revalidated), tuple(removed),
             journal.pruned_before),
            (dict(records), frozenset(unvalidated)))


def apply_journal_delta(journal: Journal, delta: Tuple) -> Journal:
    """Replay a packed delta onto a base journal, returning a new
    journal.

    The base and its records are left untouched (the records dict is
    copied and a revalidated record is replaced by a validated copy),
    so a decoded value shared by auditor views can seed the next chain
    link, and a restore built from freshly decoded records stays
    private."""
    added, revalidated, removed, pruned_before = delta
    records = dict(journal._records)
    for key in removed:
        records.pop(key, None)
    for packed in added:
        rec = _unpack_record(packed)
        # A re-added key moves to the end of the insertion order,
        # matching dict semantics in the live journal.
        records.pop(rec.key, None)
        records[rec.key] = rec
    for key in revalidated:
        records[key] = dataclasses.replace(records[key], validated=True)
    out = Journal()
    out._records = records
    out.pruned_before = pruned_before
    return out


# ----------------------------------------------------------------------
# message log
# ----------------------------------------------------------------------
def log_base(log: MessageLog) -> LogBase:
    """The baseline of a log as it is now."""
    return tuple(log._entries)


def log_delta(log: MessageLog, base: LogBase) -> Optional[Tuple]:
    """Diff the live log against its baseline; returns the packed delta,
    or ``None`` when the delta language cannot express the change.

    The live log evolves only by appending (increasing ``sn``),
    reclaiming a prefix, or clearing — so a representable state is "a
    suffix of the base, plus appended entries".  Entries at or below
    the base's last sequence number must be exactly the base's tail:
    the same objects, or entries with the same sequence number *and*
    logged ``msg_id`` — so an entry added after a ``clear()``-restart
    that happens to reuse an old sequence number is never mistaken for
    the base entry it aliases.  Appended messages ship whole (a full
    section would carry them too).
    """
    entries = log._entries
    kept = 0                    # live entries at or below the base's last sn
    if base:
        kept = len(entries)
        base_last = base[-1].sn
        while kept and entries[kept - 1].sn > base_last:
            kept -= 1
        if kept > len(base):
            return None
        for entry, old in zip(entries, base[len(base) - kept:]):
            if entry is not old and (entry.sn != old.sn or entry.message.msg_id
                                     != old.message.msg_id):
                return None
    return (entries[0].sn if kept else None,
            tuple([(e.sn, e.message, e.recipients) for e in entries[kept:]]),
            log.reclaimed_count)


def apply_log_delta(log: MessageLog, delta: Tuple) -> MessageLog:
    """Replay a packed delta onto a base log, returning a new log; the
    base is left untouched (entries are never mutated, so they are
    shared)."""
    min_keep_sn, appended, reclaimed_count = delta
    out = MessageLog()
    if min_keep_sn is not None:
        out._entries = [e for e in log._entries if e.sn >= min_keep_sn]
    out._entries.extend(LogEntry(sn=sn, message=message, recipients=recipients)
                        for sn, message, recipients in appended)
    out.reclaimed_count = reclaimed_count
    return out
