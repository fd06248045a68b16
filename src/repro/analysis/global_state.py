"""Global-state capture: turning checkpoint lines into checkable views.

A *line* is one checkpoint per in-service process — the state the system
would restart from.  :class:`ProcessView` wraps a checkpoint's payload
in a read-only, lazily decoded :class:`~repro.snapshot.SnapshotView`
(decoding only the sections a checker reads, each delta chain replayed
once into a memo on the payload) plus the metadata the invariant
checkers need (epoch, dirty bit at snapshot time, ground-truth
corruption, the per-section byte breakdown).  Lines can be built from
stable storage (the hardware recovery line), from volatile storage (the
MDCD recovery anchors), or from the live process states (for end-of-run
oracles).
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Union

from ..checkpoint import Checkpoint
from ..host import FtProcess, ProcessSnapshot
from ..snapshot import SnapshotView, decode_payload
from ..types import ProcessId


@dataclasses.dataclass
class ProcessView:
    """One process's state as reflected by one snapshot.

    ``snapshot`` is read-only: a lazily decoded
    :class:`~repro.snapshot.SnapshotView` for checkpoint views (whose
    decoded sections are shared with other views of the same payload
    chain), or the live objects themselves for live views.  Checkers
    only inspect it.
    """

    process_id: ProcessId
    snapshot: Union[ProcessSnapshot, SnapshotView]
    taken_at: float
    work_done: float
    epoch: Optional[int] = None
    kind: Optional[str] = None
    #: Stable-content case of the source checkpoint (``"current-state"``
    #: / ``"volatile-copy"``), ``None`` for volatile and live views.
    content: Optional[str] = None
    meta: Dict = dataclasses.field(default_factory=dict)
    #: Accounted bytes per snapshot section of the source checkpoint
    #: (empty for live views, which never encode).
    section_bytes: Dict[str, int] = dataclasses.field(default_factory=dict)

    @property
    def dirty_bit(self) -> int:
        """The dirty bit *inside* the snapshot (the knowledge the
        restored process would wake up with)."""
        return self.snapshot.mdcd.dirty_bit

    @property
    def truly_corrupt(self) -> bool:
        """Ground truth: is the snapshotted application state actually
        contaminated?"""
        return self.snapshot.app_state.corrupt


def view_from_checkpoint(checkpoint: Checkpoint) -> ProcessView:
    """A read-only view of a checkpoint.  Sectioned payloads are not
    decoded here: the view's :class:`~repro.snapshot.SnapshotView`
    decodes each section on first access (see
    :func:`~repro.snapshot.read_section`); protocol restores keep their
    private decode in ``Checkpoint.restore_state``."""
    payload = checkpoint.payload
    return ProcessView(
        process_id=checkpoint.process_id,
        snapshot=(decode_payload(payload) if payload.opaque
                  else SnapshotView(payload)),
        taken_at=checkpoint.taken_at,
        work_done=checkpoint.work_done,
        epoch=checkpoint.epoch,
        kind=checkpoint.kind.value,
        content=(checkpoint.content.value
                 if checkpoint.content is not None else None),
        meta=dict(checkpoint.meta),
        section_bytes=checkpoint.section_sizes())


def live_view(process: FtProcess) -> ProcessView:
    """A view of the process's current state (no pickling round-trip;
    read-only use only)."""
    return ProcessView(
        process_id=process.process_id,
        snapshot=process.make_snapshot(),
        taken_at=process.sim.now,
        work_done=process.progress,
        epoch=process.current_ndc(),
        kind="live")


def stable_line(system, epoch: Optional[int] = None) -> Dict[ProcessId, ProcessView]:
    """The stable-storage line of a system.

    ``epoch=None`` picks, for each process, its latest completed stable
    checkpoint; an explicit epoch picks that establishment (falling back
    to the latest if the epoch is not retained).
    """
    line: Dict[ProcessId, ProcessView] = {}
    for proc in system.process_list():
        if proc.deposed:
            continue
        store = proc.node.stable
        checkpoint = None
        if epoch is not None:
            checkpoint = store.at_epoch(proc.process_id, epoch)
        if checkpoint is None:
            checkpoint = store.peek(proc.process_id)
        if checkpoint is not None:
            line[proc.process_id] = view_from_checkpoint(checkpoint)
    return line


def common_stable_line(system) -> Dict[ProcessId, ProcessView]:
    """The line hardware recovery would actually use: the minimum epoch
    completed by every in-service process."""
    epochs: List[int] = []
    for proc in system.process_list():
        if proc.deposed:
            continue
        latest = proc.node.stable.peek(proc.process_id)
        if latest is not None and latest.epoch is not None:
            epochs.append(latest.epoch)
    if not epochs:
        return {}
    return stable_line(system, epoch=min(epochs))


def volatile_line(system) -> Dict[ProcessId, ProcessView]:
    """The most recent volatile checkpoints (processes without one are
    omitted — a clean process may never have checkpointed)."""
    line: Dict[ProcessId, ProcessView] = {}
    for proc in system.process_list():
        if proc.deposed:
            continue
        checkpoint = proc.volatile_checkpoint()
        if checkpoint is not None:
            line[proc.process_id] = view_from_checkpoint(checkpoint)
    return line


def live_line(system) -> Dict[ProcessId, ProcessView]:
    """Views of every in-service process's current state."""
    return {proc.process_id: live_view(proc)
            for proc in system.process_list() if not proc.deposed}
