"""Image stores: keyed, bounded caches of prefix image sets.

A *prefix* is one fault-free reference execution — identified by
``(campaign-config fingerprint, system seed, timing overrides)`` — and
its *image set* is the ascending-by-time list of
:class:`~repro.warmstart.image.SystemImage` captures taken along it.
The store keeps whole sets as the unit of caching (they are built in
one reference run and consumed together), with:

* an in-memory layer with LRU eviction bounded by total image bytes,
  so long campaigns cannot grow without limit;
* an optional on-disk layer (one file per prefix set, digest-named,
  atomic-rename writes — the :mod:`repro.parallel.cache` idioms), which
  is how image sets built in the coordinator reach worker processes.

Lookups are by :meth:`ImageStore.latest_before`: the newest image
captured *strictly before* a divergence time, the only resume point the
determinism contract permits.
"""

from __future__ import annotations

import bisect
import contextlib
import dataclasses
import hashlib
import json
import os
import pickle
from collections import OrderedDict
from pathlib import Path
from typing import Dict, List, Optional, Tuple

try:  # advisory locking is POSIX-only; degrade to lock-free elsewhere
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platforms
    fcntl = None  # type: ignore[assignment]

from .image import SystemImage

#: Default in-memory budget for cached image sets (bytes of payload).
DEFAULT_MAX_BYTES = 256 * 1024 * 1024

#: Format of the image sets this code writes, stamped at the head of
#: every set file.  An image pickles the whole live system, so a change
#: to the pickled shape of anything it holds (the snapshot encoder's
#: delta baselines, say) must bump it: a set with any other stamp, or
#: none, reads as a miss and is rebuilt instead of failing at resume.
IMAGE_SET_FORMAT = 2


@dataclasses.dataclass(frozen=True)
class PrefixKey:
    """Coordinates of one reference prefix."""

    config_fingerprint: str
    system_seed: int
    overrides: Tuple[Tuple[str, float], ...] = ()

    @classmethod
    def for_schedule(cls, config, schedule) -> "PrefixKey":
        """The prefix a schedule's warm resume must come from."""
        return cls(config_fingerprint=config.fingerprint(),
                   system_seed=schedule.system_seed,
                   overrides=tuple(sorted(schedule.overrides)))

    def digest(self) -> str:
        """Filename-safe digest of the full key."""
        payload = json.dumps(
            [self.config_fingerprint, self.system_seed,
             [[k, v] for k, v in self.overrides]],
            separators=(",", ":"))
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:32]


class ImageStore:
    """Bounded cache of prefix image sets, optionally disk-backed.

    ``root=None`` keeps everything in memory (the serial-campaign
    mode); with a directory, every ``put`` writes through to disk and
    ``get`` falls back to disk on a memory miss (the multi-process
    mode — workers open the same root read-only).
    """

    def __init__(self, root: Optional[os.PathLike] = None,
                 max_bytes: int = DEFAULT_MAX_BYTES) -> None:
        self.root = Path(root) if root is not None else None
        self.max_bytes = max_bytes
        self._sets: "OrderedDict[str, List[SystemImage]]" = OrderedDict()
        self._bytes: Dict[str, int] = {}
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    # ------------------------------------------------------------------
    def _path(self, key: PrefixKey) -> Path:
        assert self.root is not None
        return self.root / f"{key.digest()}.imgset"

    def _charge(self, digest: str, images: List[SystemImage]) -> None:
        self._bytes[digest] = sum(img.nbytes for img in images)
        while (len(self._sets) > 1
               and sum(self._bytes.values()) > self.max_bytes):
            victim, _ = self._sets.popitem(last=False)
            self._bytes.pop(victim, None)
            self.evictions += 1

    # ------------------------------------------------------------------
    def put(self, key: PrefixKey, images: List[SystemImage]) -> None:
        """Cache ``images`` (sorted by capture time) under ``key``."""
        images = sorted(images, key=lambda img: img.captured_at)
        digest = key.digest()
        self._sets[digest] = images
        self._sets.move_to_end(digest)
        self._charge(digest, images)
        if self.root is not None:
            self.root.mkdir(parents=True, exist_ok=True)
            path = self._path(key)
            tmp = path.with_name(path.name + f".tmp{os.getpid()}")
            with open(tmp, "wb") as fh:
                pickle.dump(IMAGE_SET_FORMAT, fh,
                            protocol=pickle.HIGHEST_PROTOCOL)
                pickle.dump({"key": dataclasses.asdict(key),
                             "images": images}, fh,
                            protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(tmp, path)

    def _read(self, key: PrefixKey, stamp_only: bool = False):
        """The images of ``key``'s set file (``True`` for a current set
        when ``stamp_only``), or ``None`` when the file is missing,
        unreadable, corrupt, or stamped with another format."""
        try:
            with open(self._path(key), "rb") as fh:
                if pickle.load(fh) != IMAGE_SET_FORMAT:
                    return None
                return True if stamp_only else list(pickle.load(fh)["images"])
        except (OSError, pickle.PickleError, KeyError, EOFError,
                TypeError):
            return None

    def get(self, key: PrefixKey) -> Optional[List[SystemImage]]:
        """The image set for ``key``, or ``None`` (unreadable, corrupt
        or differently-stamped disk entries count as absent)."""
        digest = key.digest()
        images = self._sets.get(digest)
        if images is not None:
            self._sets.move_to_end(digest)
            self.hits += 1
            return images
        if self.root is not None:
            images = self._read(key)
            if images is not None:
                self._sets[digest] = images
                self._charge(digest, images)
                self.hits += 1
                return images
        self.misses += 1
        return None

    def has(self, key: PrefixKey) -> bool:
        """Whether a current-format set exists (without counting a
        hit/miss; reads only a disk file's format stamp)."""
        if key.digest() in self._sets:
            return True
        return (self.root is not None
                and self._read(key, stamp_only=True) is not None)

    @contextlib.contextmanager
    def build_lock(self, key: PrefixKey):
        """Advisory exclusive lock for building ``key``'s image set.

        Co-located fabric workers (and the parallel warm coordinator's
        check-then-build) share one on-disk store; without mutual
        exclusion two processes that both miss can build the same
        reference prefix twice — wasted work — or interleave writes.
        The lock is per-prefix (``<digest>.lock`` beside the set file),
        blocking, and released on exit even if the build raises.  A
        memory-only store, or a platform without :mod:`fcntl`, degrades
        to lock-free behavior: correctness never depended on the lock
        (writes stay atomic-rename), only build economy does.
        """
        if self.root is None or fcntl is None:
            yield
            return
        self.root.mkdir(parents=True, exist_ok=True)
        lock_path = self.root / f"{key.digest()}.lock"
        with open(lock_path, "a+") as fh:
            fcntl.flock(fh.fileno(), fcntl.LOCK_EX)
            try:
                yield
            finally:
                fcntl.flock(fh.fileno(), fcntl.LOCK_UN)

    def latest_before(self, key: PrefixKey, t: float
                      ) -> Optional[SystemImage]:
        """Newest image captured strictly before ``t``, or ``None``.

        Strictness is the determinism contract: an image captured *at*
        a fault time may already include events the armed fault must
        interleave with.
        """
        images = self.get(key)
        if not images:
            return None
        times = [img.captured_at for img in images]
        idx = bisect.bisect_left(times, t) - 1
        return images[idx] if idx >= 0 else None

    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, int]:
        """Counters for reports."""
        return {"sets": len(self._sets),
                "bytes": sum(self._bytes.values()),
                "hits": self.hits, "misses": self.misses,
                "evictions": self.evictions}

    def clear(self) -> int:
        """Drop every cached set (memory and disk); returns count."""
        removed = len(self._sets)
        self._sets.clear()
        self._bytes.clear()
        if self.root is not None and self.root.is_dir():
            for path in self.root.glob("*.imgset"):
                try:
                    path.unlink()
                    removed += 1
                except OSError:
                    pass
        return removed
