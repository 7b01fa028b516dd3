"""On-disk persistent result store with sweep resume and corruption hardening.

Layout of a store directory::

    <root>/results.jsonl        one {"crc": ..., "key": ..., "record": ...} per line
    <root>/checkpoints/<key>.json   mid-point state of one adaptive run

``results.jsonl`` is append-only: every completed sweep point is written (and
flushed) the moment it finishes, so a killed sweep keeps everything it
completed.  Reads are last-write-wins per key.

Corruption handling
-------------------
Every line carries a CRC-32 of its canonical ``{"key", "record"}`` JSON, so a
bit-flipped or hand-mangled line is *detected*, not silently served.  Two
failure classes are distinguished on load:

* a **torn final line** — unparseable JSON on the last line, the signature of
  a kill mid-append — is skipped silently, exactly as before: it is the
  expected crash artefact the append-only design exists for;
* **any other damage** (unparseable JSON mid-file, a parseable line missing
  its fields, a CRC mismatch anywhere) is *quarantined*: the line is excluded
  from the index, a :class:`StoreCorruptionWarning` naming the line number
  and byte offset is emitted, and loading continues — the surviving records
  stay usable and a sweep resume simply recomputes the quarantined points.
  ``ResultStore(root, strict=True)`` upgrades quarantine to a
  :class:`~repro.exceptions.StoreCorruptionError` carrying the same
  line/offset coordinates.

Adaptive checkpoints are wrapped in a ``{"crc", "state"}`` envelope; a
checkpoint that fails its CRC (or does not parse) loads as ``None``, which
makes the adaptive runner recompute from scratch — a checkpoint is pure
optimisation, so the clean fallback is always correct.  Legacy CRC-less
results/checkpoints written by older builds still load.

Compaction (:meth:`ResultStore.compact`) rewrites ``results.jsonl``
atomically with exactly one CRC-stamped line per live key, **sorted by
key** — a canonical form: two stores holding the same results compact to
byte-identical files regardless of write order, which is what lets the chaos
harness assert a faulted-and-recovered store equals a fault-free one.
"""

from __future__ import annotations

import json
import os
import warnings
import zlib
from pathlib import Path
from typing import Any, Callable, Mapping

from repro.exceptions import ConfigurationError, StoreCorruptionError
from repro.faults.injector import FaultInjector
from repro.store.keys import CODE_VERSION_SALT, result_key
from repro.store.serialization import from_dict, to_dict

RESULTS_FILENAME = "results.jsonl"
CHECKPOINTS_DIRNAME = "checkpoints"


class StoreCorruptionWarning(UserWarning):
    """A corrupt non-tail store line was quarantined (excluded but kept on disk)."""


def _canonical_crc(key: str, record: Any) -> int:
    """CRC-32 of the canonical JSON of a result line's payload.

    Canonical means ``sort_keys=True`` over ``{"key", "record"}`` only — the
    exact bytes :meth:`ResultStore.put` writes modulo the ``"crc"`` field —
    so the checksum survives a JSON round-trip (Python floats re-encode to
    identical text via ``repr``).
    """
    payload = json.dumps({"key": key, "record": record}, sort_keys=True)
    return zlib.crc32(payload.encode("utf-8"))


def _state_crc(state: Mapping[str, Any]) -> int:
    return zlib.crc32(json.dumps(dict(state), sort_keys=True).encode("utf-8"))


class AdaptiveCheckpoint:
    """Atomic save/load/clear of one adaptive run's mid-point state.

    The state is an opaque JSON-compatible dict owned by the adaptive points
    of :class:`~repro.simulation.scheduler.SweepScheduler` (observed counts,
    shard cursor, seed); this class guarantees that a kill at any moment
    leaves either the previous complete state or the new complete state on
    disk, never a torn file — and, via the CRC envelope, that a file damaged
    by anything *other* than the atomic-replace protocol (bit rot, manual
    edits, an injected truncation) is detected and loads as ``None`` rather
    than resuming from corrupt counts.  A ``None`` load always falls back to
    a clean recompute, so checkpoint damage can never change results.
    """

    def __init__(
        self, path: Path, fault_injector: FaultInjector | None = None
    ) -> None:
        self._path = Path(path)
        self._injector = (
            fault_injector if fault_injector is not None else FaultInjector.from_env()
        )
        self._saves = 0

    @property
    def path(self) -> Path:
        return self._path

    def load(self) -> dict[str, Any] | None:
        """Return the saved state, or ``None`` if absent, damaged, or stale."""
        try:
            text = self._path.read_text(encoding="utf-8")
        except OSError:
            return None
        try:
            data = json.loads(text)
        except json.JSONDecodeError:
            return None
        if not isinstance(data, dict):
            return None
        if set(data) == {"crc", "state"}:
            state = data["state"]
            if not isinstance(state, dict) or _state_crc(state) != data["crc"]:
                return None
            return state
        # Legacy CRC-less checkpoint from an older build: pass through; the
        # adaptive runner still validates its version/seed fields.
        return data

    def save(self, state: Mapping[str, Any]) -> None:
        self._path.parent.mkdir(parents=True, exist_ok=True)
        payload = dict(state)
        text = json.dumps({"crc": _state_crc(payload), "state": payload}, sort_keys=True)
        save_number = self._saves
        self._saves += 1
        if self._injector is not None and self._injector.plan.truncates_checkpoint_save(
            save_number
        ):
            # Injected torn write: ship only a prefix of the file.  The next
            # load fails to parse (or fails its CRC) and recomputes cleanly.
            text = text[: max(1, len(text) // 2)]
        tmp = self._path.with_suffix(".tmp")
        tmp.write_text(text, encoding="utf-8")
        os.replace(tmp, self._path)

    def clear(self) -> None:
        try:
            self._path.unlink()
        except FileNotFoundError:
            pass


class ResultStore:
    """Content-addressed store of completed sweep-point results.

    Keys come from :func:`repro.store.keys.result_key`; values are result
    objects registered in :mod:`repro.store.serialization`.  One store
    instance is meant to be used from a single (parent) process — shard
    workers never touch the store, the experiment layer writes merged
    results only.

    Args:
        root: store directory (created if missing).
        strict: raise :class:`~repro.exceptions.StoreCorruptionError` on the
            first corrupt non-tail line instead of quarantining it with a
            warning.
        fault_injector: chaos-plan carrier for test mode (``store line <k>
            corrupt`` clauses corrupt the k-th appended line on disk right
            after its durable write); defaults to the ambient
            ``REPRO_FAULT_PLAN`` plan, if set.
    """

    def __init__(
        self,
        root: str | Path,
        strict: bool = False,
        fault_injector: FaultInjector | None = None,
    ) -> None:
        self.root = Path(root)
        self.strict = strict
        self._injector = (
            fault_injector if fault_injector is not None else FaultInjector.from_env()
        )
        try:
            self.root.mkdir(parents=True, exist_ok=True)
        except OSError as error:
            # e.g. the path names an existing file, or a parent is read-only.
            raise ConfigurationError(
                f"store path {str(self.root)!r} is not a usable directory: {error}"
            ) from error
        self._results_path = self.root / RESULTS_FILENAME
        self._index: dict[str, dict[str, Any]] | None = None
        self._quarantined: list[dict[str, Any]] = []
        self._line_count = 0

    # ------------------------------------------------------------------
    def _classify_line(self, raw: bytes, is_tail: bool) -> tuple[Any, str | None]:
        """Parse one line; return ``(entry, None)`` or ``(None, reason)``.

        A ``reason`` of ``""`` marks a torn tail (skip silently); any other
        reason is corruption.
        """
        try:
            entry = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            if is_tail:
                # A torn final line from a killed append: the one damage mode
                # the append-only protocol produces on its own.
                return None, ""
            return None, f"unparseable JSON ({error})"
        if not isinstance(entry, dict) or "key" not in entry or "record" not in entry:
            return None, "parseable JSON but not a {key, record} store line"
        if "crc" in entry:
            expected = _canonical_crc(entry["key"], entry["record"])
            if entry["crc"] != expected:
                return None, (
                    f"CRC mismatch (stored {entry['crc']}, computed {expected})"
                )
        # CRC-less lines are legacy records from older builds: accepted as-is.
        return entry, None

    def _load_index(self) -> dict[str, dict[str, Any]]:
        if self._index is not None:
            return self._index
        index: dict[str, dict[str, Any]] = {}
        quarantined: list[dict[str, Any]] = []
        line_count = 0
        if self._results_path.exists():
            data = self._results_path.read_bytes()
            lines: list[tuple[int, int, bytes]] = []  # (line number, offset, bytes)
            offset = 0
            for number, raw in enumerate(data.split(b"\n")):
                if raw.strip():
                    lines.append((number, offset, raw))
                offset += len(raw) + 1
            line_count = len(lines)
            for position, (number, line_offset, raw) in enumerate(lines):
                is_tail = position == len(lines) - 1
                entry, reason = self._classify_line(raw, is_tail)
                if entry is not None:
                    index[entry["key"]] = entry["record"]
                    continue
                if reason == "":
                    continue  # torn tail
                if self.strict:
                    raise StoreCorruptionError(
                        self._results_path, number, line_offset, reason
                    )
                quarantined.append(
                    {"line_number": number, "byte_offset": line_offset, "reason": reason}
                )
                warnings.warn(
                    f"quarantined corrupt result-store line {number} at byte "
                    f"{line_offset} of {self._results_path}: {reason}; the "
                    "record is excluded and its point will be recomputed on "
                    "resume (run `store compact` to drop the damaged line)",
                    StoreCorruptionWarning,
                    stacklevel=3,
                )
        self._index = index
        self._quarantined = quarantined
        self._line_count = line_count
        return self._index

    @property
    def quarantined(self) -> tuple[dict[str, Any], ...]:
        """Corrupt lines excluded by the last load (line/offset/reason dicts)."""
        self._load_index()
        return tuple(self._quarantined)

    def __contains__(self, key: str) -> bool:
        return key in self._load_index()

    def __len__(self) -> int:
        return len(self._load_index())

    def keys(self) -> tuple[str, ...]:
        return tuple(self._load_index())

    def get(self, key: str):
        """Return the stored result object for ``key``, or ``None``."""
        record = self._load_index().get(key)
        return None if record is None else from_dict(record)

    def put(self, key: str, result: Any) -> None:
        """Append ``result`` under ``key`` and flush it to disk immediately."""
        index = self._load_index()
        record = to_dict(result)
        line = json.dumps(
            {"crc": _canonical_crc(key, record), "key": key, "record": record},
            sort_keys=True,
        )
        line_number = self._line_count
        line_offset = (
            self._results_path.stat().st_size if self._results_path.exists() else 0
        )
        with self._results_path.open("a", encoding="utf-8") as handle:
            handle.write(line + "\n")
            handle.flush()
            os.fsync(handle.fileno())
        self._line_count += 1
        index[key] = record
        if self._injector is not None and self._injector.plan.corrupts_store_line(
            line_number
        ):
            # Injected mid-file corruption: stomp bytes of the line we just
            # made durable.  The in-memory index keeps serving the record (as
            # after real bit rot); a fresh open quarantines the line and the
            # sweep recomputes the point.
            with self._results_path.open("r+b") as handle:
                handle.seek(line_offset + 2)
                handle.write(b"#CORRUPTED#")

    # ------------------------------------------------------------------
    def checkpoint(self, key: str) -> AdaptiveCheckpoint:
        """The mid-point checkpoint slot for ``key``."""
        return AdaptiveCheckpoint(
            self.root / CHECKPOINTS_DIRNAME / f"{key}.json",
            fault_injector=self._injector,
        )

    # ------------------------------------------------------------------
    def compact(self) -> dict[str, int]:
        """Garbage-collect the store in place, rewriting it in canonical form.

        ``results.jsonl`` grows one line per completed point *write* — a
        ``--force`` re-run, a torn tail from a kill, a quarantined corrupt
        line, or a key rewritten many times over a long-lived store all leave
        dead lines behind that every later open re-parses.  Compaction
        rewrites the file atomically (tmp + rename) keeping exactly the
        last-write-wins record per key, one CRC-stamped line each, **sorted
        by key** — so equal result sets compact to byte-identical files —
        and deletes *orphaned* adaptive checkpoints — mid-point state whose
        key already has a durable result, i.e. leftovers of runs killed
        between convergence and checkpoint cleanup.  Checkpoints for keys
        with no stored result are live mid-point state and are kept.

        Quarantined lines are reported (``lines_quarantined``) and dropped
        from the rewritten file; in ``strict`` mode compaction raises on the
        first corrupt line instead, leaving the file untouched.

        Returns a summary dict: ``records_kept``, ``lines_dropped`` (dead
        lines of any kind, quarantined included), ``lines_quarantined``, and
        ``checkpoints_dropped``.
        """
        self._index = None  # re-read the file, not a possibly stale cache
        lines_total = 0
        if self._results_path.exists():
            with self._results_path.open("rb") as handle:
                lines_total = sum(1 for line in handle if line.strip())
        with warnings.catch_warnings():
            # Quarantined lines are about to be dropped and are counted in
            # the returned summary — re-warning here would be noise.
            warnings.simplefilter("ignore", StoreCorruptionWarning)
            index = self._load_index()
        quarantined = len(self._quarantined)
        if self._results_path.exists() or index:
            tmp = self._results_path.with_suffix(".tmp")
            with tmp.open("w", encoding="utf-8") as handle:
                for key in sorted(index):
                    record = index[key]
                    handle.write(
                        json.dumps(
                            {
                                "crc": _canonical_crc(key, record),
                                "key": key,
                                "record": record,
                            },
                            sort_keys=True,
                        )
                        + "\n"
                    )
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp, self._results_path)
        # The rewritten file is clean and canonical: refresh the bookkeeping
        # without re-warning about lines that no longer exist.
        self._quarantined = []
        self._line_count = len(index)
        checkpoints_dropped = 0
        checkpoints_dir = self.root / CHECKPOINTS_DIRNAME
        if checkpoints_dir.is_dir():
            for path in sorted(checkpoints_dir.glob("*.json")):
                if path.stem in index:
                    path.unlink()
                    checkpoints_dropped += 1
        return {
            "records_kept": len(index),
            "lines_dropped": lines_total - len(index),
            "lines_quarantined": quarantined,
            "checkpoints_dropped": checkpoints_dropped,
        }


class SweepCache:
    """One experiment run's view of a store: compute-or-reuse per sweep point.

    ``store=None`` makes every method a transparent pass-through (compute,
    never persist), so experiment runners stay branch-free.  ``force=True``
    recomputes and overwrites every point (and discards stale mid-point
    checkpoints) while still writing the fresh results.

    Results that carry degraded-execution provenance (``skipped_trials > 0``
    — shards dropped under ``on_exhausted="skip"``) are returned but **never
    persisted**: the store only ever holds complete, worker-count-independent
    results, so a later resume recomputes the point at full strength instead
    of inheriting a gap.

    Attributes:
        hits: points served from the store this run.
        computed: points actually computed this run.
    """

    def __init__(
        self,
        store: ResultStore | None,
        experiment_id: str,
        force: bool = False,
        salt: str = CODE_VERSION_SALT,
    ) -> None:
        self.store = store
        self.experiment_id = experiment_id
        self.force = force
        self.salt = salt
        self.hits = 0
        self.computed = 0

    def key(self, config: Mapping[str, Any], seed: int) -> str:
        return result_key(self.experiment_id, config, seed, salt=self.salt)

    def point(
        self, config: Mapping[str, Any], seed: int, compute: Callable[[], Any]
    ) -> Any:
        """Return the stored result for this point, or compute and store it."""
        cached = self.lookup(config, seed)
        if cached is not None:
            return cached
        return self.finish(config, seed, compute())

    def lookup(self, config: Mapping[str, Any], seed: int) -> Any | None:
        """The stored result for this point, or ``None`` if it must be computed.

        One half of :meth:`point`, split out for the sweep scheduler: a
        sweep runner probes every point first, schedules only the misses, and
        hands each finished result to :meth:`finish` the moment it lands.
        """
        if self.store is None or self.force:
            return None
        cached = self.store.get(self.key(config, seed))
        if cached is not None:
            self.hits += 1
        return cached

    def finish(self, config: Mapping[str, Any], seed: int, result: Any) -> Any:
        """Record a freshly computed point: persist it and clear its checkpoint."""
        self.computed += 1
        if self.store is None:
            return result
        if getattr(result, "skipped_trials", 0):
            # Incomplete (shards were skipped): surface it to the caller but
            # keep it out of the store — and keep the adaptive checkpoint, so
            # a healthier re-run resumes rather than restarting.
            return result
        key = self.key(config, seed)
        self.store.put(key, result)
        # Only now that the result is durably stored may the point's adaptive
        # checkpoint go: clearing any earlier (e.g. inside the adaptive
        # runner) would let a kill between completion and persistence discard
        # the whole converged run.
        self.store.checkpoint(key).clear()
        return result

    def checkpoint(
        self, config: Mapping[str, Any], seed: int
    ) -> AdaptiveCheckpoint | None:
        """Mid-point checkpoint slot for an adaptive run of this point."""
        if self.store is None:
            return None
        checkpoint = self.store.checkpoint(self.key(config, seed))
        if self.force:
            checkpoint.clear()
        return checkpoint


def open_store(
    store: ResultStore | str | Path | None, strict: bool = False
) -> ResultStore | None:
    """Coerce a ``--store`` flag value (path or ready store) into a store."""
    if store is None or isinstance(store, ResultStore):
        return store
    return ResultStore(store, strict=strict)


__all__ = [
    "AdaptiveCheckpoint",
    "CHECKPOINTS_DIRNAME",
    "RESULTS_FILENAME",
    "ResultStore",
    "StoreCorruptionWarning",
    "SweepCache",
    "open_store",
]
