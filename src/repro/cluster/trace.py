"""VM arrival/departure trace format with CSV round-tripping and streaming.

A trace record mirrors the per-VM events in the Azure dataset the paper
analyses: "a trace from each cluster contains millions of per-VM
arrival/departure events, with the time, duration, resource demands, and
server-id" (Section 3.1).  Our synthetic traces add the opaque-VM metadata
fields (customer id, VM family, guest OS) that the untouched-memory model
consumes and, because the generator knows the ground truth, each record also
carries the VM's realised untouched-memory fraction and a workload name used
to look up latency sensitivity.

Two trace representations coexist (see DESIGN.md section 4):

* :class:`ClusterTrace` -- the whole trace in memory, as one arrival-ordered
  :class:`TraceColumns` block whose records are built on first read;
  convenient for analysis and small studies.
* :class:`TraceStream` -- a chunked, re-iterable source of
  :class:`TraceColumns` blocks that never holds more than one chunk in
  memory.  The simulator and fleet runner consume either form;
  streams keep peak trace memory at O(chunk) -- plus one generation
  window for generator-backed streams -- for million-VM replays.
"""

from __future__ import annotations

import csv
import dataclasses
from contextlib import contextmanager
from dataclasses import MISSING, dataclass, field, fields
from functools import cached_property
from pathlib import Path
from typing import Any, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "VMTraceRecord",
    "ClusterTrace",
    "TraceColumns",
    "TraceStream",
    "MaterializedTraceStream",
    "CsvTraceStream",
    "check_record_columns",
    "write_csv",
]


def _is_filelike(obj) -> bool:
    """True for open text handles (``io.StringIO``, files, sockets...).

    The CSV entry points accept either a path or an already-open text
    handle; a handle is recognised structurally (``read``/``write``), never
    by type, so wrappers and duck-typed streams work.
    """
    return hasattr(obj, "read") or hasattr(obj, "write")


def _stream_label(handle) -> str:
    """Human-readable source name for error messages on file-like inputs."""
    name = getattr(handle, "name", None)
    return name if isinstance(name, str) else "<stream>"


@contextmanager
def _open_text(path_or_file, mode: str):
    """Yield ``(handle, label)`` for a path or an open text handle.

    Paths are opened (``newline=""``, the csv-module contract) and closed on
    exit; file-like objects are yielded as-is and **never closed** -- the
    caller owns their lifetime, which is what lets ``to_csv(io.StringIO())``
    hand the buffer back for inspection.
    """
    if _is_filelike(path_or_file):
        yield path_or_file, _stream_label(path_or_file)
    else:
        path = Path(path_or_file)
        with path.open(mode, newline="") as handle:
            yield handle, str(path)


@dataclass(frozen=True)
class VMTraceRecord:
    """One VM's lifetime in a cluster trace."""

    vm_id: str
    cluster_id: str
    arrival_s: float
    lifetime_s: float
    cores: int
    memory_gb: float
    customer_id: str = "anonymous"
    vm_family: str = "general"
    guest_os: str = "linux"
    region: str = "region-0"
    workload_name: str = ""
    untouched_fraction: float = 0.5
    server_id: str = ""

    def __post_init__(self) -> None:
        if self.arrival_s < 0:
            raise ValueError("arrival time cannot be negative")
        if self.lifetime_s <= 0:
            raise ValueError("lifetime must be positive")
        if self.cores < 1:
            raise ValueError("cores must be >= 1")
        if self.memory_gb <= 0:
            raise ValueError("memory must be positive")
        if not 0.0 <= self.untouched_fraction <= 1.0:
            raise ValueError("untouched_fraction must be in [0, 1]")

    @property
    def departure_s(self) -> float:
        return self.arrival_s + self.lifetime_s

    @property
    def touched_gb(self) -> float:
        return self.memory_gb * (1.0 - self.untouched_fraction)

    @property
    def untouched_gb(self) -> float:
        return self.memory_gb * self.untouched_fraction


def check_record_columns(arrival_s: np.ndarray, lifetime_s: np.ndarray,
                         cores: np.ndarray, memory_gb: np.ndarray,
                         untouched_fraction: np.ndarray) -> None:
    """:meth:`VMTraceRecord.__post_init__` over whole columns.

    The comparisons are the record's, written the same way round, so NaN
    passes or fails exactly as it does there; the ``ValueError`` is the one
    the first invalid row's record would raise.  Generated blocks validate
    here, so every generated VM is checked even when no record is built.
    """
    first = None
    for bad, message in (
        (arrival_s < 0, "arrival time cannot be negative"),
        (lifetime_s <= 0, "lifetime must be positive"),
        (cores < 1, "cores must be >= 1"),
        (memory_gb <= 0, "memory must be positive"),
        (~((0.0 <= untouched_fraction) & (untouched_fraction <= 1.0)),
         "untouched_fraction must be in [0, 1]"),
    ):
        if bad.any():
            row = int(bad.argmax())
            if first is None or row < first[0]:
                first = (row, message)
    if first is not None:
        raise ValueError(first[1])


@dataclass(frozen=True)
class TraceColumns:
    """Columnar view of (a chunk of) a trace, in iteration (arrival) order.

    Every trace is made of these blocks.  Their producers:

    * :meth:`from_records` -- the block of a :class:`ClusterTrace` built
      from records, and the chunks of CSV streams; they keep the records
      they were built from.
    * Generated blocks (:mod:`repro.cluster.tracegen`) -- columns, plus
      the columns only records need; ``records`` is built on its first
      read and cached.  :meth:`TraceGenerator.generate_bulk` makes one
      block the whole trace, and generated streams yield one per chunk.
    * :meth:`take` -- a block's rows: materialised-stream chunks and the
      arrival reorder of :meth:`ClusterTrace.from_block`.

    :meth:`ClusterTrace.columns` hands out its trace's block without the
    record source.  Batch policies and the replay loops read columns only,
    so neither a streamed replay nor a replay of a generated trace builds
    a record object.
    """

    vm_ids: Tuple[str, ...]
    memory_gb: np.ndarray
    untouched_fraction: np.ndarray
    #: Replay columns consumed by the array-engine simulator loop; always
    #: populated by :meth:`from_records` / :meth:`ClusterTrace.columns`
    #: (``None`` only on hand-built instances, which the simulator tolerates
    #: by falling back to the record objects).
    arrival_s: Optional[np.ndarray] = None
    departure_s: Optional[np.ndarray] = None
    cores: Optional[np.ndarray] = None
    #: Where :attr:`records` comes from: the records tuple itself
    #: (:meth:`from_records`), an object whose ``build_records(block)``
    #: builds them and whose ``take(rows)`` selects its rows (generated
    #: blocks), or ``None`` for a block without records
    #: (:meth:`ClusterTrace.columns` and hand-built blocks).
    record_source: Any = field(default=None, repr=False)

    def __len__(self) -> int:
        return len(self.vm_ids)

    @cached_property
    def records(self) -> Optional[Tuple[VMTraceRecord, ...]]:
        """The block's records, built on first read when the block was
        generated; ``None`` when it carries columns only."""
        source = self.record_source
        if source is None or isinstance(source, tuple):
            return source
        return source.build_records(self)

    def require_records(self, reader: str) -> Tuple[VMTraceRecord, ...]:
        """:attr:`records`, or a ``ValueError`` naming the ``reader`` that
        needs them when the block carries columns only."""
        records = self.records
        if records is None:
            raise ValueError(
                f"{reader} needs trace records, but this block carries "
                f"columns only (build it with TraceColumns.from_records)"
            )
        return records

    @property
    def untouched_gb(self) -> np.ndarray:
        return self.memory_gb * self.untouched_fraction

    def take(self, rows) -> "TraceColumns":
        """The block's ``rows`` (a slice, or an array of row indices) as a
        new block.  The record source comes along: records already built
        (or kept from :meth:`from_records`) are indexed like the columns,
        and a generated source selects its own rows."""
        def pick(values):
            if isinstance(rows, slice):
                return values[rows]
            return tuple(values[i] for i in rows.tolist())

        def column(values):
            return None if values is None else values[rows]

        source = self.__dict__.get("records", self.record_source)
        if source is not None:
            source = (pick(source) if isinstance(source, tuple)
                      else source.take(rows))
        return TraceColumns(
            vm_ids=pick(self.vm_ids),
            memory_gb=self.memory_gb[rows],
            untouched_fraction=self.untouched_fraction[rows],
            arrival_s=column(self.arrival_s),
            departure_s=column(self.departure_s),
            cores=column(self.cores),
            record_source=source,
        )

    @classmethod
    def from_records(cls, records: Iterable[VMTraceRecord]) -> "TraceColumns":
        """Build a self-contained block (columns + records) from records."""
        records = tuple(records)
        n = len(records)
        arrival = np.fromiter(
            (r.arrival_s for r in records), dtype=np.float64, count=n
        )
        lifetime = np.fromiter(
            (r.lifetime_s for r in records), dtype=np.float64, count=n
        )
        return cls(
            vm_ids=tuple(r.vm_id for r in records),
            memory_gb=np.fromiter(
                (r.memory_gb for r in records), dtype=np.float64, count=n
            ),
            untouched_fraction=np.fromiter(
                (r.untouched_fraction for r in records), dtype=np.float64, count=n
            ),
            arrival_s=arrival,
            # float64 addition matches VMTraceRecord.departure_s bit-for-bit.
            departure_s=arrival + lifetime,
            cores=np.fromiter((r.cores for r in records), dtype=np.int64, count=n),
            record_source=records,
        )


class ClusterTrace:
    """An arrival-ordered trace of VMs for one or more clusters.

    The trace is one :class:`TraceColumns` block in arrival order, with
    its record source.  :attr:`records`, iteration and indexing build the
    :class:`VMTraceRecord` objects on first read and cache them; ``len``,
    :meth:`columns`, :attr:`duration_s` and :attr:`arrival_span_s` read
    the block, so a trace that only feeds batch policies and replays never
    builds a record.
    """

    def __init__(self, records: Sequence[VMTraceRecord], cluster_id: Optional[str] = None):
        self._adopt(TraceColumns.from_records(
            sorted(records, key=lambda r: r.arrival_s)), cluster_id)

    @classmethod
    def from_block(cls, block: TraceColumns,
                   cluster_id: Optional[str] = None) -> "ClusterTrace":
        """The trace of one block, which it keeps as its own.

        The block needs its replay columns.  An arrival-ordered block is
        adopted as it is; any other is reordered with a stable argsort, the
        order ``ClusterTrace(records)`` gives its records.  No record is
        built.
        """
        arrival = block.arrival_s
        if np.any(arrival[1:] < arrival[:-1]):
            block = block.take(np.argsort(arrival, kind="stable"))
        trace = cls.__new__(cls)
        trace._adopt(block, cluster_id)
        return trace

    def _adopt(self, block: TraceColumns, cluster_id: Optional[str]) -> None:
        self._block = block
        self._records: Optional[List[VMTraceRecord]] = None
        self._columns: Optional[TraceColumns] = None
        if cluster_id is None:
            source = block.record_source
            if not len(block) or source is None:
                cluster_id = "empty"
            elif isinstance(source, tuple):
                cluster_id = source[0].cluster_id
            else:
                cluster_id = source.cluster_id
        self.cluster_id = cluster_id

    @property
    def records(self) -> List[VMTraceRecord]:
        """The records, in arrival order, built on first read.

        The list is a view of the trace's block: mutating it changes
        neither ``len`` nor :meth:`columns`.  Assigning ``records``
        replaces the trace's block with one built from the new records,
        in the order given.
        """
        if self._records is None:
            self._records = list(self._block.require_records("ClusterTrace"))
        return self._records

    @records.setter
    def records(self, records: Sequence[VMTraceRecord]) -> None:
        self._adopt(TraceColumns.from_records(records), self.cluster_id)

    def __len__(self) -> int:
        return len(self._block)

    def __iter__(self) -> Iterator[VMTraceRecord]:
        return iter(self.records)

    def __getitem__(self, index: int) -> VMTraceRecord:
        return self.records[index]

    def columns(self) -> TraceColumns:
        """The trace's block without its record source (cached), in
        iteration order; reading it builds no record."""
        if self._columns is None:
            self._columns = dataclasses.replace(self._block,
                                                record_source=None)
        return self._columns

    # -- derived properties -----------------------------------------------------------
    @property
    def duration_s(self) -> float:
        if not len(self):
            return 0.0
        return float(self._block.departure_s.max())

    @property
    def arrival_span_s(self) -> float:
        """Time of the last VM arrival (the observation window of the trace)."""
        if not len(self):
            return 0.0
        return float(self._block.arrival_s.max())

    @property
    def total_core_hours(self) -> float:
        return sum(r.cores * r.lifetime_s for r in self.records) / 3600.0

    @property
    def total_memory_gb_hours(self) -> float:
        return sum(r.memory_gb * r.lifetime_s for r in self.records) / 3600.0

    def clusters(self) -> List[str]:
        seen: List[str] = []
        for r in self.records:
            if r.cluster_id not in seen:
                seen.append(r.cluster_id)
        return seen

    def for_cluster(self, cluster_id: str) -> "ClusterTrace":
        """Records belonging to ``cluster_id``, as a new trace.

        The returned trace's ``cluster_id`` is always the requested id --
        even when no records match (an empty trace would otherwise fall back
        to the ``"empty"`` placeholder and lose the metadata).
        """
        return ClusterTrace(
            [r for r in self.records if r.cluster_id == cluster_id], cluster_id=cluster_id
        )

    def merge(self, other: "ClusterTrace") -> "ClusterTrace":
        """Merge two traces into one, preserving ``cluster_id`` metadata.

        The merged trace's ``cluster_id`` is: the shared id when both sides
        agree, the non-empty side's id when the other side has no records
        (merging with an empty trace is an identity for metadata), and
        otherwise ``"<self>+<other>"`` -- a deterministic multi-cluster
        label (the per-record ids stay intact and are enumerable via
        :meth:`clusters`).  Previously the id silently collapsed to the
        earliest-arriving record's cluster, which depended on arrival times.
        """
        if self.cluster_id == other.cluster_id:
            merged_id = self.cluster_id
        elif not self.records:
            merged_id = other.cluster_id
        elif not other.records:
            merged_id = self.cluster_id
        else:
            merged_id = f"{self.cluster_id}+{other.cluster_id}"
        return ClusterTrace(
            list(self.records) + list(other.records), cluster_id=merged_id
        )

    def stream(self, chunk_size: int = 8192) -> "MaterializedTraceStream":
        """A chunked :class:`TraceStream` view over this (in-memory) trace.

        Useful for differential tests and for feeding APIs that consume
        streams; it saves no memory by itself (the trace is already in
        memory).  Its chunks are rows of the trace's block.
        """
        return MaterializedTraceStream(self, chunk_size=chunk_size)

    # -- persistence ---------------------------------------------------------------------
    def to_csv(self, path, chunk_size: int = 8192) -> None:
        """Write the trace as CSV (path or open text handle) with a header row.

        Delegates to :func:`write_csv`, which writes in ``chunk_size``-record
        chunks (the export reads the trace's records, which builds them on
        first read; chunking only bounds the writer's working set; streams
        use the same code path to export without materialising at all).
        File-like targets such as ``io.StringIO`` are written in place and
        left open.
        """
        write_csv(self, path, chunk_size=chunk_size)

    #: Converters for the non-string record fields (CSV stores text only).
    _CSV_CONVERTERS = {
        "arrival_s": float,
        "lifetime_s": float,
        "cores": lambda value: int(float(value)),
        "memory_gb": float,
        "untouched_fraction": float,
    }

    @classmethod
    def from_csv(cls, path) -> "ClusterTrace":
        """Load a trace previously written by :meth:`to_csv`.

        ``path`` is a filesystem path or an open text handle (e.g.
        ``io.StringIO``); handles are read from their current position and
        left open.  Columns for optional :class:`VMTraceRecord` fields may
        be absent (or empty for non-string fields); the dataclass defaults
        are used, so external traces carrying only the required
        arrival/departure/demand columns load cleanly.  Missing *required*
        columns raise ``ValueError``.
        """
        record_fields = fields(VMTraceRecord)
        with _open_text(path, "r") as (handle, label):
            reader = csv.DictReader(handle)
            records = [
                _record_from_row(label, line, row, record_fields)
                for line, row in enumerate(reader, start=2)
            ]
        return cls(records)


def _record_from_row(label, line: int, row: dict, record_fields) -> VMTraceRecord:
    """One CSV row -> record, shared by ``from_csv`` and ``CsvTraceStream``.

    ``label`` names the source in error messages (a path, or a stream label
    for file-like inputs).
    """
    kwargs = {}
    for f in record_fields:
        value = row.get(f.name)
        required = f.default is MISSING
        if value is None or value == "":
            if required:
                detail = (
                    f"empty value on line {line} for" if value == "" else "missing"
                )
                raise ValueError(f"{label}: {detail} required column {f.name!r}")
            continue
        converter = ClusterTrace._CSV_CONVERTERS.get(f.name)
        try:
            kwargs[f.name] = converter(value) if converter else value
        except ValueError as exc:
            raise ValueError(
                f"{label} line {line}: bad value {value!r} for column {f.name!r}"
            ) from exc
    return VMTraceRecord(**kwargs)


def write_csv(source, path, chunk_size: int = 8192) -> int:
    """Stream a trace or :class:`TraceStream` to CSV; returns rows written.

    The streaming CSV *writer* counterpart of :class:`CsvTraceStream`: rows
    are written one chunk at a time, so exporting a generated fleet holds at
    most one chunk (plus, for generator-backed streams, one generation
    window) in memory instead of the whole trace.  The output is identical
    to the materialised ``ClusterTrace.to_csv`` for the same records, and
    round-trips through both ``ClusterTrace.from_csv`` and
    :class:`CsvTraceStream`.

    ``path`` is a filesystem path or an open text handle (e.g.
    ``io.StringIO``); handles are written at their current position and left
    open for the caller.
    """
    field_names = [f.name for f in fields(VMTraceRecord)]
    rows_written = 0
    if isinstance(source, ClusterTrace):
        def record_chunks():
            records = source.records
            for start in range(0, len(records), chunk_size):
                yield records[start:start + chunk_size]
    else:
        def record_chunks():
            for chunk in source.chunks():
                yield chunk.require_records("write_csv")
    with _open_text(path, "w") as (handle, _label):
        writer = csv.writer(handle)
        writer.writerow(field_names)
        for records in record_chunks():
            writer.writerows(
                [getattr(record, name) for name in field_names]
                for record in records
            )
            rows_written += len(records)
    return rows_written


class TraceStream:
    """Chunked, re-iterable source of trace records (DESIGN.md section 4).

    The streaming contract:

    * :meth:`chunks` returns a **fresh** iterator of :class:`TraceColumns`
      blocks on every call (streams are re-iterable: the fleet runner replays
      the same stream for the pooled run and the no-pooling baseline, and the
      capacity search replays it once per binary-search probe).
    * Chunks are **self-contained**: each block carries the columnar arrays
      batch policies and the replay loops consume, and yields its
      ``records`` on demand -- kept from :meth:`TraceColumns.from_records`,
      or built on first read for generated chunks -- so consumers hold at
      most one chunk at a time, and a replay under a batch policy builds no
      record objects.
    * Records are globally **sorted by arrival time** across chunk
      boundaries; the simulator verifies this while replaying.
    * Chunking is **content-neutral**: the concatenation of all chunks is
      identical record-for-record regardless of ``chunk_size``, and equal to
      the materialised trace the same source would produce
      (:meth:`materialize` gives exactly that trace).
    """

    cluster_id: str = "stream"
    chunk_size: int = 8192

    def chunks(self) -> Iterator[TraceColumns]:
        """Yield the trace as successive :class:`TraceColumns` blocks."""
        raise NotImplementedError

    def __iter__(self) -> Iterator[TraceColumns]:
        return self.chunks()

    def materialize(self) -> ClusterTrace:
        """Collect every chunk into a :class:`ClusterTrace` (O(trace) memory)."""
        records: List[VMTraceRecord] = []
        for chunk in self.chunks():
            records.extend(chunk.require_records("materialize"))
        return ClusterTrace(records, cluster_id=self.cluster_id)

    def to_csv(self, path) -> int:
        """Export the stream to CSV without materialising it; returns rows.

        One chunk is written at a time (see :func:`write_csv`), so a
        generated fleet trace can be persisted with O(chunk) memory.
        """
        return write_csv(self, path, chunk_size=self.chunk_size)

    @staticmethod
    def _validate_chunk_size(chunk_size: int) -> int:
        if chunk_size < 1:
            raise ValueError("chunk_size must be >= 1")
        return chunk_size


class MaterializedTraceStream(TraceStream):
    """Chunked view over an already-materialised :class:`ClusterTrace`."""

    def __init__(self, trace: ClusterTrace, chunk_size: int = 8192) -> None:
        self.trace = trace
        self.chunk_size = self._validate_chunk_size(chunk_size)
        self.cluster_id = trace.cluster_id

    def chunks(self) -> Iterator[TraceColumns]:
        block = self.trace._block
        for start in range(0, len(block), self.chunk_size):
            yield block.take(slice(start, start + self.chunk_size))


class CsvTraceStream(TraceStream):
    """Incremental CSV parser yielding chunks without loading the whole file.

    The source must be sorted by ``arrival_s`` (true for anything written by
    :meth:`ClusterTrace.to_csv`, whose records are kept in arrival order);
    an out-of-order row raises ``ValueError`` naming the line, because a
    stream cannot globally re-sort without materialising.

    ``path`` is a filesystem path or an open text handle (``io.StringIO``,
    a file object...).  Paths are reopened on each :meth:`chunks` call, so
    the stream is re-iterable.  Handles are left open and rewound to their
    position at construction time on each iteration when seekable;
    non-seekable handles (pipes, sockets) support exactly one iteration and
    raise ``ValueError`` on the second.
    """

    def __init__(self, path, chunk_size: int = 8192,
                 cluster_id: Optional[str] = None) -> None:
        self.chunk_size = self._validate_chunk_size(chunk_size)
        if _is_filelike(path):
            self.path = None
            self._handle = path
            self._label = _stream_label(path)
            seekable = getattr(path, "seekable", None)
            self._seekable = bool(seekable()) if callable(seekable) else False
            self._start_pos = path.tell() if self._seekable else None
            self._consumed = False
            default_id = (
                Path(self._label).stem if self._label != "<stream>"
                else "csv-stream"
            )
        else:
            self.path = Path(path)
            self._handle = None
            self._label = str(self.path)
            default_id = self.path.stem
        self.cluster_id = cluster_id if cluster_id is not None else default_id

    @contextmanager
    def _reader_handle(self):
        """The source handle for one iteration (reopen, rewind, or one-shot)."""
        if self._handle is None:
            with self.path.open("r", newline="") as handle:
                yield handle
            return
        if self._seekable:
            self._handle.seek(self._start_pos)
        elif self._consumed:
            raise ValueError(
                f"{self._label}: non-seekable handle already consumed; "
                f"CsvTraceStream can iterate it only once"
            )
        self._consumed = True
        yield self._handle

    def chunks(self) -> Iterator[TraceColumns]:
        record_fields = fields(VMTraceRecord)
        buffer: List[VMTraceRecord] = []
        last_arrival = float("-inf")
        with self._reader_handle() as handle:
            reader = csv.DictReader(handle)
            for line, row in enumerate(reader, start=2):
                record = _record_from_row(self._label, line, row, record_fields)
                if record.arrival_s < last_arrival:
                    raise ValueError(
                        f"{self._label} line {line}: records are not sorted by "
                        f"arrival_s ({record.arrival_s} after {last_arrival}); "
                        f"sort the file or load it via ClusterTrace.from_csv"
                    )
                last_arrival = record.arrival_s
                buffer.append(record)
                if len(buffer) >= self.chunk_size:
                    yield TraceColumns.from_records(buffer)
                    buffer = []
        if buffer:
            yield TraceColumns.from_records(buffer)
