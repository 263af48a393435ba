"""Columnar flow-record batches and the flow-file formats they replay from.

The ingestion data plane never touches one record at a time: a Python-level
per-record loop tops out far below the line rate a service must sustain, so
every :class:`~repro.ingest.sources.FlowSource` hands the binner
:class:`RecordBatch` objects — four parallel numpy columns (timestamp,
source node index, destination node index, byte volume) — and the binner
reduces each batch with vectorised ``bincount`` scatters.  Node names are
resolved to indices exactly once, at batch construction, against the
topology's node ordering.

Two on-disk formats are supported for replay, chosen by file suffix:

* ``.csv`` — a ``time,src,dst,bytes`` header followed by one record per
  line (the bundled ``examples/sample_flows.csv`` trace uses this);
* ``.jsonl`` — one JSON object per line with the same four keys.

Both are plain text so traces can be produced by anything from a netflow
exporter shim to a five-line script.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from repro.errors import ValidationError

__all__ = ["RecordBatch", "read_flow_file", "write_flow_csv", "write_flow_jsonl"]

CSV_HEADER = "time,src,dst,bytes"


@dataclass(frozen=True)
class RecordBatch:
    """One batch of flow records in columnar form.

    Attributes
    ----------
    timestamps:
        Record times in seconds from the stream origin, shape ``(k,)``,
        finite.  Batches need not be sorted — the binner's watermark handles
        out-of-order arrival.
    src, dst:
        Source/destination node indices into the topology's node ordering,
        shape ``(k,)``, non-negative.
    volumes:
        Byte volumes, shape ``(k,)``, finite and non-negative.

    A batch violating any of these is rejected whole with
    :class:`ValidationError`: one NaN volume would otherwise poison its
    bin's estimate and every rolling fit whose window holds that bin.
    """

    timestamps: np.ndarray
    src: np.ndarray
    dst: np.ndarray
    volumes: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "timestamps", np.asarray(self.timestamps, dtype=float))
        object.__setattr__(self, "src", np.asarray(self.src, dtype=np.intp))
        object.__setattr__(self, "dst", np.asarray(self.dst, dtype=np.intp))
        object.__setattr__(self, "volumes", np.asarray(self.volumes, dtype=float))
        k = self.timestamps.shape
        for name in ("src", "dst", "volumes"):
            if getattr(self, name).shape != k:
                raise ValidationError(
                    f"record batch columns must share one shape; timestamps is {k} "
                    f"but {name} is {getattr(self, name).shape}"
                )
        if self.timestamps.ndim != 1:
            raise ValidationError("record batch columns must be one-dimensional")
        if not self.timestamps.size:
            return
        if not np.all(np.isfinite(self.timestamps)):
            raise ValidationError("record timestamps must be finite")
        if not np.all(np.isfinite(self.volumes)):
            raise ValidationError("record volumes must be finite")
        if float(self.volumes.min()) < 0:
            raise ValidationError("record volumes must be non-negative")
        if int(self.src.min()) < 0 or int(self.dst.min()) < 0:
            raise ValidationError("record node indices must be non-negative")

    def __len__(self) -> int:
        return int(self.timestamps.shape[0])

    @classmethod
    def from_names(
        cls,
        timestamps,
        src_names: Sequence[str],
        dst_names: Sequence[str],
        volumes,
        nodes: Sequence[str],
    ) -> "RecordBatch":
        """Build a batch from node *names*, resolved against ``nodes``.

        Unknown names raise :class:`ValidationError` naming the offender —
        a replayed trace against the wrong topology should fail loudly, not
        silently misroute traffic.
        """
        index = {name: i for i, name in enumerate(nodes)}
        try:
            src = np.fromiter((index[name] for name in src_names), dtype=np.intp)
            dst = np.fromiter((index[name] for name in dst_names), dtype=np.intp)
        except KeyError as exc:
            raise ValidationError(
                f"flow record references unknown node {exc.args[0]!r}; "
                f"the topology defines {len(index)} nodes"
            ) from exc
        return cls(timestamps=timestamps, src=src, dst=dst, volumes=volumes)


def _parse_csv_lines(lines: Iterator[str], path: Path):
    header = None
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if header is None:
            header = line
            if header.replace(" ", "") != CSV_HEADER:
                raise ValidationError(
                    f"{path}: expected CSV header {CSV_HEADER!r}, got {header!r}"
                )
            continue
        parts = line.split(",")
        if len(parts) != 4:
            raise ValidationError(f"{path}:{lineno}: expected 4 CSV fields, got {len(parts)}")
        yield float(parts[0]), parts[1].strip(), parts[2].strip(), float(parts[3])


def _parse_jsonl_lines(lines: Iterator[str], path: Path):
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            payload = json.loads(line)
            yield (
                float(payload["time"]),
                str(payload["src"]),
                str(payload["dst"]),
                float(payload["bytes"]),
            )
        except (json.JSONDecodeError, KeyError, TypeError) as exc:
            raise ValidationError(f"{path}:{lineno}: malformed JSONL flow record: {exc}") from exc


def read_flow_file(
    path,
    nodes: Sequence[str],
    *,
    batch_records: int = 8192,
) -> Iterator[RecordBatch]:
    """Stream a ``.csv``/``.jsonl`` flow file as :class:`RecordBatch` objects.

    Reads ``batch_records`` records at a time, so arbitrarily long traces
    replay in bounded memory.  The node names in the file are resolved
    against ``nodes`` per batch.
    """
    path = Path(path)
    if batch_records < 1:
        raise ValidationError("batch_records must be >= 1")
    suffix = path.suffix.lower()
    if suffix == ".csv":
        parser = _parse_csv_lines
    elif suffix in (".jsonl", ".ndjson"):
        parser = _parse_jsonl_lines
    else:
        raise ValidationError(
            f"unsupported flow-file suffix {suffix!r} for {path}; use .csv or .jsonl"
        )
    times: list[float] = []
    srcs: list[str] = []
    dsts: list[str] = []
    vols: list[float] = []
    with path.open("r", encoding="utf-8") as handle:
        for time, src, dst, volume in parser(handle, path):
            times.append(time)
            srcs.append(src)
            dsts.append(dst)
            vols.append(volume)
            if len(times) >= batch_records:
                yield RecordBatch.from_names(times, srcs, dsts, vols, nodes)
                times, srcs, dsts, vols = [], [], [], []
    if times:
        yield RecordBatch.from_names(times, srcs, dsts, vols, nodes)


def write_flow_csv(path, rows) -> int:
    """Write ``(time, src, dst, bytes)`` rows as a replayable CSV trace."""
    path = Path(path)
    count = 0
    with path.open("w", encoding="utf-8") as handle:
        handle.write(CSV_HEADER + "\n")
        for time, src, dst, volume in rows:
            handle.write(f"{float(time):.6g},{src},{dst},{float(volume):.10g}\n")
            count += 1
    return count


def write_flow_jsonl(path, rows) -> int:
    """Write ``(time, src, dst, bytes)`` rows as a replayable JSONL trace."""
    path = Path(path)
    count = 0
    with path.open("w", encoding="utf-8") as handle:
        for time, src, dst, volume in rows:
            handle.write(
                json.dumps(
                    {"time": float(time), "src": str(src), "dst": str(dst), "bytes": float(volume)}
                )
                + "\n"
            )
            count += 1
    return count
