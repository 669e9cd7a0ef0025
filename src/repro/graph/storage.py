"""On-disk frozen format for :class:`~repro.graph.compiled.CompiledGraph`.

A compiled graph is immutable once frozen, so it can be compiled **once
ever** and then served out-of-core: :func:`save_compiled` writes the
flat arrays as raw little-endian files in a versioned directory, and
:func:`load_compiled` maps them back — by default via :mod:`mmap`, so a
loaded index costs O(1) private memory at any graph size and two
processes loading the same path share one page-cache copy of the data.

Directory layout (one directory per frozen graph)::

    <index>/
        manifest.json       # format, version, token, per-file metadata
        nodes.i64           # node ids (all-int graphs) ...
        nodes.json          # ... or JSON ids (string graphs)
        offsets.i64         # CSR row offsets          (n + 1 int64)
        targets.i64         # CSR column indices       (E int64)
        out_w.f64           # directed  b_u·τ_uv       (E float64)
        pair_w.f64          # combined pair weights    (E float64)
        weighted_interest.f64
        tightness_weight.f64
        potential.f64       # CBAS phase-1 start ranking
        component_sizes.i64 # connected-component size per node
        component_labels.i64

Every array file is raw little-endian int64 (``.i64``) or float64
(``.f64``) with no header; the manifest carries dtype, element count,
and a sha256 digest per file.  The *derived* arrays (``pair_w``,
``potential``, the component labels) are stored rather than recomputed
so an mmap load touches no pages beyond what the solve actually reads
— ``_rebuild_derived`` would fault in every byte.

The manifest's ``payload_token`` is **content-derived** (a digest over
the format header and every array's digest), so two processes that load
the same path agree on the token without coordination — the residency
protocol of :mod:`repro.parallel.residency` then lets a parent install
a multi-MB graph into a worker by sending the *path* (hundreds of
bytes) instead of the array pickle.  :func:`save_compiled` adopts the
token (and the directory as ``disk_home``) on the saved instance, so an
in-memory graph becomes path-installable the moment it is saved.

Integrity is typed: a missing or unparseable manifest raises
:class:`~repro.exceptions.GraphStorageError`, an unsupported manifest
version :class:`~repro.exceptions.StorageVersionError`, and a size or
digest mismatch :class:`~repro.exceptions.StorageChecksumError` — front
doors (the serving daemon's ``graph_path`` tenants, the CLI) turn these
into typed rejections instead of crashes.  Digest verification reads
every byte, so residency installs pass ``verify=False`` (sizes are
always checked) and leave full verification to explicit loads.
"""

from __future__ import annotations

import hashlib
import json
import mmap
import sys
from array import array
from pathlib import Path
from typing import Union

from repro.exceptions import (
    GraphStorageError,
    StorageChecksumError,
    StorageVersionError,
)

__all__ = [
    "FORMAT",
    "VERSION",
    "MANIFEST_NAME",
    "save_compiled",
    "load_compiled",
]

FORMAT = "waso-compiled-graph"
VERSION = 1
MANIFEST_NAME = "manifest.json"

PathLike = Union[str, Path]

#: (attribute, manifest key, array typecode) in canonical order — the
#: token digest folds the files in exactly this sequence.
_ARRAYS = (
    ("offsets", "offsets", "q"),
    ("targets", "targets", "q"),
    ("out_w", "out_w", "d"),
    ("pair_w", "pair_w", "d"),
    ("weighted_interest", "weighted_interest", "d"),
    ("tightness_weight", "tightness_weight", "d"),
    ("potential", "potential", "d"),
    ("_component_sizes", "component_sizes", "q"),
    ("_component_labels", "component_labels", "q"),
)

_SUFFIX = {"q": ".i64", "d": ".f64"}
_ITEM_SIZE = 8  # both int64 and float64

_LITTLE_ENDIAN = sys.byteorder == "little"


def _to_bytes(values, typecode: str) -> bytes:
    """Raw little-endian bytes of ``values`` (native array round-trip)."""
    arr = array(typecode, values)
    if not _LITTLE_ENDIAN:  # pragma: no cover - big-endian platforms
        arr = array(typecode, arr)
        arr.byteswap()
    return arr.tobytes()


def _from_bytes(data: bytes, typecode: str) -> array:
    arr = array(typecode)
    arr.frombytes(data)
    if not _LITTLE_ENDIAN:  # pragma: no cover - big-endian platforms
        arr.byteswap()
    return arr


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _nodes_payload(nodes: list) -> "tuple[str, str, bytes]":
    """``(kind, filename, bytes)`` for the node-id file."""
    if all(type(node) is int for node in nodes):
        return "i64", "nodes.i64", _to_bytes(nodes, "q")
    if all(type(node) in (int, str) for node in nodes):
        data = json.dumps(nodes, separators=(",", ":")).encode("utf-8")
        return "json", "nodes.json", data
    raise GraphStorageError(
        "the on-disk index stores node ids as int64 or JSON; this graph "
        "has node ids of other types and cannot be saved"
    )


def save_compiled(compiled, path: PathLike) -> Path:
    """Write ``compiled`` to directory ``path`` and adopt its identity.

    Creates the directory (parents included), writes every array file,
    then the manifest last — a crashed save leaves a directory without a
    manifest, which :func:`load_compiled` rejects cleanly.  On success
    the instance's ``payload_token`` becomes the manifest's
    content-derived token and its ``disk_home`` the directory, making
    the graph path-installable into pool workers.  Returns the path.
    """
    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)
    # Materialize the component labels before freezing to disk: an mmap
    # load must never run the O(V+E) BFS (or fault in the topology pages
    # it would touch).
    compiled.component_size_by_index()
    compiled.component_label_by_index()

    kind, nodes_file, nodes_data = _nodes_payload(compiled.nodes)
    (path / nodes_file).write_bytes(nodes_data)
    nodes_entry = {
        "kind": kind,
        "file": nodes_file,
        "count": len(compiled.nodes),
        "sha256": _digest(nodes_data),
    }

    hasher = hashlib.sha256()
    hasher.update(f"{FORMAT}:{VERSION}\n".encode("ascii"))
    hasher.update(nodes_entry["sha256"].encode("ascii"))
    arrays = {}
    for attr, key, typecode in _ARRAYS:
        data = _to_bytes(getattr(compiled, attr), typecode)
        filename = key + _SUFFIX[typecode]
        (path / filename).write_bytes(data)
        file_digest = _digest(data)
        arrays[key] = {
            "file": filename,
            "dtype": "int64" if typecode == "q" else "float64",
            "count": len(data) // _ITEM_SIZE,
            "sha256": file_digest,
        }
        hasher.update(file_digest.encode("ascii"))

    token = f"cg-disk-{hasher.hexdigest()[:16]}"
    generation = getattr(compiled, "generation", 0)
    if generation:
        # A patched (generation > 0) freeze persists its *current*
        # arrays; qualifying the token makes the generation part of the
        # saved identity (the content digest already differs, but the
        # suffix keeps provenance visible in ledgers and manifests).
        token = f"{token}-g{generation}"
    manifest = {
        "format": FORMAT,
        "version": VERSION,
        "payload_token": token,
        "nodes": nodes_entry,
        "arrays": arrays,
    }
    if generation:
        manifest["generation"] = generation
    (path / MANIFEST_NAME).write_text(
        json.dumps(manifest, indent=2, sort_keys=True), encoding="utf-8"
    )
    compiled.payload_token = token
    compiled.disk_home = str(path)
    return path


def _read_manifest(path: Path) -> dict:
    manifest_path = path / MANIFEST_NAME
    try:
        text = manifest_path.read_text(encoding="utf-8")
    except OSError as error:
        raise GraphStorageError(
            f"no compiled-graph index at {path}: cannot read "
            f"{MANIFEST_NAME} ({error})"
        ) from None
    try:
        manifest = json.loads(text)
    except json.JSONDecodeError as error:
        raise GraphStorageError(
            f"{manifest_path}: manifest is not valid JSON: {error}"
        ) from None
    if not isinstance(manifest, dict) or manifest.get("format") != FORMAT:
        raise GraphStorageError(
            f"{manifest_path}: not a {FORMAT!r} manifest "
            f"(format={manifest.get('format') if isinstance(manifest, dict) else None!r})"
        )
    if manifest.get("version") != VERSION:
        raise StorageVersionError(manifest.get("version"), VERSION)
    return manifest


def _check_entry(path: Path, entry: dict, verify: bool) -> Path:
    """Validate one manifest file entry; return its path."""
    file_path = path / entry["file"]
    try:
        size = file_path.stat().st_size
    except OSError:
        raise StorageChecksumError(
            f"{path}: array file {entry['file']!r} named by the manifest "
            "is missing"
        ) from None
    expected = entry["count"] * _ITEM_SIZE if "dtype" in entry else None
    if expected is not None and size != expected:
        raise StorageChecksumError(
            f"{file_path}: size {size}B does not match the manifest "
            f"({entry['count']} x {_ITEM_SIZE}B = {expected}B); the "
            "index is truncated or corrupted"
        )
    if verify:
        actual = _digest(file_path.read_bytes())
        if actual != entry["sha256"]:
            raise StorageChecksumError(
                f"{file_path}: sha256 {actual} does not match the "
                f"manifest's {entry['sha256']}; the index is corrupted"
            )
    return file_path


def _load_nodes(path: Path, entry: dict, verify: bool) -> list:
    file_path = _check_entry(path, entry, verify)
    data = file_path.read_bytes()
    if entry["kind"] == "i64":
        if len(data) != entry["count"] * _ITEM_SIZE:
            raise StorageChecksumError(
                f"{file_path}: node file size does not match the manifest"
            )
        return _from_bytes(data, "q").tolist()
    if entry["kind"] == "json":
        try:
            nodes = json.loads(data.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            raise StorageChecksumError(
                f"{file_path}: node file is not valid JSON: {error}"
            ) from None
        if len(nodes) != entry["count"]:
            raise StorageChecksumError(
                f"{file_path}: node count does not match the manifest"
            )
        return nodes
    raise GraphStorageError(
        f"{path}: unknown node-id encoding {entry['kind']!r}"
    )


def _map_array(file_path: Path, typecode: str, maps: list):
    """Read-only mmap view of one array file, cast to its element type."""
    with open(file_path, "rb") as handle:
        mapped = mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ)
    maps.append(mapped)
    return memoryview(mapped).cast(typecode)


def load_compiled(path: PathLike, mmap: bool = True, verify: bool = True):
    """Load a saved index from directory ``path``.

    With ``mmap=True`` (the default on little-endian platforms) the
    arrays are read-only :func:`memoryview` casts over shared file
    mappings: loading is O(1) bytes, indexing yields exact native ints
    and floats (solves are bit-identical to the in-memory arrays), and
    the instance cannot be pickled — residency ships its *path* instead.
    ``mmap=False`` materializes plain lists (picklable, identical
    values).  ``verify=False`` skips the sha256 pass (file sizes are
    still checked) — the worker-side path-install uses it, since the
    parent verified the index when it first loaded it.
    """
    path = Path(path)
    if path.name == MANIFEST_NAME:
        path = path.parent
    manifest = _read_manifest(path)
    use_mmap = bool(mmap) and _LITTLE_ENDIAN

    nodes = _load_nodes(path, manifest["nodes"], verify)
    maps: list = []
    values = {}
    try:
        for attr, key, typecode in _ARRAYS:
            try:
                entry = manifest["arrays"][key]
            except KeyError:
                raise GraphStorageError(
                    f"{path}: manifest lists no {key!r} array"
                ) from None
            file_path = _check_entry(path, entry, verify)
            if use_mmap:
                values[attr] = _map_array(file_path, typecode, maps)
            else:
                values[attr] = _from_bytes(
                    file_path.read_bytes(), typecode
                ).tolist()
    except BaseException:
        # Drop the cast views before closing their mappings: a view
        # still exported makes ``close()`` raise BufferError, which
        # would mask the typed storage error being propagated.
        values.clear()
        for mapped in maps:
            try:
                mapped.close()
            except BufferError:  # pragma: no cover - view still alive
                pass
        raise

    from repro.graph.compiled import ArrayBackedGraph, CompiledGraph

    compiled = CompiledGraph.__new__(CompiledGraph)
    compiled.nodes = nodes
    compiled.index_of = {node: index for index, node in enumerate(nodes)}
    for attr, _, _ in _ARRAYS:
        setattr(compiled, attr, values[attr])
    compiled.payload_token = manifest["payload_token"]
    compiled.disk_home = str(path)
    # A generation-qualified save restores its epoch; the replay log
    # never travels through disk, so patching resumes from here.
    compiled.generation = manifest.get("generation", 0)
    compiled._delta_log = []
    compiled._log_from = compiled.generation
    compiled._mmaps = tuple(maps)
    compiled._row_targets = None
    compiled._row_edges = None
    compiled._row_id_edges = None
    compiled._largest_component = None
    compiled._ranking = None
    compiled.graph = ArrayBackedGraph(compiled)
    return compiled
