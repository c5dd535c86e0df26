"""Index persistence: save/load prepared PAT/HPAT structures.

Preprocessing dominates TEA's cost on repeated runs over the same graph
and weight definition (Figure 13); a production deployment builds once
and reloads. This module serialises the flat arrays of a prepared index
(plus the per-edge candidate index) into one ``.npz`` container with a
format version and a graph fingerprint, so a stale index is rejected
instead of silently mis-sampling.

Format v2 stores ``alias`` as int32, the dtype the index holds it in
memory (v1 stored int64); a v1 container is refused, and an engine's
index cache rebuilds over it.
"""

from __future__ import annotations

import hashlib
import os
import zipfile
from typing import Dict, Optional, Tuple, Union

import numpy as np

from repro.core.aux_index import AuxiliaryIndex
from repro.core.hpat import HierarchicalPAT
from repro.core.pat import PersistentAliasTable
from repro.exceptions import GraphFormatError
from repro.graph.temporal_graph import TemporalGraph

PathLike = Union[str, os.PathLike]

FORMAT_VERSION = 2

#: The flat arrays a prepared HPAT consists of, in container order. One
#: catalogue serves every consumer of the prepared image: ``save_hpat``
#: writes exactly these members, ``load_hpat`` reads (or memory-maps)
#: them, and the parallel executor's shared-memory export
#: (:mod:`repro.parallel.sharing`) ships the same set to walk workers.
HPAT_ARRAY_FIELDS: Tuple[str, ...] = (
    "indptr", "c", "prob", "alias", "lvl_ptr", "lvl_base",
)


def hpat_array_catalogue(
    hpat: HierarchicalPAT, candidate_sizes: Optional[np.ndarray] = None
) -> Dict[str, np.ndarray]:
    """Name → array map of everything the walk phase reads from an index.

    ``candidate_sizes`` (the per-edge |Γt(v)| index) rides along when
    given — it is part of the prepared image even though it lives outside
    the :class:`HierarchicalPAT` object.
    """
    out = {name: getattr(hpat, name) for name in HPAT_ARRAY_FIELDS}
    if candidate_sizes is not None:
        out["candidate_sizes"] = candidate_sizes
    return out


def graph_fingerprint(graph: TemporalGraph) -> str:
    """Stable digest of the CSR arrays (layout identity, not isomorphism)."""
    h = hashlib.sha256()
    h.update(graph.indptr.tobytes())
    h.update(graph.nbr.tobytes())
    h.update(graph.etime.tobytes())
    if graph.eweight is not None:
        h.update(graph.eweight.tobytes())
    return h.hexdigest()


def save_hpat(
    path: PathLike,
    hpat: HierarchicalPAT,
    graph: TemporalGraph,
    candidate_sizes: np.ndarray,
    weight_desc: str = "",
    compressed: bool = True,
) -> None:
    """Persist a prepared HPAT (+ candidate index) to ``path`` (.npz).

    ``weight_desc`` identifies the weight model the index was built
    with (e.g. ``WeightModel.describe()``); loading verifies it, because
    the stored prefix sums and alias tables are weight-dependent.

    ``compressed=False`` stores the array members raw (``np.savez``), the
    layout that lets :func:`load_hpat` memory-map them read-only
    (``mmap_mode="r"``) — the configuration parallel walk workers and the
    out-of-core engine want, trading disk bytes for zero-copy loads.
    """
    writer = np.savez_compressed if compressed else np.savez
    writer(
        path,
        version=np.int64(FORMAT_VERSION),
        kind=np.bytes_(b"hpat"),
        weight_desc=np.bytes_(weight_desc.encode()),
        fingerprint=np.bytes_(graph_fingerprint(graph).encode()),
        aux_max=np.int64(hpat.aux.max_size if hpat.aux is not None else -1),
        **hpat_array_catalogue(hpat, candidate_sizes),
    )


def _mmap_npz_member(path: PathLike, info: zipfile.ZipInfo,
                     mmap_mode: str) -> Optional[np.ndarray]:
    """Memory-map one *stored* (uncompressed) ``.npy`` member of a zip.

    ``np.load(..., mmap_mode=...)`` silently ignores the request for
    ``.npz`` containers, so this walks the zip structure by hand: find
    the member's data offset past its local file header, parse the npy
    header there, and map the payload in place. Returns ``None`` when
    the member cannot be mapped (deflated member, unexpected layout) so
    the caller can fall back to a copying load.
    """
    if info.compress_type != zipfile.ZIP_STORED:
        return None
    with open(path, "rb") as fh:
        fh.seek(info.header_offset)
        local = fh.read(30)
        if len(local) != 30 or local[:4] != b"PK\x03\x04":
            return None
        name_len = int.from_bytes(local[26:28], "little")
        extra_len = int.from_bytes(local[28:30], "little")
        data_start = info.header_offset + 30 + name_len + extra_len
        fh.seek(data_start)
        try:
            version = np.lib.format.read_magic(fh)
            if version == (1, 0):
                shape, fortran, dtype = np.lib.format.read_array_header_1_0(fh)
            elif version == (2, 0):
                shape, fortran, dtype = np.lib.format.read_array_header_2_0(fh)
            else:
                return None
        except ValueError:
            return None
        if dtype.hasobject:
            return None
        offset = fh.tell()
    return np.memmap(
        path, dtype=dtype, mode=mmap_mode, shape=shape, offset=offset,
        order="F" if fortran else "C",
    )


def mmap_npz_arrays(
    path: PathLike, names: Tuple[str, ...], mmap_mode: str = "r"
) -> Optional[Dict[str, np.ndarray]]:
    """Map the named members of an ``.npz`` container without copying.

    All-or-nothing: returns ``None`` unless *every* requested member is
    a stored (uncompressed) npy that maps cleanly — mixed copy/map loads
    would defeat the point of sharing pages across worker processes.
    """
    out: Dict[str, np.ndarray] = {}
    with zipfile.ZipFile(path) as zf:
        for name in names:
            try:
                info = zf.getinfo(name + ".npy")
            except KeyError:
                return None
            arr = _mmap_npz_member(path, info, mmap_mode)
            if arr is None:
                return None
            out[name] = arr
    return out


def _check_version(path: PathLike, data) -> None:
    if int(data["version"]) != FORMAT_VERSION:
        raise GraphFormatError(
            f"{path}: index format v{int(data['version'])}, "
            f"expected v{FORMAT_VERSION}"
        )


def load_hpat(
    path: PathLike, graph: TemporalGraph, weight_desc: str = "",
    mmap_mode: Optional[str] = None,
) -> Tuple[HierarchicalPAT, np.ndarray]:
    """Reload a saved HPAT, verifying it matches ``graph`` and weights.

    Returns ``(hpat, candidate_sizes)``. The auxiliary index is
    regenerated (it depends only on the max degree and rebuilding it is
    cheaper than storing ~D·log D entries).

    ``mmap_mode="r"`` maps the flat arrays read-only instead of copying
    the container into private memory — many worker processes (or the
    out-of-core engine) then share one page cache image of the index.
    Requires a container saved with ``compressed=False``; a compressed
    container falls back to an ordinary copying load. Stale-index
    rejection (fingerprint / weight / version checks) is identical in
    both modes.
    """
    with np.load(path) as data:
        _check_version(path, data)
        if bytes(data["kind"]) != b"hpat":
            raise GraphFormatError(f"{path}: not an HPAT container")
        stored = bytes(data["fingerprint"]).decode()
        if stored != graph_fingerprint(graph):
            raise GraphFormatError(
                f"{path}: index was built for a different graph "
                f"(fingerprint mismatch)"
            )
        stored_weights = bytes(data["weight_desc"]).decode()
        if stored_weights != weight_desc:
            raise GraphFormatError(
                f"{path}: index was built with weights "
                f"{stored_weights!r}, expected {weight_desc!r}"
            )
        aux_max = int(data["aux_max"])
        arrays: Optional[Dict[str, np.ndarray]] = None
        if mmap_mode is not None:
            arrays = mmap_npz_arrays(
                path, HPAT_ARRAY_FIELDS + ("candidate_sizes",), mmap_mode
            )
        if arrays is None:
            arrays = {
                name: data[name]
                for name in HPAT_ARRAY_FIELDS + ("candidate_sizes",)
            }
    aux = AuxiliaryIndex(aux_max) if aux_max >= 0 else None
    hpat = HierarchicalPAT(
        aux=aux, **{name: arrays[name] for name in HPAT_ARRAY_FIELDS}
    )
    return hpat, arrays["candidate_sizes"]


def save_pat(path: PathLike, pat: PersistentAliasTable, graph: TemporalGraph) -> None:
    """Persist a prepared PAT to ``path`` (.npz)."""
    np.savez_compressed(
        path,
        version=np.int64(FORMAT_VERSION),
        kind=np.bytes_(b"pat"),
        fingerprint=np.bytes_(graph_fingerprint(graph).encode()),
        indptr=pat.indptr,
        c=pat.c,
        prob=pat.prob,
        alias=pat.alias,
        trunk_sizes=pat.trunk_sizes,
    )


def load_pat(path: PathLike, graph: TemporalGraph) -> PersistentAliasTable:
    """Reload a saved PAT, verifying it matches ``graph``."""
    with np.load(path) as data:
        _check_version(path, data)
        if bytes(data["kind"]) != b"pat":
            raise GraphFormatError(f"{path}: not a PAT container")
        if bytes(data["fingerprint"]).decode() != graph_fingerprint(graph):
            raise GraphFormatError(f"{path}: fingerprint mismatch")
        return PersistentAliasTable(
            indptr=data["indptr"],
            c=data["c"],
            prob=data["prob"],
            alias=data["alias"],
            trunk_sizes=data["trunk_sizes"],
        )
