"""Save/load the reorder-aware storage format.

The reorder is one-time preprocessing (paper Section 3.1); a deployment
wants to run it offline and ship the compressed artifact next to the
model weights.  ``save_jigsaw``/``load_jigsaw`` persist a
:class:`~repro.core.format.JigsawMatrix` as a single uncompressed
``.npz`` holding what the paper's format stores (Section 3.3): the
compressed values and all three index levels, each one flat array over
all slabs, plus the per-slab table and enough header metadata to
rebuild the object bit-exactly.  The entry set is the same whatever
the slab count, and neither the writer nor the loader loops over
slabs.  Nothing derived is
persisted: the SpTC metadata is stored once, as the 2-bit positions,
and both of its word layouts (naive and v3 interleaved) are derived
from them; the compiled whole-plan arrays (:mod:`repro.core.compiled`)
are recompiled on first use.  The writer skips zlib: it would make the
file about 3x smaller but the store about 10x slower, and a dynamic
update stores its repaired artifact on the serving path.  Loading
validates the structural invariants before returning (corrupt artifacts
fail loudly).

Integrity: every artifact carries a sha256 content checksum over every
payload array; the loaders recompute and compare it, so silent bit-rot
surfaces as a typed :class:`ArtifactIntegrityError` instead of a wrong
answer.  A truncated or non-npz file surfaces as a typed
:class:`ArtifactError` rather than a raw ``zipfile.BadZipFile`` from
deep inside numpy, and an artifact of any other format version as a
typed :class:`ArtifactVersionError` — one exception type is what lets
the serving plan cache quarantine and rebuild instead of crashing.
"""

from __future__ import annotations

import hashlib
import io
from pathlib import Path

import numpy as np

from .format import JigsawMatrix
from .formatspec import FormatSpec
from .reorder import ReorderResult
from .tiles import TileConfig
from .vnm import VnmPlan

#: The one artifact format version this build writes and reads.  The
#: jigsaw header is 13 int64 fields: version, shape (2), block_tile,
#: block_tile_n, slab count, avoid_bank_conflicts, mma_tile, the
#: storage-format spec (kind, V, N, M — see :mod:`repro.core.formatspec`)
#: and the dynamic-sparsity ``content_version``.  Five flat arrays
#: follow — ``slab_table`` (see :class:`~repro.core.reorder.ReorderResult`),
#: ``col_ids``, ``tile_perms``, ``values`` and ``positions`` — then the
#: ``checksum``.  Version 8 dropped the compiled ``c_*`` arrays that
#: version 7 carried; version 9 dropped the two metadata word layouts,
#: which are derived from the positions; version 10 replaced five arrays
#: per slab with one flat array per field.  The plan-cache key folds
#: this number in too, so a bump retires every cached artifact at once.
FORMAT_VERSION = 10


class ArtifactError(ValueError):
    """A plan artifact could not be read (truncated, not an npz, missing
    arrays).  Raised instead of the underlying zipfile/OSError so
    callers can quarantine-and-rebuild on one exception type."""


class ArtifactIntegrityError(ArtifactError):
    """An artifact's content no longer matches its sha256 checksum."""


class ArtifactVersionError(ArtifactError):
    """An artifact was written with a format version other than
    :data:`FORMAT_VERSION` (older layouts are not read)."""


def _content_digest(arrays: dict[str, np.ndarray]) -> bytes:
    """sha256 over every array except the checksum itself, in sorted-key
    order, covering dtype, shape, and raw bytes."""
    h = hashlib.sha256()
    for key in sorted(arrays):
        if key == "checksum":
            continue
        arr = np.asarray(arrays[key])
        h.update(key.encode())
        h.update(str(arr.dtype).encode())
        h.update(np.asarray(arr.shape, dtype=np.int64).tobytes())
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.digest()


def _write(arrays: dict[str, np.ndarray], path: str | Path | io.BytesIO) -> None:
    """Add the content checksum and write an uncompressed ``.npz``."""
    arrays["checksum"] = np.frombuffer(_content_digest(arrays), dtype=np.uint8)
    np.savez(path, **arrays)


def save_jigsaw(jm: JigsawMatrix, path: str | Path | io.BytesIO) -> None:
    """Persist a JigsawMatrix as a checksummed ``.npz``."""
    r = jm.reorder
    arrays: dict[str, np.ndarray] = {
        "header": np.array(
            [
                FORMAT_VERSION,
                jm.shape[0],
                jm.shape[1],
                jm.config.block_tile,
                jm.config.block_tile_n,
                len(r.table),
                int(jm.avoid_bank_conflicts),
                jm.config.mma_tile,
                *jm.format_spec.header_fields(),
                jm.content_version,
            ],
            dtype=np.int64,
        ),
        "slab_table": r.table,
        "col_ids": r.col_ids,
        "tile_perms": r.tile_perms,
        "values": jm.values,
        "positions": jm.positions,
    }
    _write(arrays, path)


def _read_arrays(path: str | Path | io.BytesIO) -> dict[str, np.ndarray]:
    """Materialize an artifact's arrays; typed error on unreadable files.

    Opens the file itself: when ``np.load`` raises mid-parse on a
    corrupt zip it can leave its internally-opened handle dangling, and
    the quarantine path must not leak (or hold a lock on) the file it
    is about to ``os.replace``."""
    fh = None
    try:
        source: io.IOBase | io.BytesIO
        if isinstance(path, (str, Path)):
            fh = open(path, "rb")
            source = fh
        else:
            source = path
        with np.load(source) as data:
            return {key: data[key] for key in data.files}
    except ArtifactError:
        raise
    except Exception as exc:  # BadZipFile, OSError, pickle errors, ...
        raise ArtifactError(f"unreadable artifact: {exc}") from exc
    finally:
        if fh is not None:
            fh.close()


def _read_verified(
    path: str | Path | io.BytesIO, header_key: str, verify: bool
) -> tuple[dict[str, np.ndarray], np.ndarray]:
    """An artifact's arrays and header, version- and checksum-checked.

    ``verify=False`` skips the digest comparison (forensics on
    quarantined files); the version check always runs.
    """
    arrays = _read_arrays(path)
    try:
        header = arrays[header_key]
        version = int(header[0])
    except (KeyError, IndexError, ValueError) as exc:
        raise ArtifactError(
            f"artifact {header_key!r} missing or malformed: {exc}"
        ) from exc
    if version != FORMAT_VERSION:
        raise ArtifactVersionError(
            f"artifact format version {version} unsupported "
            f"(this build reads version {FORMAT_VERSION} only)"
        )
    if verify:
        stored = arrays.get("checksum")
        if stored is None:
            raise ArtifactIntegrityError("artifact is missing its checksum array")
        if bytes(np.asarray(stored, dtype=np.uint8)) != _content_digest(arrays):
            raise ArtifactIntegrityError(
                "artifact content does not match its sha256 checksum"
            )
    return arrays, header


def load_jigsaw(
    path: str | Path | io.BytesIO, verify: bool = True
) -> JigsawMatrix:
    """Load a JigsawMatrix artifact; verifies and validates before
    returning."""
    arrays, header = _read_verified(path, "header", verify)
    try:
        format_spec = FormatSpec.from_header_fields(
            int(header[8]), int(header[9]), int(header[10]), int(header[11])
        )
        content_version = int(header[12])
    except (IndexError, ValueError) as exc:
        raise ArtifactError(f"artifact header is malformed: {exc}") from exc
    try:
        shape = (int(header[1]), int(header[2]))
        config = TileConfig(
            block_tile=int(header[3]),
            block_tile_n=int(header[4]),
            mma_tile=int(header[7]),
        )
        reorder = ReorderResult(
            shape, config, arrays["slab_table"], arrays["col_ids"], arrays["tile_perms"]
        )
        jm = JigsawMatrix(
            shape=shape,
            config=config,
            reorder=reorder,
            values=arrays["values"],
            positions=arrays["positions"],
            avoid_bank_conflicts=bool(header[6]),
            format_spec=format_spec,
            content_version=content_version,
        )
    except KeyError as exc:
        raise ArtifactError(f"artifact is missing array {exc}") from exc
    jm.validate()
    return jm


def save_vnm(vp: VnmPlan, path: str | Path | io.BytesIO) -> None:
    """Persist a :class:`~repro.core.vnm.VnmPlan` as a checksummed ``.npz``.

    V:N:M artifacts are a sibling family to the jigsaw ones: they share
    the format version, the sha256 content-digest scheme, and the typed
    error taxonomy, but use a distinct ``vnm_header`` key so neither
    loader can misread the other's artifacts (``load_jigsaw`` on a vnm
    file fails with a missing-header :class:`ArtifactError` and vice
    versa, never a structurally-wrong plan).
    """
    vm = vp.matrix
    arrays: dict[str, np.ndarray] = {
        "vnm_header": np.array(
            [
                FORMAT_VERSION,
                vm.shape[0],
                vm.shape[1],
                *vp.spec.header_fields(),
            ],
            dtype=np.int64,
        ),
        "values": vm.values,
        "positions": vm.positions,
        "col_choices": vm.col_choices,
    }
    _write(arrays, path)


def load_vnm(path: str | Path | io.BytesIO, verify: bool = True) -> VnmPlan:
    """Load a V:N:M plan artifact; validates before returning."""
    from repro.formats.venom import VenomMatrix

    arrays, header = _read_verified(path, "vnm_header", verify)
    try:
        spec = FormatSpec.from_header_fields(
            int(header[3]), int(header[4]), int(header[5]), int(header[6])
        )
    except (IndexError, ValueError) as exc:
        raise ArtifactError(f"vnm artifact has a malformed format spec: {exc}") from exc
    if spec.kind != "vnm":
        raise ArtifactError(f"vnm artifact carries a non-vnm format spec ({spec})")
    try:
        vm = VenomMatrix(
            shape=(int(header[1]), int(header[2])),
            v=spec.v,
            n=spec.n,
            m=spec.m,
            values=np.ascontiguousarray(arrays["values"], dtype=np.float16),
            positions=np.ascontiguousarray(arrays["positions"], dtype=np.uint8),
            col_choices=np.ascontiguousarray(arrays["col_choices"], dtype=np.uint16),
        )
    except KeyError as exc:
        raise ArtifactError(f"vnm artifact is missing array {exc}") from exc
    vp = VnmPlan(matrix=vm, spec=spec)
    try:
        vp.validate()
    except ValueError as exc:
        raise ArtifactError(f"vnm artifact failed validation: {exc}") from exc
    return vp


def roundtrip_equal(a: JigsawMatrix, b: JigsawMatrix) -> bool:
    """Structural equality of two JigsawMatrix objects.

    Compares the full :class:`~repro.core.tiles.TileConfig` — two
    artifacts differing only in ``block_tile_n`` or ``mma_tile`` are
    structurally different.
    """
    if (a.shape, a.config, a.avoid_bank_conflicts, a.format_spec, a.content_version) != (
        b.shape, b.config, b.avoid_bank_conflicts, b.format_spec, b.content_version
    ):
        return False
    return all(
        np.array_equal(getattr(x, name), getattr(y, name))
        for x, y, names in (
            (a.reorder, b.reorder, ("table", "col_ids", "tile_perms")),
            (a, b, ("values", "positions")),
        )
        for name in names
    )
