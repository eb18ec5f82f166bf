"""Storage-format specification: the plan dimension the format zoo adds.

The reorder pipeline historically targeted exactly one compressed
format — rigid 2:4 — so "which format" was never a question a plan had
to answer.  VENOM's V:N:M generalization (arxiv 2310.02065) changes
that: a pre-pruned model ships matrices whose structure maps onto the
SpTC through a *different* storage layout (per-panel column selections
amortized over V rows), and the right layout per matrix is an empirical
question the cost model settles, not a static one.

:class:`FormatSpec` names one storage format:

* ``2:4`` — the rigid SpTC-native format every existing plan uses
  (:class:`~repro.core.format.JigsawMatrix`); the default;
* ``vnm:{V}:{N}:{M}`` — VENOM-style two-level V:N:M storage
  (:class:`~repro.core.vnm.VnmPlan` wrapping
  :class:`~repro.formats.venom.VenomMatrix`).

Serving routes are *format-qualified*: a route name is either a base
route (``jigsaw``, ``compiled``, ``hybrid``, ``dense`` — all 2:4 or
format-free) or ``base@kind`` (``jigsaw@vnm``).  :func:`base_route`
strips the qualifier; schedulers and breakers key on the full qualified
name so the cost model learns per-(matrix, format, route) costs.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Header codes persisted by serialization v6 (see
#: :mod:`repro.core.serialization`): artifact headers carry the kind as
#: an integer so v6 readers dispatch without parsing strings.
FORMAT_KIND_24 = 0
FORMAT_KIND_VNM = 1

_KIND_NAMES = {FORMAT_KIND_24: "2:4", FORMAT_KIND_VNM: "vnm"}
_KIND_CODES = {name: code for code, name in _KIND_NAMES.items()}


@dataclass(frozen=True)
class FormatSpec:
    """One storage format a plan can carry.

    ``kind`` is ``"2:4"`` (v/n/m unused, stored as 0) or ``"vnm"``
    (``v`` rows per panel, ``n`` kept of every ``m`` columns).  The
    spec is hashable and usable as a cache key.
    """

    kind: str = "2:4"
    v: int = 0
    n: int = 0
    m: int = 0

    def __post_init__(self) -> None:
        if self.kind not in _KIND_CODES:
            raise ValueError(
                f"unknown format kind {self.kind!r}; choose from {sorted(_KIND_CODES)}"
            )
        if self.kind == "2:4":
            if (self.v, self.n, self.m) != (0, 0, 0):
                raise ValueError("the 2:4 format takes no V/N/M parameters")
        else:
            if self.v < 1:
                raise ValueError("V:N:M needs V >= 1 rows per panel")
            if not 1 <= self.n <= 2:
                raise ValueError("V:N:M needs N in {1, 2} (elementwise N:4 on SpTC)")
            if self.m < 4:
                raise ValueError("V:N:M needs M >= 4 (four selected columns per group)")
            if self.n > self.m:
                raise ValueError("V:N:M needs N <= M")

    # -- constructors ----------------------------------------------------------

    @classmethod
    def vnm(cls, v: int, n: int = 2, m: int = 8) -> "FormatSpec":
        return cls(kind="vnm", v=v, n=n, m=m)

    @classmethod
    def parse(cls, text: str) -> "FormatSpec":
        """Parse ``"2:4"`` or ``"vnm:{V}:{N}:{M}"`` (e.g. ``"vnm:64:2:8"``)."""
        s = text.strip()
        if s == "2:4":
            return cls()
        if s.startswith("vnm:"):
            parts = s.split(":")
            if len(parts) != 4:
                raise ValueError(
                    f"malformed V:N:M spec {text!r}; expected vnm:{{V}}:{{N}}:{{M}}"
                )
            try:
                v, n, m = (int(p) for p in parts[1:])
            except ValueError as exc:
                raise ValueError(f"malformed V:N:M spec {text!r}: {exc}") from None
            return cls(kind="vnm", v=v, n=n, m=m)
        raise ValueError(f"unknown format spec {text!r}")

    @classmethod
    def coerce(cls, spec: "FormatSpec | str | None") -> "FormatSpec":
        """Accept a spec, its string form, or None (= default 2:4)."""
        if spec is None:
            return cls()
        if isinstance(spec, FormatSpec):
            return spec
        return cls.parse(spec)

    def __str__(self) -> str:
        if self.kind == "2:4":
            return "2:4"
        return f"vnm:{self.v}:{self.n}:{self.m}"

    # -- serialization codec ---------------------------------------------------

    def header_fields(self) -> tuple[int, int, int, int]:
        """``(kind_code, v, n, m)`` as persisted in artifact headers."""
        return (_KIND_CODES[self.kind], self.v, self.n, self.m)

    @classmethod
    def from_header_fields(cls, kind_code: int, v: int, n: int, m: int) -> "FormatSpec":
        name = _KIND_NAMES.get(int(kind_code))
        if name is None:
            raise ValueError(f"unknown format kind code {kind_code}")
        if name == "2:4":
            return cls()
        return cls(kind=name, v=int(v), n=int(n), m=int(m))

    # -- route naming ----------------------------------------------------------

    @property
    def sparsity(self) -> float:
        """Nominal sparsity the format encodes (1 - N/M; 0.5 for 2:4)."""
        if self.kind == "2:4":
            return 0.5
        return 1.0 - self.n / self.m

    def qualify_route(self, base: str) -> str:
        """Format-qualified route name (``jigsaw`` -> ``jigsaw@vnm``)."""
        if self.kind == "2:4":
            return base
        return f"{base}@{self.kind}"


def base_route(route: str) -> str:
    """Strip a route's format qualifier: ``jigsaw@vnm`` -> ``jigsaw``.

    Schedulers, breakers, and stats key on the full qualified name;
    anything that needs the *behavioral* family (e.g. "is this the
    terminal dense route?") must compare base names, never literals.
    """
    return route.split("@", 1)[0]


__all__ = [
    "FORMAT_KIND_24",
    "FORMAT_KIND_VNM",
    "FormatSpec",
    "base_route",
]
