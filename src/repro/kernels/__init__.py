"""Pluggable sampling-kernel backends (ROADMAP direction 3).

One frontier hop is three structure-of-arrays passes — select, alias,
scatter — behind the narrow ABI of :mod:`repro.kernels.base` (plus the
index build's alias tables and prefix sums, compiled where ``c`` is);
this package is the registry that picks which implementation runs them:

``c``
    Per-lane C loops (``hop.c`` via :mod:`repro.kernels.c_backend`),
    compiled on first use with the system ``cc`` — and, for lane-keyed
    runs, the whole hop in one call. ``auto`` resolves to it whenever it
    compiled, loaded and passed its self-test; otherwise to ``numpy``,
    and :func:`backend_fallback_note` says why.
``numpy``
    The fused reference backend. Always available.

Backend choice never changes walk output — the passes consume the
uniforms the shared driver drew, and ``c``'s own draws are
:class:`~repro.rng.LaneRng`'s bit for bit — so the only selection is "did
it compile".
"""

from __future__ import annotations

import threading
from typing import Optional, Tuple

from repro.kernels.base import (
    KernelBackend,
    KernelScratch,
    WalkState,
    sample_batch,
)

#: Every name :func:`resolve_backend` accepts.
BACKEND_CHOICES = ("auto", "numpy", "c")

_CACHE = {}
_FALLBACK_NOTE: Optional[str] = None
#: The index build resolves from pool threads: one of them loads.
_LOCK = threading.RLock()


def _load(name: str) -> Optional[KernelBackend]:
    if name in _CACHE:
        return _CACHE[name]
    with _LOCK:
        if name not in _CACHE:
            _CACHE[name] = _load_uncached(name)
    return _CACHE[name]


def _load_uncached(name: str) -> Optional[KernelBackend]:
    global _FALLBACK_NOTE
    backend: Optional[KernelBackend]
    if name == "numpy":
        from repro.kernels.numpy_backend import BACKEND as backend
    elif name == "c":
        from repro.kernels import c_backend

        try:
            backend = c_backend.load()
        except c_backend.Unavailable as exc:
            backend = None
            _FALLBACK_NOTE = (
                f"kernel backend 'c' unavailable ({exc}); using 'numpy'"
            )
    else:
        raise ValueError(
            f"unknown kernel backend {name!r} "
            f"(choices: {', '.join(BACKEND_CHOICES)})"
        )
    return backend


def available_backends() -> Tuple[str, ...]:
    """Concrete (non-``auto``) backends usable in this process."""
    return ("c", "numpy") if _load("c") is not None else ("numpy",)


def resolve_backend(name: str = "auto") -> KernelBackend:
    """Resolve a backend request to a concrete :class:`KernelBackend`.

    ``auto`` — and an explicit ``c`` — is the compiled backend when it
    built, loaded and self-tested in this process, else ``numpy``; the
    reason for a fallback is kept for :func:`backend_fallback_note`.
    Backend objects are stateless and shared.
    """
    if isinstance(name, KernelBackend):
        return name
    name = (name or "auto").lower()
    backend = _load("c" if name == "auto" else name)
    return backend if backend is not None else _load("numpy")


def publish_backend(registry, backend="auto") -> str:
    """Set the ``kernel.backend{name=…}`` info gauge on ``registry`` to 1
    for the backend ``backend`` resolves to; returns that name."""
    name = resolve_backend(backend).name
    registry.gauge(
        f'kernel.backend{{name="{name}"}}',
        "sampling-kernel backend serving the hops (info gauge, always 1)",
    ).set(1)
    return name


def backend_fallback_note() -> Optional[str]:
    """Why ``c`` is not serving (no ``cc``, the compiler's first error
    line, a load error, a self-test mismatch), or None if it is."""
    return _FALLBACK_NOTE


__all__ = [
    "BACKEND_CHOICES",
    "KernelBackend",
    "KernelScratch",
    "WalkState",
    "available_backends",
    "backend_fallback_note",
    "publish_backend",
    "resolve_backend",
    "sample_batch",
]
