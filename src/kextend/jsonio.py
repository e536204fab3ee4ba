"""JSON views of graphs, certificates, and witnesses.

Every witness is serialized in the labels of the original graph, as
explicit sorted lists, so outputs diff cleanly and re-verify without
context.
"""

from __future__ import annotations

from typing import Any, Optional

from .extendibility import ExtendibilityCertificate
from .graphs import _Record
from .matching import Matching


def matching_json(m: Matching) -> list[list[int]]:
    return [[u, v] for u, v in m.edges]


def certificate_json(cert: ExtendibilityCertificate) -> dict[str, Any]:
    return {
        "k": cert.k,
        "verdict": "yes" if cert.verdict else "no",
        "reason": cert.reason,
        "witness": matching_json(cert.witness) if cert.witness else None,
        "exhibit": [
            {"matching": matching_json(m), "extension": matching_json(ext)}
            for m, ext in cert.exhibit
        ] or None,
    }


def record_json(r: Optional[_Record]) -> Optional[dict[str, Any]]:
    """A witness record's fields in order, each tuple as a list; None for
    None."""
    if r is None:
        return None
    return {f: list(v) if isinstance(v, tuple) else v
            for f, v in zip(r._fields, r._key())}
