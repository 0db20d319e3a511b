"""Serializing decomposition results and hierarchies.

JSON round-tripping for :class:`~repro.core.decomp.NucleusResult` outputs
(core numbers plus run metadata) and for
:class:`~repro.analysis.hierarchy.NucleusHierarchy` dendrograms, plus a
flat-record view convenient for DataFrame-style consumers.  The tracker
and table internals are not serialized --- only the answer and its
summary statistics.
"""

from __future__ import annotations

import json

from ..core.decomp import NucleusResult
from .hierarchy import Nucleus, NucleusHierarchy


def result_to_records(result: NucleusResult) -> list[dict]:
    """One flat record per r-clique: vertices plus core number."""
    return [{"clique": list(clique), "core": core}
            for clique, core in sorted(result.as_dict().items())]


def save_result_json(result: NucleusResult, path) -> None:
    """Write the decomposition (cores + metadata) as JSON."""
    payload = {
        "r": result.r,
        "s": result.s,
        "n_r_cliques": result.n_r_cliques,
        "n_s_cliques": result.n_s_cliques,
        "rho": result.rho,
        "max_core": result.max_core,
        "table_memory_units": result.table_memory_units,
        "stats": result.tracker.summary(),
        "cores": [[list(clique), core]
                  for clique, core in sorted(result.as_dict().items())],
    }
    with open(path, "w") as handle:
        json.dump(payload, handle)


def load_result_json(path) -> dict:
    """Load a saved decomposition.

    Returns a dict with the saved metadata plus ``cores`` as a mapping
    from vertex tuples to core numbers (the natural Python form).
    """
    with open(path) as handle:
        payload = json.load(handle)
    payload["cores"] = {tuple(clique): core
                        for clique, core in payload["cores"]}
    return payload


def hierarchy_to_payload(hierarchy: NucleusHierarchy) -> dict:
    """The JSON-ready dict form of a nucleus hierarchy.

    One record per nucleus (node id, parent id, level, member r-cliques
    as vertex lists); node ids are the hierarchy's own, so parent links
    survive the round trip untouched.
    """
    return {
        "r": hierarchy.r,
        "s": hierarchy.s,
        "nuclei": [{"node_id": nucleus.node_id,
                    "parent_id": nucleus.parent_id,
                    "level": nucleus.level,
                    "members": [list(clique)
                                for clique in nucleus.members]}
                   for nucleus in hierarchy.nuclei],
    }


def _payload_field(record, name: str, where: str, kind: type):
    """``record[name]``, or a ``ValueError`` naming the missing or
    ill-typed field (``bool`` is not accepted as an ``int``)."""
    if not isinstance(record, dict) or name not in record:
        raise ValueError(f"hierarchy payload: {where} has no {name!r} field")
    value = record[name]
    if not isinstance(value, kind) or isinstance(value, bool):
        raise ValueError(f"hierarchy payload: {where} field {name!r} must "
                         f"be {kind.__name__}, got {value!r}")
    return value


def payload_to_hierarchy(payload: dict) -> NucleusHierarchy:
    """Rebuild a :class:`NucleusHierarchy` from its payload dict.

    Raises ``ValueError`` naming the first missing or ill-typed field.
    """
    hierarchy = NucleusHierarchy(_payload_field(payload, "r", "top level", int),
                                 _payload_field(payload, "s", "top level", int))
    for i, record in enumerate(_payload_field(payload, "nuclei",
                                              "top level", list)):
        where = f"nuclei[{i}]"
        members = _payload_field(record, "members", where, list)
        if not all(isinstance(clique, list)
                   and all(isinstance(v, int) and not isinstance(v, bool)
                           for v in clique) for clique in members):
            raise ValueError(f"hierarchy payload: {where} field 'members' "
                             "must be a list of integer lists")
        hierarchy.nuclei.append(Nucleus(
            level=_payload_field(record, "level", where, int),
            members=tuple(tuple(clique) for clique in members),
            node_id=_payload_field(record, "node_id", where, int),
            parent_id=_payload_field(record, "parent_id", where, int)))
    return hierarchy


def save_hierarchy_json(hierarchy: NucleusHierarchy, path) -> None:
    """Write the hierarchy (levels, members, parent links) as JSON."""
    with open(path, "w") as handle:
        json.dump(hierarchy_to_payload(hierarchy), handle)


def load_hierarchy_json(path) -> NucleusHierarchy:
    """Load a hierarchy saved by :func:`save_hierarchy_json`."""
    with open(path) as handle:
        return payload_to_hierarchy(json.load(handle))
