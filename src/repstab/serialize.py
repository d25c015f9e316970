"""JSON round-trips for the public value types.

All rationals serialize as "num/den" strings; floats never appear in any
artifact.  Deserializing and re-serializing is lossless.
"""

import json
from fractions import Fraction

from .errors import ParseError


def fraction_to_str(q):
    q = Fraction(q)
    return f"{q.numerator}/{q.denominator}"


def fraction_from_str(s):
    try:
        num, _, den = s.partition("/")
        return Fraction(int(num), int(den) if den else 1)
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"bad rational {s!r}") from exc


def group_to_json(g):
    return {"p": g.p, "lambda": list(g.exponents)}


def group_from_json(d):
    from .groups import GroupType
    return GroupType(int(d["p"]), tuple(int(v) for v in d["lambda"]))


def morphism_to_json(f):
    return {"source": group_to_json(f.source),
            "target": group_to_json(f.target),
            "matrix": [list(row) for row in f.matrix]}


def morphism_from_json(d):
    from .groups import make_morphism
    return make_morphism(group_from_json(d["source"]),
                         group_from_json(d["target"]), d["matrix"])


def family_to_json(fam):
    if fam.kind == "TruncatedLeq":
        return {"kind": fam.kind, "p": fam.p,
                "base": family_to_json(fam.base), "bound": fam.bound}
    out = {"kind": fam.kind, "p": fam.p}
    if fam.n:
        out["n"] = fam.n
    return out


def family_from_json(d):
    from .families import Family, truncated
    if d["kind"] == "TruncatedLeq":
        return truncated(family_from_json(d["base"]), int(d["bound"]))
    return Family(d["kind"], int(d["p"]), int(d["n"]) if d.get("n") else None)


def qmatrix_to_json(m):
    return {"rows": m.rows, "cols": m.cols,
            "entries": [[fraction_to_str(v) for v in row]
                        for row in m.entries]}


def qmatrix_from_json(d):
    from .linalg import QMatrix
    m = QMatrix.from_rows([[fraction_from_str(v) for v in row]
                           for row in d["entries"]])
    if m.rows != d["rows"] or m.cols != d["cols"]:
        raise ParseError("matrix shape disagrees with entries")
    return m


def presentation_to_json(x):
    cols = []
    for h, col in zip(x.rel_sources, x.columns):
        entries = []
        for entry in col:
            if entry is None or not entry.terms:
                entries.append({"terms": []})
            else:
                entries.append({"terms": [
                    {"matrix": morphism_to_json(mor),
                     "coeff": fraction_to_str(c)}
                    for mor, c in entry.terms]})
        cols.append(entries)
    return {"family": family_to_json(x.family),
            "generators": [group_to_json(g) for g in x.generators],
            "relation_sources": [group_to_json(h) for h in x.rel_sources],
            "relations": cols}


def presentation_from_json(d):
    """A PresentedObject from its JSON form; ParseError on any malformed
    or inconsistent input."""
    try:
        return _presentation_from_json(d)
    except (LookupError, TypeError, ValueError, AttributeError) as exc:
        raise ParseError(f"bad presentation: {exc!r}") from exc


def _presentation_from_json(d):
    from .presentations import MorphismCombination, PresentedObject
    fam = family_from_json(d["family"])
    gens = tuple(group_from_json(g) for g in d["generators"])
    rel_sources = tuple(group_from_json(h)
                        for h in d.get("relation_sources", ()))
    relations = d.get("relations", ())
    if len(relations) != len(rel_sources):
        raise ParseError(f"{len(relations)} relation columns for "
                         f"{len(rel_sources)} relation sources")
    columns = []
    for h, col in zip(rel_sources, relations):
        if len(col) != len(gens):
            raise ParseError(f"relation column of length {len(col)} for "
                             f"{len(gens)} generators")
        entries = []
        for i, entry in enumerate(col):
            terms = [(morphism_from_json(t["matrix"]),
                      fraction_from_str(t["coeff"]))
                     for t in entry.get("terms", ())]
            entries.append(MorphismCombination.make(h, gens[i], terms)
                           if terms else None)
        columns.append(tuple(entries))
    return PresentedObject(fam, gens, rel_sources, tuple(columns))


def based_space_to_json(sp):
    return {"dim": sp.dim, "basis": [_label_str(lab) for lab in sp.labels]}


def _label_str(lab):
    from .groups import Morphism
    if isinstance(lab, tuple) and len(lab) == 2 \
            and isinstance(lab[1], Morphism):
        i, mor = lab
        return f"gen{i}:{mor.matrix}"
    return str(lab)


def decomposition_to_json(summands, family):
    counts = {}
    order = []
    for g in summands:
        k = g.key()
        if k not in counts:
            counts[k] = [g, 0]
            order.append(k)
        counts[k][1] += 1
    return {"summands": [{"group": group_to_json(counts[k][0]),
                          "multiplicity": counts[k][1]}
                         for k in sorted(order)],
            "family": family_to_json(family)}


def dumps(payload):
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def stability_csv(table, tau_col=None):
    """Fixed-column CSV for stability tables: group_key, dim, torsion_dim,
    tau_iso(n), flags."""
    header = "group_key,dim,torsion_dim,tau_iso_n,flags"
    lines = [header]
    for key in sorted(table):
        row = table[key]
        tau = ""
        if tau_col is not None:
            tau = str(row.get(f"tau_iso({tau_col})", ""))
        lines.append(",".join([
            key,
            str(row.get("dim", "")),
            str(row.get("torsion_dim", "")),
            tau,
            str(row.get("flags", "")),
        ]))
    return "\n".join(lines) + "\n"
