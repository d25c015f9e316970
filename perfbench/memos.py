"""Read-only census of repstab's in-process memos.

The package offers no registry or `clear_caches()`, so each benchmark
run starts in a fresh process and this module only looks: entry counts of
the four dict memos, and `cache_info()` of the nine `lru_cache`s.
"""

import importlib

DICT_MEMOS = (("groups", "_EPI_CACHE"), ("groups", "_COUNT_CACHE"),
              ("subgroups", "_LATTICE_CACHE"), ("monoidal", "_TENSOR_MEMO"))

LRU_MEMOS = (("groups", "_is_prime"), ("groups", "automorphism_generators"),
             ("subgroups", "Subgroup._generator_data"),
             ("subgroups", "Subgroup._decomposition"),
             ("families", "_partitions"),
             ("presentations", "_orbit_structure"),
             ("monoidal", "_wide_list"), ("monoidal", "_vhom_list"),
             ("monoidal", "_quotient_type_cached"))


def metric_names():
    names = [f"memo.{attr.lstrip('_')}.entries" for _, attr in DICT_MEMOS]
    for _, path in LRU_MEMOS:
        short = path.lstrip("_").replace("._", ".")
        names += [f"memo.{short}.entries", f"memo.{short}.hit_ratio"]
    return names


def _resolve(module, path):
    obj = importlib.import_module(f"repstab.{module}")
    for part in path.split("."):
        obj = getattr(obj, part)
    return obj


def snapshot():
    """{"<memo>": {"entries": n, "hits": h, "misses": m}} right now."""
    out = {}
    for module, attr in DICT_MEMOS:
        out[attr.lstrip("_")] = {"entries": len(_resolve(module, attr)),
                                 "hits": 0, "misses": 0}
    for module, path in LRU_MEMOS:
        info = _resolve(module, path).cache_info()
        out[path.lstrip("_").replace("._", ".")] = {
            "entries": info.currsize, "hits": info.hits,
            "misses": info.misses}
    return out


def metrics(snap):
    """Flatten a snapshot into the per-layer metric names."""
    out = {}
    lru = {path.lstrip("_").replace("._", ".") for _, path in LRU_MEMOS}
    for name, row in snap.items():
        out[f"memo.{name}.entries"] = row["entries"]
        if name in lru:
            total = row["hits"] + row["misses"]
            out[f"memo.{name}.hit_ratio"] = row["hits"] / total if total else 0.0
    return out


def add(a, b):
    """Sum two snapshots (children of one CLI workload)."""
    out = {k: dict(v) for k, v in a.items()}
    for name, row in b.items():
        acc = out.setdefault(name, {"entries": 0, "hits": 0, "misses": 0})
        for k in acc:
            acc[k] += row[k]
    return out
