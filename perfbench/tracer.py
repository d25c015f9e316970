"""Span tracer that wraps repstab's functions from outside the package.

`Tracer.install()` replaces every public function of each layer module
(plus a few named private ones and methods) with a wrapper that records
one span per call: name, start and end in ns, parent span and job id.
A wrapped function is rebound at every site that holds it, so a name a
module took in with `from .groups import iter_epis` is traced as well.
Generator functions are timed step by step: each `next` is charged to the
generator's span and subtracted from whatever span was running the loop.

Spans live in flat integer arrays until `dump()` writes them out.  Self
time of a span is its busy time minus the busy time of the spans that ran
inside it, so within one job the self times sum exactly to the job's root
span; `check_self_sums()` checks that.
"""

import array
import functools
import importlib
import inspect
import json
import sys
import time
from collections import Counter

LAYERS = ("groups", "subgroups", "intmat", "linalg", "presentations",
          "monoidal", "towers", "stability", "wqo", "resolutions",
          "serialize", "cache", "cli")

# private functions that carry a per-layer counter
PRIVATE = {
    "presentations": ("_eval_data",),
    "wqo": ("_surjections", "_generates"),
}

METHODS = {
    "groups": {"Morphism": ("__matmul__",)},
    "subgroups": {"Subgroup": ("elements", "abstract_coordinates",
                               "isomorphism_type")},
    "linalg": {"StreamCoker": ("offer",)},
    "cache": {"DiskCache": ("get", "put", "entries")},
}

# inclusive-time metrics: busy time of outermost calls among the names
INCLUSIVE = {
    "groups.count_epis": "groups.count_epis_s",
    "subgroups.enumerate_subgroups": "subgroups.lattice_s",
    "monoidal.count_wide": "monoidal.wide_s",
    "monoidal.enumerate_wide": "monoidal.wide_s",
    "wqo.factor_framing": "wqo.factor_s",
    "towers.colimit_tower_stages": "towers.stage_s",
    "stability.stability_scan": "stability.scan_s",
}

# call-count metrics
COUNTED = {
    "groups.Morphism.__matmul__": "groups.matmul_calls",
    "subgroups.Subgroup.elements": "subgroups.elements_calls",
    "subgroups.Subgroup.abstract_coordinates":
        "subgroups.abstract_coordinates_calls",
    "intmat.hermite_row_form": "intmat.hermite_calls",
    "monoidal.lmn_theta": "monoidal.lmn_theta_calls",
    "wqo._generates": "wqo.generates_calls",
    "linalg.StreamCoker.offer": "linalg.offers",
    "presentations._eval_data": "presentations.eval_calls",
    "presentations.structure_map": "presentations.structure_map_calls",
    "cache.DiskCache.get": "cache.gets",
}

ROOT = "bench.job"
_SPAN_FIELDS = ("name", "job", "parent", "start", "end", "busy", "child")


def _is_traceable(obj, modname):
    if inspect.isclass(obj):
        return False
    if not callable(obj) or getattr(obj, "__module__", None) != modname:
        return False
    return inspect.isfunction(obj) or hasattr(obj, "cache_info")


class Tracer:
    def __init__(self):
        self.names = [ROOT]
        self.name_ids = {ROOT: 0}
        self.spans = {f: array.array("q") for f in _SPAN_FIELDS}
        self.stack = []
        self.job = -1
        self.root_jobs = {}          # root span index -> benchmark job id
        self.counts = Counter()
        self.errors = Counter()
        self.yields = Counter()      # (generator name id, consumer layer)
        self.inclusive_active = Counter()

    # -- span bookkeeping ------------------------------------------------

    def _nid(self, name):
        nid = self.name_ids.get(name)
        if nid is None:
            nid = self.name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _open(self, nid, now):
        sp = self.spans
        idx = len(sp["name"])
        sp["name"].append(nid)
        sp["job"].append(self.job)
        sp["parent"].append(self.stack[-1] if self.stack else -1)
        sp["start"].append(now)
        sp["end"].append(now)
        sp["busy"].append(0)
        sp["child"].append(0)
        return idx

    def _charge(self, idx, t0, t1):
        sp = self.spans
        sp["busy"][idx] += t1 - t0
        sp["end"][idx] = t1
        if self.stack:
            sp["child"][self.stack[-1]] += t1 - t0

    def begin_job(self, job_id):
        """Open the root span of one run of a job; returns its index, which
        is also the `job` field of every span recorded until `end_job`."""
        idx = self.job = len(self.spans["name"])
        self.root_jobs[idx] = job_id
        self._open(0, time.perf_counter_ns())
        self.stack.append(idx)
        return idx

    def end_job(self, idx):
        self.stack.pop()
        self._charge(idx, self.spans["start"][idx], time.perf_counter_ns())
        self.job = -1

    def add_span(self, name, start, end):
        """Record a finished span that ran under the current top."""
        idx = self._open(self._nid(name), start)
        self._charge(idx, start, end)
        return idx

    # -- wrappers --------------------------------------------------------

    def _wrap_call(self, fn, name, layer, before=None, after=None):
        nid = self._nid(name)
        incl = INCLUSIVE.get(name)
        counted = COUNTED.get(name)
        tr = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if counted:
                tr.counts[counted] += 1
            token = before(args) if before else None
            outer = incl and not tr.inclusive_active[incl]
            if incl:
                tr.inclusive_active[incl] += 1
            idx = tr._open(nid, time.perf_counter_ns())
            tr.stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            except Exception:
                tr.errors[layer] += 1
                raise
            finally:
                tr.stack.pop()
                t1 = time.perf_counter_ns()
                tr._charge(idx, tr.spans["start"][idx], t1)
                if incl:
                    tr.inclusive_active[incl] -= 1
                    if outer:
                        tr.counts[incl] += tr.spans["busy"][idx]
            if after:
                after(args, result, token)
            return result

        if hasattr(fn, "cache_info"):
            wrapper.cache_info = fn.cache_info
            wrapper.cache_clear = fn.cache_clear
        return wrapper

    def _wrap_generator(self, fn, name, layer):
        nid = self._nid(name)
        tr = self

        def stepped(inner, idx):
            sp = tr.spans
            try:
                while True:
                    consumer = (sp["name"][tr.stack[-1]] if tr.stack else -1)
                    t0 = time.perf_counter_ns()
                    tr.stack.append(idx)
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    except Exception:
                        tr.errors[layer] += 1
                        raise
                    finally:
                        tr.stack.pop()
                        tr._charge(idx, t0, time.perf_counter_ns())
                    tr.yields[(nid, consumer)] += 1
                    yield item
            finally:
                inner.close()

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            inner = fn(*args, **kwargs)
            return stepped(inner, tr._open(nid, time.perf_counter_ns()))

        return wrapper

    def _hooks(self, name):
        """Extra observations some wrapped functions feed to counters."""
        counts = self.counts
        if name == "linalg.StreamCoker.offer":
            def after(args, result, token):
                if result:
                    counts["linalg.offers_useful"] += 1
            return None, after
        if name == "presentations._eval_data":
            def before(args):
                x, t = args[0], args[1]
                return t in x._evals
            def after(args, result, hit):
                if hit:
                    counts["presentations.eval_memo_hits"] += 1
            return before, after
        if name == "cache.DiskCache.get":
            def after(args, result, token):
                if result is not None:
                    counts["cache.hits"] += 1
            return None, after
        if name == "cache.DiskCache.put":
            def after(args, result, token):
                cache, key = args[0], args[1]
                counts["cache.put_bytes"] += cache._path(key).stat().st_size
            return None, after
        return None, None

    def _wrapped(self, fn, name, layer):
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(fn, name, layer)
        before, after = self._hooks(name)
        return self._wrap_call(fn, name, layer, before, after)

    def install(self):
        """Wrap every layer's functions and rebind them at each site."""
        modules = {layer: importlib.import_module(f"repstab.{layer}")
                   for layer in LAYERS}
        replacements = {}
        for layer, mod in modules.items():
            modname = mod.__name__
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") and attr not in PRIVATE.get(layer, ()):
                    continue
                if _is_traceable(obj, modname):
                    replacements[id(obj)] = (
                        obj, self._wrapped(obj, f"{layer}.{attr}", layer))
            for cls_name, methods in METHODS.get(layer, {}).items():
                cls = getattr(mod, cls_name)
                for meth in methods:
                    orig = cls.__dict__[meth]
                    name = f"{layer}.{cls_name}.{meth}"
                    if isinstance(orig, property):
                        new = property(self._wrapped(orig.fget, name, layer))
                    else:
                        new = self._wrapped(orig, name, layer)
                    setattr(cls, meth, new)
        sites = [m for name, m in sys.modules.items()
                 if m is not None and (name == "repstab"
                                       or name.startswith("repstab."))]
        for mod in sites:
            for attr, obj in list(vars(mod).items()):
                hit = replacements.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, attr, hit[1])
        return self

    # -- reports ---------------------------------------------------------

    def layer_of(self, nid):
        return self.names[nid].split(".", 1)[0]

    def self_times(self):
        sp = self.spans
        return [b - c for b, c in zip(sp["busy"], sp["child"])]

    def check_self_sums(self):
        """Root spans whose job's self times do not sum to their busy time."""
        sp = self.spans
        per_job = Counter()
        roots = {}
        for i, (nid, job, st) in enumerate(zip(sp["name"], sp["job"],
                                               self.self_times())):
            per_job[job] += st
            if nid == 0:
                roots[job] = sp["busy"][i]
        return sorted(j for j, busy in roots.items() if per_job[j] != busy)

    def layer_report(self):
        """Per-layer calls, self time and errors, plus the named counters."""
        calls, self_ns = Counter(), Counter()
        for nid, st in zip(self.spans["name"], self.self_times()):
            layer = self.layer_of(nid)
            calls[layer] += 1
            self_ns[layer] += st
        out = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = calls[layer]
            out[f"{layer}.self_s"] = self_ns[layer] / 1e9
            out[f"{layer}.errors"] = self.errors[layer]
        out["bench.self_s"] = self_ns["bench"] / 1e9
        c = self.counts
        for name, metric in INCLUSIVE.items():
            out[metric] = c[metric] / 1e9
        for metric in COUNTED.values():
            out[metric] = c[metric]
        iter_epis = self.name_ids.get("groups.iter_epis")
        out["groups.epis_yielded"] = sum(
            n for (nid, _), n in self.yields.items() if nid == iter_epis)
        out["stability.epis_tested"] = sum(
            n for (nid, consumer), n in self.yields.items()
            if nid == iter_epis and consumer >= 0
            and self.layer_of(consumer) == "stability")
        out["linalg.offer_useful_ratio"] = _ratio(c["linalg.offers_useful"],
                                                  c["linalg.offers"])
        out["presentations.eval_memo_hit_ratio"] = _ratio(
            c["presentations.eval_memo_hits"], c["presentations.eval_calls"])
        out["cache.hit_ratio"] = _ratio(c["cache.hits"], c["cache.gets"])
        out["cache.put_bytes"] = c["cache.put_bytes"]
        return out

    # -- persistence -----------------------------------------------------

    def dump(self, path, extra=None):
        """Write spans and counters as JSON (arrays stay flat)."""
        blob = {"names": self.names,
                "spans": {f: a.tolist() for f, a in self.spans.items()},
                "counts": dict(self.counts),
                "errors": dict(self.errors),
                "yields": [[self.names[n], self.names[c] if c >= 0 else None,
                            k] for (n, c), k in self.yields.items()],
                "root_jobs": self.root_jobs,
                "extra": extra or {}}
        with open(path, "w") as fh:
            json.dump(blob, fh)

    def merge(self, path, job_root):
        """Fold a child process's dump in under one of our job roots."""
        with open(path) as fh:
            blob = json.load(fh)
        remap = [self._nid(n) for n in blob["names"]]
        sp, theirs = self.spans, blob["spans"]
        base = len(sp["name"])
        job = sp["job"][job_root]
        for k in range(len(theirs["name"])):
            parent = theirs["parent"][k]
            sp["name"].append(remap[theirs["name"][k]])
            sp["job"].append(job)
            sp["parent"].append(parent + base if parent >= 0 else job_root)
            for f in ("start", "end", "busy", "child"):
                sp[f].append(theirs[f][k])
            if parent < 0:
                sp["child"][job_root] += theirs["busy"][k]
        self.counts.update(blob["counts"])
        self.errors.update(blob["errors"])
        for gen, consumer, k in blob["yields"]:
            self.yields[(self._nid(gen),
                         self._nid(consumer) if consumer else -1)] += k
        return blob["extra"]


def _ratio(num, den):
    return num / den if den else 0.0
