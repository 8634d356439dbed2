"""Span tracing of gentlehh layers from outside the library.

Each entry of LAYERS names a function that one gentlehh module calls in
another, by the attribute the caller looks it up under.  While a Tracer
is active that attribute holds a wrapper recording one span per call:
name, parent span, start, end, and a small detail taken from the
arguments or the result.  Leaving the Tracer puts every original back.
No library file is edited.
"""

import importlib
import time

from workloads import census


def _size(args, kwargs, result):
    return len(result)


def _degree_size(args, kwargs, result):
    return (args[1] if len(args) > 1 else kwargs["n"], len(result))


def _keep(args, kwargs, result):
    return result


def _instance(args, kwargs, result):
    return args[0] if args else kwargs["surface"], result.characteristic


def _rank(caller, char_pos):
    def detail(args, kwargs, result):
        return caller, args[char_pos] if len(args) > char_pos else kwargs["char"]
    return detail


# (module, attribute the caller looks up, span name, detail)
LAYERS = (
    ("gentlehh.fileformat", "load_file", "fileformat.load_file", None),
    ("gentlehh.cli", "build_surface", "surface.build_surface", None),
    ("gentlehh.corpus", "build_surface", "surface.build_surface", None),
    ("gentlehh.corpus", "generate_polygon_triangulations",
     "corpus.generate_polygon_triangulations", None),
    ("gentlehh.report", "analyze", "report.analyze", _instance),
    ("gentlehh.report", "render_json", "report.render_json", None),
    ("gentlehh.report", "build_quiver", "quiver.build_quiver", None),
    ("gentlehh.quiver", "enumerate_basis", "quiver.enumerate_basis", _size),
    ("gentlehh.report", "hh_dims_geometric", "geometric.hh_dims_geometric", None),
    ("gentlehh.report", "ag_invariant", "ag.ag_invariant", None),
    ("gentlehh.report", "hh_dims_ladkani", "ag.hh_dims_ladkani", None),
    ("gentlehh.report", "hh_dims_rr", "pairs.hh_dims_rr", None),
    ("gentlehh.pairs", "rr_sets", "pairs.rr_sets", None),
    ("gentlehh.pairs", "ap_paths", "pairs.ap_paths", _degree_size),
    ("gentlehh.pairs", "coinvariant_dim", "pairs.coinvariant_dim", None),
    ("gentlehh.pairs", "rank", "linalg.rank", _rank("coinvariant", 1)),
    ("gentlehh.report", "build_complex", "cochain.build_complex", _keep),
    ("gentlehh.cochain", "ap_paths", "pairs.ap_paths", _degree_size),
    ("gentlehh.cochain", "verify_complex_property",
     "cochain.verify_complex_property", None),
    ("gentlehh.report", "hh_dims_oracle", "cochain.hh_dims_oracle", None),
    ("gentlehh.cochain", "rank", "linalg.rank", _rank("oracle", 1)),
    ("gentlehh.cochain", "nullity", "linalg.rank", _rank("oracle", 2)),
)

ANALYZE = "report.analyze"


class Patches:
    """Replaces module attributes and restores them, last in first out."""

    def __init__(self):
        self._saved = []

    def replace(self, module_name, attribute, make_wrapper) -> bool:
        """Wrap ``module.attribute``; False when the module has no such name."""
        module = importlib.import_module(module_name)
        original = getattr(module, attribute, None)
        if original is None:
            return False
        self._saved.append((module, attribute, original))
        setattr(module, attribute, make_wrapper(original))
        return True

    def restore(self):
        while self._saved:
            module, attribute, original = self._saved.pop()
            setattr(module, attribute, original)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.restore()
        return False


class Tracer(Patches):
    """Records spans of every LAYERS call while entered.

    ``spans`` holds [name, parent index or -1, start, end, detail] in call
    order, so a parent always precedes its children.  ``missing`` lists
    the LAYERS names the library no longer has; their layers read 0 calls.
    """

    def __init__(self):
        super().__init__()
        self.spans = []
        self.missing = []
        self._stack = []

    def __enter__(self):
        try:
            for module_name, attribute, name, detail in LAYERS:
                if not self.replace(module_name, attribute,
                                    lambda original, n=name, d=detail:
                                    self._wrap(original, n, d)):
                    self.missing.append("%s.%s" % (module_name, attribute))
        except BaseException:
            self.restore()
            raise
        return self

    def _wrap(self, original, name, detail):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            span = [name, stack[-1] if stack else -1, 0.0, 0.0, None]
            stack.append(len(spans))
            spans.append(span)
            span[2] = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
            if detail is not None:
                try:
                    span[4] = detail(args, kwargs, result)
                except (IndexError, KeyError, TypeError, AttributeError):
                    pass  # a changed signature loses the detail, not the call
            return result
        return wrapper


def _complex_sizes(complex_):
    """Cochains per degree and nonzeros per D_n of the seed's dense
    list-of-rows complex; None for any other representation."""
    try:
        return ([len(b) for b in complex_.bases],
                [sum(1 for row in m for x in row if x)
                 for m in complex_.differentials[1:]])
    except (AttributeError, TypeError):
        return None


def surface_census(surface) -> dict:
    return census([[(s.kind, s.label) for s in tri.sides]
                   for tri in surface.triangles])


def summarize(spans) -> dict:
    """Per-layer totals and per-instance records of one traced pass.

    Self time is a span's duration minus the durations of its direct
    children; spans are strictly nested because the run is single
    threaded.  ``linalg.rank`` is split by characteristic and by caller
    (``oracle`` from cochain, ``coinvariant`` from pairs).  An instance is
    one report.analyze call, a (surface, characteristic) pair.
    """
    child_time = [0.0] * len(spans)
    owner = [-1] * len(spans)      # enclosing report.analyze span
    for i, (name, parent, start, end, _) in enumerate(spans):
        if parent >= 0:
            child_time[parent] += end - start
            owner[i] = owner[parent]
        if name == ANALYZE:
            owner[i] = i

    layers, instances = {}, {}
    sizes = {"quiver.basis_size": 0, "pairs.ap_size": 0, "cochain.cochains": 0,
             "cochain.nonzeros": 0, "cochain.candidates": 0}
    ap_of_complex, complexes = {}, []

    def add(table, key, self_s):
        entry = table.setdefault(key, {"calls": 0, "self_s": 0.0})
        entry["calls"] += 1
        entry["self_s"] += self_s

    for i, (name, parent, start, end, detail) in enumerate(spans):
        keys = [name]
        if name == "linalg.rank" and detail:
            caller, char = detail
            keys = ["%s.char%d" % (name, char), "%s.char%d.%s" % (name, char, caller)]
        inst = owner[i]
        if name == ANALYZE:
            record = {"name": None, "char": None, "ap": {}, "layers": {}}
            if detail:
                surface, char = detail
                record.update(name=surface.name, char=char, **surface_census(surface))
            instances[i] = record
        for key in keys:
            add(layers, key, end - start - child_time[i])
            if inst >= 0:
                add(instances[inst]["layers"], key, end - start - child_time[i])
        if name == "quiver.enumerate_basis" and detail:
            sizes["quiver.basis_size"] += detail
        elif name == "pairs.ap_paths" and detail:
            degree, count = detail
            sizes["pairs.ap_size"] += count
            if inst >= 0:
                instances[inst]["ap"][degree] = count
            if parent >= 0 and spans[parent][0] == "cochain.build_complex":
                ap_of_complex.setdefault(parent, {})[degree] = count
        elif name == "cochain.build_complex":
            complexes.append((i, inst, _complex_sizes(detail)))
    # after the loop: a complex's ap_paths spans follow its own span
    for i, inst, counted in complexes:
        if counted is None:
            continue
        cochains, nonzeros = counted
        ap = ap_of_complex.get(i, {})
        sizes["cochain.cochains"] += sum(cochains)
        sizes["cochain.nonzeros"] += sum(nonzeros)
        sizes["cochain.candidates"] += sum(cochains[n - 1] * ap.get(n, 0)
                                           for n in range(1, len(cochains)))
        if inst >= 0:
            instances[inst].update(cochains=cochains, nonzeros=nonzeros)
    for record in instances.values():
        record["ap"] = [record["ap"][n] for n in sorted(record["ap"])]
    return {"layers": layers, "sizes": sizes,
            "instances": [instances[k] for k in sorted(instances)]}
