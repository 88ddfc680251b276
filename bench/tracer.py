"""Alias-aware tracing of the quasidet modules, installed from outside the
program.

``Tracer.install`` wraps the public functions of every loaded
``quasidet.*`` module, plus the methods that carry the scalar, inverse,
draw and serialization layers, and then rebinds every name that refers
to an original: module globals (including names imported with
``from .x import f``), class attributes, and the entries and attributes
of module-level containers such as ``catalog.CATALOG`` (whose
descriptors hold the check functions).  ``uninstall`` puts every binding
back.  Nothing in ``src/`` changes.

Each wrapped call is timed; its self time is its duration minus the
part covered by wrapped calls beneath it, so the self times of all
layers partition the time of the top-level (root) calls.  Calls above
scalar arithmetic are also kept as spans (id, parent, name, variant,
start, end, outcome) in memory and written out at the end.  Scalar
arithmetic, polynomial helpers and scalar (de)serialization are counted
and timed in aggregate only: one span per scalar multiply would hold
millions of records.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import pkgutil
import sys
import time

PKG = "quasidet"

DRAW_METHODS = (
    "scalar",
    "invertible_scalar",
    "matrix",
    "invertible_matrix",
    "assignment",
    "int_range",
    "choice",
    "subset",
    "permutation",
)

# Methods wrapped in addition to the public module-level functions.
METHODS = (
    ("rings", "MatScalar", ("__init__", "__mul__", "__add__", "__sub__", "__neg__")),
    ("rings", "SeriesElement", ("__mul__", "__add__", "__sub__", "__neg__")),
    ("rings", "TruncatedSeriesRing", ("try_invert", "serialize", "deserialize")),
    ("rings", "QRat", ("__add__", "__sub__", "__neg__", "__mul__", "__eq__")),
    ("rings", "Rationals", ("serialize", "deserialize")),
    ("rings", "SquareMatrices", ("serialize", "deserialize")),
    ("rings", "QRationalFunctions", ("serialize", "deserialize")),
    ("matrix", "MatrixRing", ("serialize", "deserialize")),
    ("matrix", "NcMatrix", ("inverse", "__mul__", "serialize", "deserialize")),
    ("sampling", "Draw", DRAW_METHODS),
    ("sampling", "ReplayDraw", DRAW_METHODS),
)

# Sites counted without timing: constructors run inside every scalar op.
COUNT_ONLY = {"rings.MatScalar.__init__"}

# Functions other modules import by name; install checks each of these
# explicitly, on top of the generic scan.
NAMED_ALIASES = (
    ("matrix", "invert_rational"),
    ("catalog", "det_bareiss"),
    ("catalog", "rational_rank"),
    ("pluecker", "right_kernel"),
    ("catalog", "qdet"),
    ("pluecker", "qdet"),
    ("symmfn", "qdet"),
    ("contfrac", "qdet"),
    ("cli", "qdet"),
)

STAT_FIELDS = ("calls", "self_s", "total_s", "domain_errors", "domain_error_s")


def _bucket(n: int) -> str:
    if n <= 4:
        return "n_le4"
    if n <= 9:
        return "n5_9"
    if n <= 18:
        return "n10_18"
    return "n_gt18"


class Site:
    """One wrapped callable: its metric name, how calls split into
    variants, and whether calls are kept as spans."""

    __slots__ = ("name", "variant", "span")

    def __init__(self, name, variant=None, span=True):
        self.name = name
        self.variant = variant
        self.span = span


def _modules() -> dict:
    return {
        name: mod
        for name, mod in sorted(sys.modules.items())
        if mod is not None and (name == PKG or name.startswith(PKG + "."))
    }


def _short(modname: str) -> str:
    return modname[len(PKG) + 1 :] if modname != PKG else PKG


def _unwrap_raw(raw):
    if isinstance(raw, (classmethod, staticmethod)):
        return raw.__func__
    return raw


def _rewrap_raw(raw, func):
    if isinstance(raw, classmethod):
        return classmethod(func)
    if isinstance(raw, staticmethod):
        return staticmethod(func)
    return func


def _locations():
    """Every place in the quasidet modules that can hold a callable:
    (description, setter, raw value)."""
    for modname, mod in _modules().items():
        for name, value in list(vars(mod).items()):
            yield f"{modname}.{name}", functools.partial(setattr, mod, name), value
            if isinstance(value, type) and value.__module__.startswith(PKG):
                # a class re-exported by several modules is scanned from
                # each; rebinding is idempotent
                for attr, raw in list(vars(value).items()):
                    yield (
                        f"{modname}.{name}.{attr}",
                        functools.partial(setattr, value, attr),
                        raw,
                    )
            elif _is_pkg_instance(value):
                yield from _attr_locations(f"{modname}.{name}", value)
            elif isinstance(value, list):
                for i, item in enumerate(value):
                    yield from _item_locations(f"{modname}.{name}[{i}]", value, i, item)
            elif isinstance(value, dict) and not name.startswith("__"):
                for key, item in list(value.items()):
                    yield from _item_locations(f"{modname}.{name}[{key!r}]", value, key, item)


def _is_pkg_instance(obj) -> bool:
    return (
        not isinstance(obj, type)
        and type(obj).__module__.startswith(PKG)
        and hasattr(obj, "__dict__")
    )


def _attr_locations(where, obj):
    for attr, value in list(vars(obj).items()):
        yield f"{where}.{attr}", functools.partial(setattr, obj, attr), value


def _item_locations(where, container, key, item):
    yield where, functools.partial(container.__setitem__, key), item
    if _is_pkg_instance(item):
        yield from _attr_locations(where, item)


class Tracer:
    def __init__(self):
        self.stats: dict = {}
        self.counts: dict = {}
        self.spans: list = []
        self.distinct_errors: dict = {}
        self.singular_results = 0
        self._last_error: dict = {}
        self._stack = [[0.0, 0]]
        self._next_sid = 0
        self._t0 = time.perf_counter()
        self._originals: dict = {}
        self._wrappers: dict = {}
        self._bindings: list = []
        self.installed_problems: list = []

    # -- site discovery ---------------------------------------------------

    def _site(self, short: str, qualname: str, func, check_idents: dict) -> Site:
        name = f"{short}.{qualname}"
        if id(func) in check_idents:
            ident = check_idents[id(func)]
            return Site("catalog.check", lambda a, k: f"{ident} n={a[0].n} d={a[0].d}")
        if name == "rings.MatScalar.__mul__":
            return Site(name, lambda a, k: f"d{a[0].d}", span=False)
        if name == "matrix.NcMatrix.inverse":
            return Site(name, self._inverse_strategy)
        if name == "exactlin.invert_rational":
            return Site(name, lambda a, k: _bucket(len(a[0])))
        if name == "qdet.qdet":
            return Site(name, _qdet_route)
        # everything in rings is scalar-level: aggregate only
        return Site(name, span=short != "rings")

    def _inverse_strategy(self, args, kwargs):
        ring = args[0].ring
        if ring.flat_dim is not None:
            return "flat"
        if isinstance(ring, self._series_ring):
            return "series"
        return "elimination"

    def _discover(self):
        package = importlib.import_module(PKG)
        for info in pkgutil.iter_modules(package.__path__):
            importlib.import_module(f"{PKG}.{info.name}")
        mods = _modules()
        catalog = mods[PKG + ".catalog"]
        rings = mods[PKG + ".rings"]
        self._domain_error = rings.DomainError
        self._series_ring = rings.TruncatedSeriesRing
        check_idents = {}
        for desc in catalog.CATALOG:
            check_idents.setdefault(id(desc.check), desc.ident)
        targets = []
        for modname, mod in mods.items():
            if modname == PKG:
                continue
            short = _short(modname)
            for name, obj in vars(mod).items():
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == modname
                    and not name.startswith("_")
                ):
                    targets.append((short, name, obj))
        # some checks are lambdas around a shared public helper
        targets += [("catalog", desc.check.__qualname__, desc.check) for desc in catalog.CATALOG]
        for short, cls_name, names in METHODS:
            cls = getattr(mods[f"{PKG}.{short}"], cls_name)
            for name in names:
                func = _unwrap_raw(vars(cls)[name])
                targets.append((short, func.__qualname__, func))
        for short, qualname, func in targets:
            if id(func) in self._originals:
                continue
            site = self._site(short, qualname, func, check_idents)
            self._originals[id(func)] = func
            self._wrappers[id(func)] = self._wrap(func, site)

    # -- wrapping ---------------------------------------------------------

    def _wrap(self, orig, site: Site):
        name = site.name
        if name in COUNT_ONLY:
            counts = self.counts
            counts[name] = 0

            @functools.wraps(orig)
            def counted(*args, **kwargs):
                counts[name] += 1
                return orig(*args, **kwargs)

            counted.__bench_wrapped__ = True
            return counted

        stats = self.stats
        stack = self._stack
        spans = self.spans
        clock = time.perf_counter
        variant_of = site.variant
        keep = site.span
        domain_error = self._domain_error
        singular_site = name == "exactlin.invert_rational"
        distinct_site = name in ("qdet.qdet", "matrix.NcMatrix.inverse")
        tracer = self

        def close(frame, parent, variant, t0, t1, error):
            dur = t1 - t0
            parent[0] += dur
            rec = stats.get((name, variant))
            if rec is None:
                rec = stats[(name, variant)] = [0, 0.0, 0.0, 0, 0.0]
            rec[0] += 1
            rec[1] += dur - frame[0]
            rec[2] += dur
            outcome = "ok"
            if error is not None:
                outcome = type(error).__name__
                if isinstance(error, domain_error):
                    rec[3] += 1
                    rec[4] += dur
                    if distinct_site and tracer._last_error.get(name) is not error:
                        tracer._last_error[name] = error
                        tracer.distinct_errors[name] = (
                            tracer.distinct_errors.get(name, 0) + 1
                        )
            if keep:
                spans.append(
                    (frame[1], parent[1], name, variant, t0 - tracer._t0, t1 - tracer._t0, outcome)
                )

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            variant = variant_of(args, kwargs) if variant_of is not None else None
            parent = stack[-1]
            if keep:
                tracer._next_sid += 1
                frame = [0.0, tracer._next_sid]
            else:
                frame = [0.0, parent[1]]
            stack.append(frame)
            t0 = clock()
            try:
                result = orig(*args, **kwargs)
            except BaseException as exc:
                t1 = clock()
                stack.pop()
                close(frame, parent, variant, t0, t1, exc)
                raise
            t1 = clock()
            stack.pop()
            close(frame, parent, variant, t0, t1, None)
            if singular_site and result is None:
                tracer.singular_results += 1
            return result

        wrapper.__bench_wrapped__ = True
        return wrapper

    # -- install / uninstall ---------------------------------------------

    def install(self):
        """Wrap and rebind; record in ``installed_problems`` any binding
        that still holds an unwrapped original."""
        self._discover()
        for where, setter, raw in _locations():
            func = _unwrap_raw(raw)
            if self._is_original(func):
                setter(_rewrap_raw(raw, self._wrappers[id(func)]))
                self._bindings.append((where, setter, raw))
        self.installed_problems = self.unwrapped_originals()
        mods = _modules()
        for short, name in NAMED_ALIASES:
            value = getattr(mods[f"{PKG}.{short}"], name)
            if not getattr(value, "__bench_wrapped__", False):
                self.installed_problems.append(f"{PKG}.{short}.{name} is not wrapped")
        for desc in mods[f"{PKG}.catalog"].CATALOG:
            if not getattr(desc.check, "__bench_wrapped__", False):
                self.installed_problems.append(f"the check of {desc.ident} is not wrapped")

    def uninstall(self) -> list:
        """Restore every binding; return the problems found afterwards."""
        for _where, setter, raw in reversed(self._bindings):
            setter(raw)
        problems = []
        now = {}
        for where, _setter, raw in _locations():
            now.setdefault(where, raw)
            if getattr(_unwrap_raw(raw), "__bench_wrapped__", False):
                problems.append(f"{where} still holds a wrapper")
        for where, _setter, raw in self._bindings:
            if now.get(where) is not raw:
                problems.append(f"{where} does not hold its original")
        return problems

    def _is_original(self, obj) -> bool:
        return id(obj) in self._originals and self._originals[id(obj)] is obj

    def unwrapped_originals(self) -> list:
        return [
            where
            for where, _setter, raw in _locations()
            if self._is_original(_unwrap_raw(raw))
        ]

    @property
    def binding_count(self) -> int:
        return len(self._bindings)

    def reset_clock(self):
        self._t0 = time.perf_counter()

    # -- aggregation ------------------------------------------------------

    def _sum(self, field: int, pred) -> float:
        return sum(rec[field] for (name, variant), rec in self.stats.items() if pred(name, variant))

    def calls(self, pred) -> int:
        return int(self._sum(0, pred))

    def self_s(self, pred) -> float:
        return self._sum(1, pred)

    def root_span_s(self) -> float:
        return sum(end - start for _sid, parent, _n, _v, start, end, _o in self.spans if parent == 0)

    def top_check_span_s(self) -> float:
        """Time in check spans that have no check span above them."""
        parent_of = {sid: (parent, name) for sid, parent, name, _v, _s, _e, _o in self.spans}
        total = 0.0
        for _sid, parent, name, _v, start, end, _o in self.spans:
            if name != "catalog.check":
                continue
            while parent and parent_of[parent][1] != "catalog.check":
                parent = parent_of[parent][0]
            if not parent:
                total += end - start
        return total

    def layer_metrics(self) -> dict:
        """The per-layer metrics of BENCHMARK.json, except the harness
        report counts and the trace.* figures, which the caller adds."""

        def named(*names):
            return lambda n, v: n in names

        def prefixed(*prefixes):
            return lambda n, v: n.startswith(prefixes)

        m = {}

        def put(key, value, unit):
            m[key] = (value, unit)

        put("harness.write_report.s", self.self_s(named("harness.write_report")), "s")
        put("harness.load_report.s", self.self_s(named("harness.load_report")), "s")
        put(
            "harness.replay.s",
            self.self_s(named("harness.replay_from_report", "harness.replay_counterexample")),
            "s",
        )
        check = named("catalog.check")
        put("catalog.check.calls", self.calls(check), "count")
        put("catalog.check.self_s", self.self_s(prefixed("catalog.")), "s")
        put("catalog.check.wasted_s", self._sum(4, check), "s")
        put("sampling.draw.calls", self.calls(prefixed("sampling.Draw.")), "count")
        put("sampling.draw.s", self.self_s(prefixed("sampling.Draw.", "sampling.sample_")), "s")
        put("sampling.replay.s", self.self_s(prefixed("sampling.ReplayDraw.")), "s")
        put("sampling.substream.s", self.self_s(named("sampling.substream")), "s")
        qd = named("qdet.qdet")
        put("qdet.qdet.calls", self.calls(qd), "count")
        put("qdet.qdet.self_s", self.self_s(qd), "s")
        for route in ("minor_inverse", "recursive"):
            put(
                f"qdet.route.{route}.calls",
                self.calls(lambda n, v, r=route: n == "qdet.qdet" and v == r),
                "count",
            )
        put("qdet.cayley_hamilton.s", self.self_s(named("qdet.cayley_hamilton")), "s")
        put("qdet.domain_errors", self.distinct_errors.get("qdet.qdet", 0), "count")
        for strategy in ("flat", "series", "elimination"):
            pred = lambda n, v, s=strategy: n == "matrix.NcMatrix.inverse" and v == s
            put(f"matrix.inverse.{strategy}.calls", self.calls(pred), "count")
            put(f"matrix.inverse.{strategy}.s", self.self_s(pred), "s")
        put("matrix.inverse.singular", self.distinct_errors.get("matrix.NcMatrix.inverse", 0), "count")
        mul = named("matrix.NcMatrix.__mul__")
        put("matrix.mul.calls", self.calls(mul), "count")
        put("matrix.mul.s", self.self_s(mul), "s")
        for bucket in ("n_le4", "n5_9", "n10_18", "n_gt18"):
            pred = lambda n, v, b=bucket: n == "exactlin.invert_rational" and v == b
            put(f"exactlin.invert_rational.calls.{bucket}", self.calls(pred), "count")
            put(f"exactlin.invert_rational.s.{bucket}", self.self_s(pred), "s")
        put("exactlin.invert_rational.singular", self.singular_results, "count")
        put("exactlin.det_bareiss.s", self.self_s(named("exactlin.det_bareiss")), "s")
        put(
            "exactlin.rank_kernel.s",
            self.self_s(named("exactlin.rational_rank", "exactlin.right_kernel")),
            "s",
        )
        for d in ("d1", "d2", "d3"):
            put(
                f"rings.matscalar.mul.calls.{d}",
                self.calls(lambda n, v, d=d: n == "rings.MatScalar.__mul__" and v == d),
                "count",
            )
        put("rings.matscalar.mul.s", self.self_s(named("rings.MatScalar.__mul__")), "s")
        put("rings.matscalar.new.calls", self.counts.get("rings.MatScalar.__init__", 0), "count")
        for op, site in (("mul", "rings.SeriesElement.__mul__"), ("try_invert", "rings.TruncatedSeriesRing.try_invert")):
            put(f"rings.series.{op}.calls", self.calls(named(site)), "count")
            put(f"rings.series.{op}.s", self.self_s(named(site)), "s")
        put("rings.qrat.ops.calls", self.calls(prefixed("rings.QRat.")), "count")
        put("rings.qrat.ops.s", self.self_s(prefixed("rings.QRat.", "rings.poly_")), "s")
        ser = lambda n, v: n.endswith(".serialize")
        put("rings.serialize.calls", self.calls(ser), "count")
        put(
            "rings.serialize.s",
            self.self_s(lambda n, v: ser(n, v) or n == "rings.format_fraction"),
            "s",
        )
        put(
            "rings.deserialize.s",
            self.self_s(lambda n, v: n.endswith(".deserialize") or n == "rings.ring_from_spec"),
            "s",
        )
        for mod in ("pluecker", "symmfn", "contfrac"):
            put(f"{mod}.self_s", self.self_s(prefixed(mod + ".")), "s")
        put("formula.evaluate.s", self.self_s(named("formula.evaluate")), "s")
        return m

    def layer_shares(self, wall_s: float) -> dict:
        """Self time per layer as a share of ``wall_s``."""
        groups = (
            ("rings.matscalar", ("rings.MatScalar.",)),
            ("rings.series", ("rings.SeriesElement.", "rings.TruncatedSeriesRing.try_invert")),
            ("rings.qrat", ("rings.QRat.", "rings.poly_")),
        )
        shares: dict = {}
        for (name, variant), rec in self.stats.items():
            layer = name.split(".")[0]
            for group, prefixes in groups:
                if name.startswith(prefixes):
                    layer = group
                    break
            else:
                if name.endswith((".serialize", ".deserialize")) or name in (
                    "rings.format_fraction",
                    "rings.ring_from_spec",
                ):
                    layer = "serialization"
                elif name.startswith("sampling.ReplayDraw."):
                    layer = "sampling.replay"
            shares[layer] = shares.get(layer, 0.0) + rec[1]
        return {k: v / wall_s for k, v in sorted(shares.items(), key=lambda kv: -kv[1])}

    def cells(self) -> list:
        """Per-(identity, cell) check time, calls and DomainError cost."""
        rows = []
        for (name, variant), rec in sorted(self.stats.items(), key=lambda kv: str(kv[0][1])):
            if name == "catalog.check":
                rows.append({"cell": variant, **dict(zip(STAT_FIELDS, rec))})
        return rows

    def layers(self) -> list:
        return [
            {"name": name, "variant": variant, **dict(zip(STAT_FIELDS, rec))}
            for (name, variant), rec in sorted(self.stats.items(), key=lambda kv: -kv[1][1])
        ] + [{"name": name, "calls": n} for name, n in self.counts.items()]


def _qdet_route(args, kwargs):
    method = kwargs.get("method", args[3] if len(args) > 3 else "auto")
    return "recursive" if method == "recursive" else "minor_inverse"
