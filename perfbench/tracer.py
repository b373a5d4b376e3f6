"""In-memory span tracer installed around each layer's public entry points.

The tracer patches functions and methods of the ``repro`` package from the
outside; nothing under ``src/`` knows it exists.  Each wrapped call records
one span ``(id, name, start_ns, end_ns, parent, rid)``: ``parent`` is the
enclosing span's id (-1 at the top) and ``rid`` is the id of the outermost
request-boundary span around it (one interpreter run, one gateway request,
one analysis call), or -1 outside any request.

Self time is a span's duration minus the part its child spans cover.  The
process is single-threaded, so children never overlap and that part is the
sum of their durations; the tracer accumulates it online.

Patching rules:

* methods are patched on the class that should be charged, so every call
  site is covered whatever name it was imported under;
* a hardware model's ``step`` is charged to the model only when the
  receiver's type is exactly that model's class: models that extend
  ``PartitionedHardware`` call ``super().step()``, and that inner call is
  part of the outer model's step, not a ``partitioned`` step;
* module-level functions imported by value (``parse``, ``audit_service``,
  ``welch_t``, the analysis entry points) are patched at every binding in
  every loaded ``repro`` module.
"""

from __future__ import annotations

import gzip
import importlib
import itertools
import json
import sys
import time
from array import array
from typing import Any, Callable, Dict, List, Optional, Tuple

from workloads import MODELS

#: Apps that have a gateway handler.
APPS = ("login", "password", "rsa", "sbox", "tag")

#: Span fields as written to the trace file.
FIELDS = ("id", "name", "start_ns", "end_ns", "parent", "rid")


def _command_nodes(program) -> int:
    return sum(1 for _ in program.walk())


class Tracer:
    """Records spans and per-name aggregates while installed."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        #: Per name id: [calls, total_ns, self_ns].
        self.agg: List[List[int]] = []
        #: Counters fed by post-call hooks (steps, nodes, classes, ...).
        self.counts: Dict[str, int] = {}
        self.spans = array("q")
        self._ids = itertools.count()
        # Frames are [span id, child ns, rid]; the root frame never pops.
        self._stack: List[List[int]] = [[-1, 0, -1]]
        self._restore: List[Callable[[], None]] = []
        self.probe_sources: List[Any] = []

    # -- recording -----------------------------------------------------------

    def name_id(self, name: str) -> int:
        found = self._name_ids.get(name)
        if found is None:
            found = self._name_ids[name] = len(self.names)
            self.names.append(name)
            self.agg.append([0, 0, 0])
        return found

    def count(self, key: str, amount: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def wrap(self, fn: Callable, name: Callable[[tuple], str],
             boundary: bool = False,
             post: Optional[Callable[[tuple, Any], None]] = None,
             only_type: Optional[type] = None) -> Callable:
        """``fn`` wrapped in a span; ``name(args)`` names it per call."""
        stack = self._stack
        spans = self.spans
        agg = self.agg
        ids = self._ids
        clock = time.perf_counter_ns
        name_id = self.name_id

        def traced(*args, **kwargs):
            if only_type is not None and type(args[0]) is not only_type:
                return fn(*args, **kwargs)
            nid = name_id(name(args))
            parent = stack[-1]
            sid = next(ids)
            rid = parent[2]
            if rid < 0 and boundary:
                rid = sid
            frame = [sid, 0, rid]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                parent[1] += duration
                spans.extend((sid, nid, start, end, parent[0], rid))
                totals = agg[nid]
                totals[0] += 1
                totals[1] += duration
                totals[2] += duration - frame[1]
            if post is not None:
                post(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- patching ------------------------------------------------------------

    def patch_method(self, cls: type, attr: str, name, original=None,
                     **options) -> None:
        """Replace ``cls.attr`` (own or inherited) with a traced version.

        ``name`` is a span name or a function of the call's arguments;
        ``original`` overrides the function to wrap.
        """
        namer = name if callable(name) else _constant(name)
        had_own = attr in cls.__dict__
        own = cls.__dict__.get(attr)
        if isinstance(own, classmethod):
            setattr(cls, attr,
                    classmethod(self.wrap(own.__func__, namer, **options)))
        else:
            fn = original if original is not None else getattr(cls, attr)
            setattr(cls, attr, self.wrap(fn, namer, **options))

        def restore() -> None:
            if had_own:
                setattr(cls, attr, own)
            else:
                delattr(cls, attr)

        self._restore.append(restore)

    def patch_function(self, module, attr: str, name: str,
                       **options) -> None:
        """Replace ``module.attr`` at every binding in loaded repro modules."""
        original = getattr(module, attr)
        traced = self.wrap(original, _constant(name), **options)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "repro"
                                   or mod_name.startswith("repro.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, traced)
                    self._restore.append(
                        lambda m=mod, k=key: setattr(m, k, original))

    def install(self) -> None:
        """Patch every layer's entry points (see the module docstring)."""
        def module(name: str):
            # ``import_module``: ``repro.analysis`` re-exports functions
            # named like its submodules (``quantify``, ``synthesize``).
            return importlib.import_module(f"repro.{name}")

        campaign = module("adversary.campaign")
        engine = module("adversary.engine")
        cost = module("analysis.cost")
        lint_engine = module("analysis.engine")
        lints = module("analysis.lints")
        quantify = module("analysis.quantify")
        synthesize = module("analysis.synthesize")
        distinguisher = module("attacks.distinguisher")
        registry = module("hardware.registry")
        parser = module("lang.parser")
        Layout = module("machine.layout").Layout
        Interpreter = module("semantics.full").Interpreter
        MitigationState = module("semantics.mitigation").MitigationState
        audit = module("service.audit")
        handlers = module("service.handlers")
        Gateway = module("service.gateway").Gateway
        inference = module("typesystem.inference")
        TypeChecker = module("typesystem.typing").TypeChecker

        lattice = parser.DEFAULT_LATTICE
        # Resolve every model's class and original step before patching any,
        # so a subclass never captures an already-traced parent method.
        models = []
        for spec in registry.REGISTRY:
            cls = type(spec.make(lattice))
            models.append((spec.name, cls, cls.step))
        for model, cls, step in models:
            self.patch_method(cls, "step", f"hardware.{model}.step",
                              original=step, only_type=cls)
        self.patch_method(
            registry.HardwareSpec, "make",
            lambda args: f"hardware.{args[0].name}.construct")
        self.patch_method(Interpreter, "run", "semantics.run", boundary=True,
                          post=self._after_run)
        self.patch_method(MitigationState, "settle", "semantics.settle")
        self.patch_method(Layout, "build", "machine.layout_build")
        self.patch_method(Gateway, "__init__", "service.gateway.construct")
        self.patch_method(Gateway, "serve", "service.gateway.serve",
                          post=self._after_serve)
        for app, cls in handlers.HANDLERS.items():
            self.patch_method(cls, "run", f"service.handler.{app}",
                              boundary=True)
        self.patch_method(TypeChecker, "run", "typesystem.typecheck",
                          post=self._nodes("typesystem.typecheck", 1))
        self.patch_method(engine.ProbeSource, "initial",
                          "adversary.probe_source.initial",
                          post=self._remember_source)
        self.patch_function(parser, "parse", "lang.parse",
                            post=self._parsed)
        self.patch_function(inference, "infer_labels", "typesystem.infer",
                            post=self._nodes("typesystem.infer", 0))
        self.patch_function(audit, "audit_service", "service.audit")
        self.patch_function(distinguisher, "welch_t", "attacks.welch")
        self.patch_function(campaign, "run_cell", "adversary.cell",
                            post=self._after_cell)
        self.patch_function(lint_engine, "analyze_source", "analysis.analyze",
                            boundary=True)
        self.patch_function(lints, "run_lints", "analysis.lint")
        self.patch_function(cost, "compute_cost", "analysis.cost",
                            boundary=True,
                            post=self._nodes("analysis.cost", 0))
        self.patch_function(quantify, "quantify", "analysis.quantify",
                            post=self._after_quantify)
        self.patch_function(synthesize, "synthesize", "analysis.synthesize",
                            boundary=True, post=self._after_synthesize)

    def uninstall(self) -> None:
        while self._restore:
            self._restore.pop()()

    # -- post-call hooks (outside the span, charged to the caller) -----------

    def _after_run(self, args, result) -> None:
        self.count("semantics.steps", result.steps)

    def _after_serve(self, args, result) -> None:
        for response in result.responses:
            self.count(f"service.{response.status}")
        self.count("service.retries", result.retries)

    def _after_cell(self, args, result) -> None:
        self.count("adversary.probes", result.probes)

    def _remember_source(self, args, result) -> None:
        self.probe_sources.append(args[0])

    def _parsed(self, args, result) -> None:
        self.count("lang.parse.nodes", _command_nodes(result))

    def _after_quantify(self, args, result) -> None:
        self.count("analysis.quantify.classes", result.classes)

    def _after_synthesize(self, args, result) -> None:
        self.count("analysis.synthesize.explored", result.explored)
        self.count("analysis.synthesize.pruned", result.pruned)

    def _nodes(self, name: str, index: int):
        def hook(args, result) -> None:
            self.count(f"{name}.nodes", _command_nodes(args[index]))
        return hook

    # -- reading -------------------------------------------------------------

    def settle_sources(self) -> None:
        """Fold finished probe sources into the probe counters."""
        for source in self.probe_sources:
            self.count("adversary.source_probes", source.probes_sent)
            self.count("adversary.source_warmup", source.warmup_discarded)
        self.probe_sources.clear()

    def snapshot(self) -> Dict[str, int]:
        """Every count so far: span calls per name plus hook counters."""
        out = {f"{name}.calls": self.agg[i][0]
               for i, name in enumerate(self.names)}
        out.update(self.counts)
        return out

    def totals(self, name: str) -> Tuple[int, int, int]:
        """``(calls, total_ns, self_ns)`` for one span name."""
        nid = self._name_ids.get(name)
        return tuple(self.agg[nid]) if nid is not None else (0, 0, 0)

    def write(self, path: str) -> None:
        """Write every span, gzip-compressed JSON, to ``path``."""
        width = len(FIELDS)
        rows = [list(self.spans[i:i + width])
                for i in range(0, len(self.spans), width)]
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            json.dump({"fields": list(FIELDS), "names": self.names,
                       "spans": rows}, handle, separators=(",", ":"))


def _constant(name: str) -> Callable[[tuple], str]:
    return lambda args: name


def layer_metrics(tracer: Tracer, per_job: Dict[str, int]) -> Dict[str, Any]:
    """The per-layer metrics from a traced run.

    ``per_job`` holds the counts of one traced job repeat (exact: every
    repeat gives the same counts).  Times are averaged over every traced
    repeat.  Returns ``{name: value}``; a rate with nothing to divide by is
    0 and its reason is listed under the ``absent`` key.
    """
    out: Dict[str, Any] = {}
    absent: Dict[str, str] = {}

    def per(metric: str, span: str, units: int, self_time: bool = False,
            why: str = "") -> None:
        calls, total, own = tracer.totals(span)
        if units:
            out[metric] = (own if self_time else total) / units
        else:
            out[metric] = 0
            absent[metric] = why or f"no {span} calls on this workload"

    def job(key: str) -> int:
        return per_job.get(key, 0)

    def calls(span: str) -> int:
        return tracer.totals(span)[0]

    def total_count(key: str) -> int:
        return tracer.counts.get(key, 0)

    out["lang.parse.calls"] = job("lang.parse.calls")
    per("lang.parse.ns_per_node", "lang.parse", total_count("lang.parse.nodes"))
    per("typesystem.infer.ns_per_node", "typesystem.infer",
        total_count("typesystem.infer.nodes"))
    per("typesystem.typecheck.ns_per_node", "typesystem.typecheck",
        total_count("typesystem.typecheck.nodes"))
    out["machine.layout_build.calls"] = job("machine.layout_build.calls")
    per("machine.layout_build.ns_per_call", "machine.layout_build",
        calls("machine.layout_build"))
    out["hardware.construct.calls"] = sum(
        job(f"hardware.{m}.construct.calls") for m in MODELS)
    for model in MODELS:
        per(f"hardware.{model}.construct_ns", f"hardware.{model}.construct",
            calls(f"hardware.{model}.construct"))
    for model in MODELS:
        out[f"hardware.{model}.steps"] = job(f"hardware.{model}.step.calls")
    for model in MODELS:
        per(f"hardware.{model}.ns_per_step", f"hardware.{model}.step",
            calls(f"hardware.{model}.step"))
    out["semantics.steps"] = job("semantics.steps")
    per("semantics.interp.self_ns_per_step", "semantics.run",
        total_count("semantics.steps"), self_time=True)
    out["semantics.settle.calls"] = job("semantics.settle.calls")
    per("semantics.settle.ns_per_call", "semantics.settle",
        calls("semantics.settle"))
    per("service.gateway.construct_ns", "service.gateway.construct",
        calls("service.gateway.construct"))
    requests = sum(total_count(f"service.{status}")
                   for status in ("ok", "rejected", "timeout"))
    per("service.gateway.self_ns_per_request", "service.gateway.serve",
        requests, self_time=True)
    for app in APPS:
        out[f"service.handler.{app}.requests"] = job(
            f"service.handler.{app}.calls")
        per(f"service.handler.{app}.ns_per_request",
            f"service.handler.{app}", calls(f"service.handler.{app}"))
    per("service.audit.ns", "service.audit", calls("service.audit"))
    out["service.completed"] = job("service.ok")
    out["service.rejected"] = job("service.rejected")
    out["service.timed_out"] = job("service.timeout")
    out["service.retries"] = job("service.retries")
    per("adversary.cell.self_ns", "adversary.cell", calls("adversary.cell"),
        self_time=True)
    out["adversary.probes"] = job("adversary.probes")
    sent = total_count("adversary.source_probes")
    if sent:
        out["adversary.useful_probe_frac"] = (
            sent - total_count("adversary.source_warmup")) / sent
    else:
        out["adversary.useful_probe_frac"] = 0
        absent["adversary.useful_probe_frac"] = "no probe sources ran"
    out["attacks.welch.calls"] = job("attacks.welch.calls")
    per("attacks.welch.ns_per_call", "attacks.welch", calls("attacks.welch"))
    per("analysis.lint.ns_per_program", "analysis.lint",
        calls("analysis.lint"))
    per("analysis.cost.ns_per_node", "analysis.cost",
        total_count("analysis.cost.nodes"))
    out["analysis.quantify.calls"] = job("analysis.quantify.calls")
    per("analysis.quantify.ns_per_call", "analysis.quantify",
        calls("analysis.quantify"))
    out["analysis.quantify.classes"] = job("analysis.quantify.classes")
    out["analysis.synthesize.explored"] = job("analysis.synthesize.explored")
    considered = (total_count("analysis.synthesize.explored")
                  + total_count("analysis.synthesize.pruned"))
    if considered:
        out["analysis.synthesize.pruned_frac"] = (
            total_count("analysis.synthesize.pruned") / considered)
    else:
        out["analysis.synthesize.pruned_frac"] = 0
        absent["analysis.synthesize.pruned_frac"] = "no synthesize calls"
    per("analysis.synthesize.ns", "analysis.synthesize",
        calls("analysis.synthesize"))
    out["absent"] = absent
    return out
