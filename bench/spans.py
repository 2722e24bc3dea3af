"""Span tracing installed from outside the library.

``Tracer.install`` rebinds the names each caller looks up, so no file under
``src/`` is edited.  Three lookups need care:

* names imported with ``from .x import y`` are rebound in the importing
  module (``closure.check_prop_proof``, ``closure.verify_model``,
  ``model.verify_model``, ...), because that is where the caller finds them;
* ``trancl_mapping`` is reached through ``closure._CLOSURE_ALGORITHMS``, so
  the dictionary entry is replaced, not the module attribute;
* recursive functions that call themselves through the rebound name
  (``contr_fm_prf``, ``serialize_cert``) open a span only at the outermost
  call.

Spans are kept in memory as ``[id, parent, root, name, start, end]`` lists
and can be written out at exit.  A layer's self time is the duration of its
spans minus the part covered by their children.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import defaultdict
from typing import Callable

# Span name -> per-layer metric that receives its self time.  Spans named
# ``op.*`` are the benchmark's own operations; ``bench.count`` covers
# bookkeeping done inside a traced call and is reported nowhere.
LAYER_OF_SPAN = {
    "cli.parse_input": "cli.parse_input.ms",
    "cli.format_model": "cli.format_model.ms",
    "rewrite.amap_fm": "rewrite.ms",
    "rewrite.amap_fm_prf": "rewrite.ms",
    "rewrite.to_dnf": "rewrite.ms",
    "closure.decide": "closure.search.ms",
    "closure.preprocess": "closure.search.ms",
    "closure.contr_fm_prf": "closure.search.ms",
    "closure.contr_list": "closure.search.ms",
    "closure.trancl": "closure.trancl.ms",
    "certs.selfcheck": "certs.selfcheck.ms",
    "certs.serialize": "certs.serialize.ms",
    "certs.parse": "certs.parse.ms",
    "sexpr.tokenize": "sexpr.tokenize.ms",
    "certs.check": "certs.check.ms",
    "replay.export": "replay.export.ms",
    "replay.replay": "replay.replay.ms",
    "model.build": "model.build.ms",
    "model.verify": "model.verify.ms",
    "core.relation_props": "core.relation_props.ms",
}

LAYER_MS_METRICS = tuple(dict.fromkeys(LAYER_OF_SPAN.values()))


class Tracer:
    """Records spans around library calls and counts at the same boundaries."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._undo: list[Callable[[], None]] = []

    # -- spans -------------------------------------------------------------

    def open(self, name: str) -> int:
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        root = self._stack[0] if self._stack else sid
        self.spans.append([sid, parent, root, name, time.perf_counter(), 0.0])
        self._stack.append(sid)
        return sid

    def close(self, sid: int) -> None:
        self.spans[sid][5] = time.perf_counter()
        self._stack.pop()

    def wrap(self, fn: Callable, name: str, after: Callable | None = None) -> Callable:
        """``fn`` inside a span; ``after(result)`` runs in a ``bench.count`` span.

        Calls made while the span is open (recursion through the rebound
        name) run unwrapped, so only the outermost call is recorded.
        """
        depth = 0

        def traced(*args, **kwargs):
            nonlocal depth
            if depth:
                return fn(*args, **kwargs)
            depth += 1
            sid = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(sid)
                depth -= 1
            if after is not None:
                cid = self.open("bench.count")
                after(result)
                self.close(cid)
            return result

        return traced

    # -- installation ------------------------------------------------------

    def _rebind(self, module, attr: str, name: str, after: Callable | None = None) -> None:
        original = getattr(module, attr)
        setattr(module, attr, self.wrap(original, name, after))
        self._undo.append(lambda: setattr(module, attr, original))

    def install(self) -> None:
        cli, closure, certs, sexpr, replay, model, rewrite = (
            importlib.import_module(f"ordersat.{name}")
            for name in ("cli", "closure", "certs", "sexpr", "replay", "model", "rewrite")
        )
        counts = self.counts

        def count_dnf(prep) -> None:
            clauses = rewrite.disj_clauses(prep.result)
            counts["rewrite.dnf_clauses"] += len(clauses)
            counts["rewrite.dnf_literals"] += sum(len(rewrite.conj_list(c)) for c in clauses)

        def count_trancl(result) -> None:
            counts["closure.trancl.calls"] += 1
            counts["closure.pairs"] += len(result)

        def count_model(result) -> None:
            counts["model.built"] += 1
            counts["model.carrier"] += len(result.relation.carrier)

        def count_verify(_result) -> None:
            counts["model.verify.calls"] += 1

        # Entry points the benchmark calls through the module attribute.
        self._rebind(cli, "parse_input", "cli.parse_input")
        self._rebind(cli, "format_model", "cli.format_model")
        self._rebind(closure, "decide", "closure.decide")
        self._rebind(certs, "serialize_cert", "certs.serialize")
        self._rebind(certs, "parse_cert", "certs.parse")
        self._rebind(certs, "check_prop_proof", "certs.check")
        self._rebind(replay, "export", "replay.export")
        self._rebind(replay, "replay_refutation", "replay.replay")
        # Names ``decide`` and friends look up in their own modules.
        self._rebind(closure, "preprocess", "closure.preprocess", count_dnf)
        self._rebind(closure, "amap_fm", "rewrite.amap_fm")
        self._rebind(closure, "amap_fm_prf", "rewrite.amap_fm_prf")
        self._rebind(closure, "to_dnf", "rewrite.to_dnf")
        self._rebind(closure, "contr_fm_prf", "closure.contr_fm_prf")
        self._rebind(closure, "contr_list", "closure.contr_list")
        self._rebind(closure, "check_prop_proof", "certs.selfcheck")
        self._rebind(closure, "build_partial_model", "model.build", count_model)
        self._rebind(closure, "build_linear_model", "model.build", count_model)
        self._rebind(closure, "verify_model", "model.verify", count_verify)
        self._rebind(model, "verify_model", "model.verify", count_verify)
        self._rebind(model, "relation_props", "core.relation_props")
        self._rebind(sexpr, "tokenize", "sexpr.tokenize")
        algorithms = closure._CLOSURE_ALGORITHMS
        original = algorithms["naive"]
        algorithms["naive"] = self.wrap(original, "closure.trancl", count_trancl)
        self._undo.append(lambda: algorithms.__setitem__("naive", original))

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    # -- reports -----------------------------------------------------------

    def self_ms(self) -> dict[str, float]:
        """Self time in ms summed per span name."""
        child = [0.0] * len(self.spans)
        for _sid, parent, _root, _name, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals: dict[str, float] = defaultdict(float)
        for sid, _parent, _root, name, start, end in self.spans:
            totals[name] += (end - start - child[sid]) * 1000.0
        return totals

    def layer_ms(self) -> dict[str, float]:
        """Self time in ms per layer metric of ``LAYER_OF_SPAN``."""
        out = dict.fromkeys(LAYER_MS_METRICS, 0.0)
        for name, ms in self.self_ms().items():
            layer = LAYER_OF_SPAN.get(name)
            if layer is not None:
                out[layer] += ms
        return out

    def write(self, path) -> None:
        """One JSON array per span: id, parent, root, name, start, end."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")
