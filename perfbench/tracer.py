"""Per-layer spans recorded from outside the program.

The tracer wraps the public function at each layer boundary of
``repro`` while a traced round runs, and restores the originals when it
ends, so untraced rounds execute the program's own code objects.  A
module-level function is wrapped under every name a loaded ``repro``
module binds it to: callers resolve ``from x import f`` names in their
own module, so patching only the defining module would miss them.  A
method is wrapped on its class and on every ``repro`` subclass that
overrides it.

For each span the tracer keeps calls, busy seconds, self seconds (busy
time minus the time of spans opened inside it) and one work count.
Only the outermost activation of a span is counted, so a layer
function that calls another function of the same layer is not counted
twice.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import inspect
import sys
import time
from collections.abc import Callable

import numpy as np

Work = Callable[[tuple, dict, object], float]


def _arg(args: tuple, kwargs: dict, index: int, name: str, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _rows(array) -> int:
    array = np.asarray(array)
    return array.shape[0] if array.ndim == 2 else 1


def _one(args, kwargs, result) -> int:
    return 1


@dataclasses.dataclass(frozen=True)
class Span:
    """One layer boundary: the functions it wraps and its work count.

    Attributes:
        name: Metric prefix, ``<package>.<layer>``.
        unit: What :attr:`work` counts (the metric suffix).
        targets: ``"module:function"`` or ``"module:Class.method"``.
        work: ``(args, kwargs, result) -> count`` for one call.
    """

    name: str
    unit: str
    targets: tuple[str, ...]
    work: Work = _one


def _recovered_dropouts(args, kwargs, result) -> int:
    server = args[0]
    return len(server._share_senders) - len(server._masked)


#: The layer table.  Order is presentation order only.
SPANS: tuple[Span, ...] = (
    Span("sampling.skellam", "samples",
         ("repro.sampling.fast:skellam_noise",),
         lambda a, k, r: np.size(r)),
    Span("sampling.round", "elements",
         ("repro.sampling.fast:bernoulli_round",),
         lambda a, k, r: np.size(r)),
    Span("linalg.rotation", "elements",
         ("repro.linalg.hadamard:RandomRotation.forward",
          "repro.linalg.hadamard:RandomRotation.inverse"),
         lambda a, k, r: max(np.size(_arg(a, k, 1, "vectors")), np.size(r))),
    Span("core.clipping", "elements",
         ("repro.core.clipping:clip_gradient",),
         lambda a, k, r: np.size(r)),
    Span("core.encode", "vectors",
         ("repro.core.client:GradientEncoder.encode",),
         lambda a, k, r: _rows(r)),
    Span("core.decode", "vectors",
         ("repro.core.server:GradientDecoder.decode",),
         lambda a, k, r: _rows(_arg(a, k, 1, "aggregated"))),
    Span("mechanisms.estimate_sum", "rows",
         ("repro.mechanisms.base:SumEstimator.estimate_sum",),
         lambda a, k, r: _rows(_arg(a, k, 1, "values"))),
    Span("secagg.blackbox", "rows",
         ("repro.secagg.protocol:SecureAggregator.run",),
         lambda a, k, r: _rows(_arg(a, k, 1, "inputs"))),
    Span("fl.gradients", "rows",
         ("repro.fl.model:MLPClassifier.per_example_gradients",),
         lambda a, k, r: _rows(r)),
    Span("accounting.charge", "steps",
         ("repro.accounting.rdp:RdpAccountant.step_subsampled",
          "repro.accounting.rdp:RdpAccountant.epsilon"),
         # step_subsampled returns None; epsilon() returns a float and
         # charges nothing.
         lambda a, k, r: _arg(a, k, 3, "count", 1) if r is None else 0),
    Span("secagg.prg", "words",
         ("repro.secagg.kernels:sum_signed_masks",),
         lambda a, k, r: (len(_arg(a, k, 0, "seeds"))
                          * _arg(a, k, 2, "dimension"))),
    Span("secagg.keys", "agreements",
         ("repro.secagg.keys:warm_agreement_cache",
          "repro.secagg.keys:agree_batch"),
         lambda a, k, r: r if isinstance(r, int) else len(r)),
    Span("secagg.shamir.split", "shares",
         ("repro.secagg.shamir:split_secrets",),
         lambda a, k, r: np.size(r)),
    Span("secagg.shamir.reconstruct", "secrets",
         ("repro.secagg.shamir:reconstruct_secrets",
          "repro.secagg.shamir:reconstruct_large_secret"),
         lambda a, k, r: len(r) if isinstance(r, list) else 1),
    Span("secagg.seal", "bytes",
         ("repro.secagg.kernels:keystream_batch",),
         lambda a, k, r: np.size(r)),
    Span("secagg.wire.encode", "bytes",
         ("repro.secagg.wire:encode_message",
          "repro.secagg.wire:encode_sealed_matrix"),
         lambda a, k, r: len(r)),
    Span("secagg.wire.decode", "bytes",
         ("repro.secagg.wire:decode_frames",
          "repro.secagg.wire:decode_sealed_columns"),
         lambda a, k, r: len(_arg(a, k, 0, "data"))),
    Span("secagg.session.client", "frames",
         ("repro.secagg.statemachine:ClientSession.start",
          "repro.secagg.statemachine:ClientSession.handle"),
         lambda a, k, r: len(r)),
    Span("secagg.session.server", "datagrams",
         ("repro.secagg.statemachine:ServerSession.receive",
          "repro.secagg.statemachine:ServerSession.advance"),
         lambda a, k, r: 1 if r is None else len(r)),
    Span("secagg.recover", "dropped",
         ("repro.secagg.bonawitz:BonawitzServer.recover_sum",),
         _recovered_dropouts),
    Span("simulation.round", "rounds",
         ("repro.simulation.rounds:AsyncSecAggRound.run",)),
    Span("simulation.shard", "leaves",
         ("repro.simulation.sharding:run_shard",)),
    Span("secagg.compose", "compositions",
         ("repro.secagg.compose:Composer.compose",)),
)


@dataclasses.dataclass
class SpanTotals:
    calls: int = 0
    s: float = 0.0
    self_s: float = 0.0
    work: float = 0.0


class Tracer:
    """Installs the span wrappers for one traced round at a time."""

    def __init__(self) -> None:
        self.spans = SPANS
        self.totals = {span.name: SpanTotals() for span in SPANS}
        self.rounds = 0
        self.untraced_s = 0.0
        self._stack: list[list[float]] = []
        self._depth = {span.name: 0 for span in SPANS}
        self._top_s = 0.0
        self._patches: list[tuple[object, str, object, object]] | None = None
        self._active = False

    # -- patch discovery -------------------------------------------------

    def _resolve(self) -> list[tuple[object, str, object, object]]:
        """Every ``(owner, attribute, original, wrapper)`` to swap in."""
        patches = []
        for span in self.spans:
            for target in span.targets:
                module_name, qualname = target.split(":")
                module = importlib.import_module(module_name)
                if "." in qualname:
                    class_name, method = qualname.split(".")
                    patches += self._method_patches(
                        span, getattr(module, class_name), method
                    )
                else:
                    patches += self._function_patches(
                        span, getattr(module, qualname)
                    )
        return patches

    def _function_patches(self, span: Span, function) -> list:
        wrapper = self._wrap(span, function)
        patches = []
        for name, module in list(sys.modules.items()):
            if name != "repro" and not name.startswith("repro."):
                continue
            for attribute, value in list(vars(module).items()):
                if value is function:
                    patches.append((module, attribute, function, wrapper))
        return patches

    def _method_patches(self, span: Span, root: type, method: str) -> list:
        patches = []
        pending, seen = [root], set()
        while pending:
            cls = pending.pop()
            if cls in seen:
                continue
            seen.add(cls)
            pending.extend(cls.__subclasses__())
            if not cls.__module__.startswith("repro."):
                continue
            original = cls.__dict__.get(method)
            if original is None:
                continue
            if not inspect.isfunction(original):
                raise TypeError(f"{cls.__qualname__}.{method} is not a plain method")
            patches.append((cls, method, original, self._wrap(span, original)))
        if not patches:
            raise LookupError(f"no implementation of {root.__qualname__}.{method}")
        return patches

    # -- the wrappers ----------------------------------------------------

    def _enter(self, name: str) -> list[float] | None:
        if not self._active or self._depth[name]:
            return None
        self._depth[name] += 1
        frame = [0.0]
        self._stack.append(frame)
        return frame

    def _exit(self, span: Span, frame, elapsed, args, kwargs, result, ok) -> None:
        self._depth[span.name] -= 1
        if self._stack.pop() is not frame:
            raise RuntimeError(f"span {span.name} closed out of order")
        totals = self.totals[span.name]
        totals.calls += 1
        totals.s += elapsed
        totals.self_s += elapsed - frame[0]
        if self._stack:
            self._stack[-1][0] += elapsed
        else:
            self._top_s += elapsed
        if ok:
            totals.work += span.work(args, kwargs, result)

    def _wrap(self, span: Span, function):
        tracer = self
        clock = time.perf_counter

        if inspect.iscoroutinefunction(function):

            @functools.wraps(function)
            async def traced_async(*args, **kwargs):
                frame = tracer._enter(span.name)
                if frame is None:
                    return await function(*args, **kwargs)
                started, result, ok = clock(), None, False
                try:
                    result = await function(*args, **kwargs)
                    ok = True
                    return result
                finally:
                    tracer._exit(span, frame, clock() - started,
                                 args, kwargs, result, ok)

            return traced_async

        @functools.wraps(function)
        def traced(*args, **kwargs):
            frame = tracer._enter(span.name)
            if frame is None:
                return function(*args, **kwargs)
            started, result, ok = clock(), None, False
            try:
                result = function(*args, **kwargs)
                ok = True
                return result
            finally:
                tracer._exit(span, frame, clock() - started,
                             args, kwargs, result, ok)

        return traced

    # -- round lifecycle ---------------------------------------------------

    def begin_round(self) -> None:
        """Swap the wrappers in; the round's spans start counting."""
        if self._patches is None:
            self._patches = self._resolve()
        for owner, attribute, _, wrapper in self._patches:
            setattr(owner, attribute, wrapper)
        self._top_s = 0.0
        self._active = True

    def end_round(self, wall_s: float) -> None:
        """Restore the originals; charge the round's uncovered time."""
        self._active = False
        for owner, attribute, original, _ in self._patches:
            setattr(owner, attribute, original)
        if self._stack:
            raise RuntimeError("a span was still open at the end of a round")
        self.rounds += 1
        self.untraced_s += wall_s - self._top_s

    def units(self) -> dict[str, str]:
        """The unit of every metric :meth:`per_round` reports."""
        units = {}
        for span in self.spans:
            units[f"{span.name}.calls"] = "calls/round"
            units[f"{span.name}.s"] = "s/round"
            units[f"{span.name}.self_s"] = "s/round"
            units[f"{span.name}.{span.unit}"] = (
                "bytes/round" if span.unit == "bytes" else "count/round"
            )
        units["round.untraced_s"] = "s/round"
        return units

    def per_round(self) -> dict[str, float]:
        """Every span metric, averaged over the traced rounds."""
        rounds = max(1, self.rounds)
        metrics = {}
        for span in self.spans:
            totals = self.totals[span.name]
            metrics[f"{span.name}.calls"] = totals.calls / rounds
            metrics[f"{span.name}.s"] = totals.s / rounds
            metrics[f"{span.name}.self_s"] = totals.self_s / rounds
            metrics[f"{span.name}.{span.unit}"] = totals.work / rounds
        metrics["round.untraced_s"] = self.untraced_s / rounds
        return metrics
