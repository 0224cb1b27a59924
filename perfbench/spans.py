"""In-memory spans around afvol's public functions, and what is derived from them.

A span is (name, start_ns, end_ns, parent, info): `parent` is the index of
the enclosing span (-1 at the top) and `info` an optional count or label
taken from the call's arguments (tape size, rows, returns, GARCH kind).
Spans are installed by replacing module attributes with timing wrappers, so
nothing under src/ changes; every module that imported a function by name
gets the same wrapper.  Times come from CLOCK_MONOTONIC, which all processes
on the host share, so a child's spans line up with its parent's spawn time.
"""

from __future__ import annotations

import functools
import math
import time

clock_ns = time.monotonic_ns


def _tape_info(args, kwargs):
    tape = args[0]
    nbytes = sum(8 * math.prod(node.shape) for node in tape.nodes)
    return [len(tape.nodes), nbytes]


def _rows(args, kwargs):
    return args[1][0].shape[0]


def _train_rows(args, kwargs):
    return args[0].split_index


def _kind(args, kwargs):
    return kwargs.get("kind", args[1] if len(args) > 1 else "garch")


def _n_returns(args, kwargs):
    return len(args[1])


# (span name, [(module, attribute), ...], info).  The coarse set marks the
# boundaries end-to-end metrics need: one clock read per epoch or artifact.
COARSE = [
    ("pipeline.prepare_dataset", [("cli", "prepare_dataset")], None),
    ("training.train", [("training", "train")], _train_rows),
    ("cli.train_call", [("cli", "train_model"), ("cli", "compare_models")], None),
    ("training.adam_step", [("training", "adam_step")], None),
    ("cli.save_report", [("cli", "save_report")], None),
    ("cli.save_params", [("cli", "save_params")], None),
    ("cli.write_predictions", [("cli", "_write_predictions")], None),
]

DETAIL = [
    ("autodiff.backward", [("autodiff.Tape", "backward")], _tape_info),
    ("autodiff.sigmoid", [("autodiff", "sigmoid")], None),
    ("autodiff.matmul", [("autodiff", "matmul")], None),
    ("autodiff.layer_norm", [("autodiff", "layer_norm")], None),
    ("layers.lstm_cell", [("layers", "lstm_cell")], None),
    ("layers.af_steps", [("layers", "af_steps")], None),
    ("layers.bind", [("layers", "bind"), ("training", "bind")], None),
    ("training.forward", [("training", "af_lstm_predict"), ("training", "lstm_predict")], _rows),
    ("training.clip_global_norm", [("training", "clip_global_norm")], None),
    ("training.predict_scaled", [("training", "predict_scaled"), ("cli", "predict_scaled")], None),
    ("pipeline.load_price_csv", [("pipeline", "load_price_csv"), ("cli", "load_price_csv")], None),
    ("garch.fit_mle", [("garch", "fit_mle"), ("pipeline", "fit_mle"), ("cli", "fit_mle")], _kind),
    ("garch.gaussian_loglik", [("garch", "gaussian_loglik")], _n_returns),
    ("garch.garch_filter", [("garch", "garch_filter"), ("pipeline", "garch_filter"), ("cli", "garch_filter")], None),
    ("garch.forecast_sigma", [("garch", "forecast_sigma")], None),
]


class Tracer:
    """Records spans in memory; `span` also serves code that is not patched."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list = []
        self._stack: list[int] = []
        self._name_ids: dict[str, int] = {}
        self._wrapped: dict = {}  # original function -> its first wrapper

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, fn, name: str, info=None):
        spans, stack, nid = self.spans, self._stack, self._name_id(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = clock_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock_ns()
                stack.pop()
                spans[idx] = (nid, t0, t1, parent, info(args, kwargs) if info else None)

        return traced

    def span(self, name: str, fn, *args, **kwargs):
        return self.wrap(fn, name)(*args, **kwargs)

    def install(self, package, targets) -> None:
        """Replace each target attribute with one shared timing wrapper.

        A function already wrapped under an earlier name is wrapped again on
        top, so an alias (cli's `train_model` for `training.train`) nests
        the earlier span inside the new one.
        """
        for name, sites, info in targets:
            wrapped = {}
            for path, attr in sites:
                owner = package
                for part in path.split("."):
                    owner = getattr(owner, part)
                fn = getattr(owner, attr)
                if fn not in wrapped:
                    wrapped[fn] = self.wrap(self._wrapped.get(fn, fn), name, info)
                    self._wrapped.setdefault(fn, wrapped[fn])
                setattr(owner, attr, wrapped[fn])

    def dump(self) -> dict:
        return {"names": self.names, "spans": self.spans}


# ---------------------------------------------------------------------------
# derivation (runs in the benchmark process on dumped spans)


class SpanSet:
    """Dumped spans of one process, with self times."""

    def __init__(self, dumped: dict):
        names = dumped["names"]
        self.spans = [(names[n], t0, t1, parent, info) for n, t0, t1, parent, info in dumped["spans"]]
        child_ns = [0] * len(self.spans)
        for name, t0, t1, parent, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += t1 - t0
        self.self_ns = [t1 - t0 - c for (_, t0, t1, _, _), c in zip(self.spans, child_ns)]
        self._by_name: dict[str, list[int]] = {}
        for i, s in enumerate(self.spans):
            self._by_name.setdefault(s[0], []).append(i)

    def named(self, name: str):
        """(index, span) pairs with the given name, in start order."""
        return [(i, self.spans[i]) for i in self._by_name.get(name, [])]

    def trains(self) -> list[tuple[tuple, list[int]]]:
        """Each `training.train` span with its epochs' end times.

        An epoch ends when its adam_step returns and starts where the
        previous one ended (the first at the train call's entry).
        """
        ends: dict[int, list[int]] = {}
        for _, s in self.named("training.adam_step"):
            ends.setdefault(s[3], []).append(s[2])
        return [(s, ends.get(i, [])) for i, s in self.named("training.train")]

    def workload_epochs(self) -> list[float]:
        """Milliseconds of each workload epoch: epoch k of every model trained."""
        per_model = [[e - s for s, e in zip([span[1]] + ends[:-1], ends)] for span, ends in self.trains()]
        if not per_model:
            return []
        return [sum(m[k] for m in per_model) / 1e6 for k in range(min(map(len, per_model)))]
