"""Span recorder for the traced run, and the per-layer metrics it yields.

The recorder wraps symtest's public functions and methods from the
benchmark's side; symtest's sources are not edited.  A public function is
wrapped in its defining module and in every other symtest namespace that
imports it from another layer (`pipeline.butterfly`, `circuits.butterfly`,
...), so calls between layers are seen.  A name a module imports from its
own layer (boolfunc's bitops helpers) is left alone: such a call cannot
move time between layers, and `bitops.parity` alone runs 2^n times per
table.  Methods are wrapped on their class, so every caller sees them.

Each span has a name, start, end, parent span and op id.  Spans stay in
memory in flat arrays and are written out when the run ends; self times
are computed from them afterwards.  Counts are taken at the same
boundaries, by hooks on the spans that do the counted work.
"""

import enum
import functools
import importlib
import time
import types
from array import array
from collections import Counter

import numpy as np

LAYERS = ("boolfunc", "statevec", "oracle", "pipeline", "circuits", "charts", "cli")
MODULE_LAYER = {"bitops": "boolfunc", **{layer: layer for layer in LAYERS}}
ALIASES = {"oracle.QuantumOracle": "oracle.build"}
# Dunder methods that do work worth a span; generated ones (eq, hash, repr) are left alone.
DUNDERS = ("__init__", "__str__", "__neg__")
# statevec.butterfly copies both halves, adds and subtracts them into two
# temporaries and stores those back: 4 reads and 3 writes of the array's
# size.  This is a count computed from the code, not a measurement.
BUTTERFLY_BYTES_PER_BYTE = 7
# Spans reported by inclusive time (outermost calls only), and by call count.
TIMED_SPANS = (
    "boolfunc.hex_decode",
    "boolfunc.padded_hex",
    "cli.parse_function",
    "boolfunc.is_admissible",
    "boolfunc.to_parity_form",
    "boolfunc.from_parity_form",
    "boolfunc.TruthTable",
    "boolfunc.generate_functions",
    "statevec.butterfly",
    "statevec.StateVector",
    "statevec.vector_to_ket",
    "oracle.build",
    "circuits.simulate_circuit",
    "charts.build_catalog",
    "charts.build_chart",
    "charts.render",
)
COUNTED_SPANS = (
    "statevec.butterfly",
    "oracle.build",
    "pipeline.run",
    "pipeline.predict",
    "pipeline.success_probability",
    "circuits.simulate_circuit",
    "cli.dispatch",
)


class Recorder:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("H")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.current = -1
        self.op_id = -1
        self.counts = Counter()
        self._undo = []
        self._last_predict = None
        self._hooks = {
            "boolfunc.TruthTable": self._on_table,
            "boolfunc.is_admissible": self._on_is_admissible,
            "boolfunc.to_parity_form": self._on_to_parity_form,
            "statevec.butterfly": self._on_butterfly,
            "pipeline.predict": self._on_predict,
            "pipeline.run": self._on_run,
            "circuits.simulate_circuit": self._on_simulate_circuit,
        }

    # -- wrapping -----------------------------------------------------------

    def install(self, package) -> None:
        """Wrap symtest's public functions and methods; undone by uninstall()."""
        self._not_admissible = package.boolfunc.NotAdmissibleError
        wrappers, classes = {}, set()
        modules = [importlib.import_module(f"{package.__name__}.{m}") for m in MODULE_LAYER]
        for module in [package] + modules:
            here = MODULE_LAYER.get(module.__name__.rpartition(".")[2])
            for attr, value in list(vars(module).items()):
                owner = getattr(value, "__module__", None) or ""
                if attr.startswith("_") or not owner.startswith(package.__name__ + "."):
                    continue
                layer = MODULE_LAYER[owner.rpartition(".")[2]]
                if isinstance(value, type):
                    if value not in classes:
                        classes.add(value)
                        self._wrap_class(value, layer)
                elif isinstance(value, types.FunctionType):
                    if owner != module.__name__ and layer == here:
                        continue
                    if value not in wrappers:
                        wrappers[value] = self._wrap(value, f"{layer}.{value.__name__}")
                    self._replace(module, attr, wrappers[value])

    def uninstall(self) -> None:
        while self._undo:
            obj, attr, original = self._undo.pop()
            setattr(obj, attr, original)

    def _replace(self, obj, attr, new) -> None:
        self._undo.append((obj, attr, vars(obj)[attr]))
        setattr(obj, attr, new)

    def _wrap_class(self, cls: type, layer: str) -> None:
        if issubclass(cls, (BaseException, enum.Enum)):
            return
        for attr, value in list(vars(cls).items()):
            if attr.startswith("_") and attr not in DUNDERS:
                continue
            name = f"{layer}.{cls.__name__}" + ("" if attr == "__init__" else f".{attr}")
            if isinstance(value, types.FunctionType):
                new = self._wrap(value, name)
            elif isinstance(value, property) and value.fget is not None:
                new = property(self._wrap(value.fget, name), value.fset, value.fdel, value.__doc__)
            elif isinstance(value, (classmethod, staticmethod)):
                new = type(value)(self._wrap(value.__func__, name))
            else:
                continue
            self._replace(cls, attr, new)

    def _wrap(self, fn, name: str):
        name = ALIASES.get(name, name)
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        nid, hook, rec = self._ids[name], self._hooks.get(name), self
        names, parents, ops, starts, ends = self.name, self.parent, self.op, self.start, self.end
        clock = time.perf_counter

        @functools.wraps(fn)
        def span(*args, **kwargs):
            parent, idx = rec.current, len(starts)
            names.append(nid)
            parents.append(parent)
            ops.append(rec.op_id)
            starts.append(0.0)
            ends.append(0.0)
            rec.current = idx
            result = error = None
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as e:
                error = e
                raise
            finally:
                ends[idx] = clock()
                starts[idx] = t0
                rec.current = parent
                if hook is not None:
                    hook(args, result, error)

        return span

    # -- counts at span boundaries ------------------------------------------

    def _on_table(self, args, result, error) -> None:
        if error is None:
            self.counts["tables_built"] += 1
            self.counts["bits_built"] += len(args[0].bits)

    def _on_is_admissible(self, args, result, error) -> None:
        self.counts["rejects"] += result is False

    def _on_to_parity_form(self, args, result, error) -> None:
        self.counts["rejects"] += isinstance(error, self._not_admissible)

    def _on_butterfly(self, args, result, error) -> None:
        self.counts["butterfly_amps"] += args[0].size
        self.counts["bytes_computed"] += BUTTERFLY_BYTES_PER_BYTE * args[0].nbytes

    def _on_simulate_circuit(self, args, result, error) -> None:
        self.counts["gates_applied"] += len(args[0].gates)

    def _on_predict(self, args, result, error) -> None:
        self._last_predict = None if error else (args[0], args[1], result.output)

    def _on_run(self, args, result, error) -> None:
        # A run paired with the predict just made for the same (f, input),
        # as verify_all does, counts as one agreement attempt.
        last = self._last_predict
        if error is None and last and last[0] is args[0] and last[1] == args[1]:
            self.counts["agree_attempts"] += 1
            self.counts["agrees"] += result.output == last[2]

    # -- results ------------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "names": np.array(self.names, dtype=str),
            "name": np.array(self.name, dtype=np.uint16),
            "parent": np.array(self.parent, dtype=np.int32),
            "op": np.array(self.op, dtype=np.int32),
            "start": np.array(self.start, dtype=np.float64),
            "end": np.array(self.end, dtype=np.float64),
        }

    def save(self, path) -> None:
        np.savez(path, **self.arrays())

    def metrics(self, setup_s: float, ops_s: float, overhead_ratio: float) -> dict[str, tuple[float, str]]:
        """Per-layer metrics over the traced set-up (`setup_s` of wall time) and
        the traced ops (`ops_s`)."""
        a = self.arrays()
        name, parent = a["name"], a["parent"]
        dur = a["end"] - a["start"]
        nested = parent >= 0
        child = np.zeros_like(dur)
        np.add.at(child, parent[nested], dur[nested])
        self_time = dur - child
        layer_of_name = np.array([LAYERS.index(n.partition(".")[0]) for n in self.names], dtype=int)
        span_layer = layer_of_name[name] if name.size else np.zeros(0, dtype=int)
        layer_calls = np.bincount(span_layer, minlength=len(LAYERS))
        layer_self = np.bincount(span_layer, weights=self_time, minlength=len(LAYERS))
        # A span inside a span of the same name adds no time of its own to it.
        outermost = ~nested | (name[np.where(nested, parent, 0)] != name)
        name_calls = np.bincount(name, minlength=len(self.names))
        name_time = np.bincount(name, weights=dur * outermost, minlength=len(self.names))

        def calls(span: str) -> int:
            return int(name_calls[self._ids[span]]) if span in self._ids else 0

        def seconds(span: str) -> float:
            return float(name_time[self._ids[span]]) if span in self._ids else 0.0

        out: dict[str, tuple[float, str]] = {}
        for span in TIMED_SPANS:
            out[f"{span}.s"] = (seconds(span), "s")
        for span in COUNTED_SPANS:
            out[f"{span}.calls"] = (calls(span), "count")
        c = self.counts
        out["boolfunc.rejects"] = (c["rejects"], "count")
        out["boolfunc.tables_built"] = (c["tables_built"], "count")
        out["boolfunc.bits_built"] = (c["bits_built"], "count")
        out["statevec.butterfly.amps"] = (c["butterfly_amps"], "count")
        out["statevec.bytes_computed"] = (c["bytes_computed"], "B")
        out["circuits.gates_applied"] = (c["gates_applied"], "count")
        out["pipeline.agree_attempts"] = (c["agree_attempts"], "count")
        # 0 when no run was paired with a predict; see pipeline.agree_attempts.
        ratio = c["agrees"] / c["agree_attempts"] if c["agree_attempts"] else 0.0
        out["pipeline.agree_ratio"] = (ratio, "ratio")
        for i, layer in enumerate(LAYERS):
            out[f"{layer}.calls"] = (int(layer_calls[i]), "count")
            out[f"{layer}.self_s"] = (float(layer_self[i]), "s")
        traced_s = setup_s + ops_s
        out["trace.setup_s"] = (setup_s, "s")
        out["trace.ops_s"] = (ops_s, "s")
        out["trace.layer_share"] = (float(layer_self.sum()) / traced_s, "ratio")
        out["trace.overhead_ratio"] = (overhead_ratio, "ratio")
        return out
