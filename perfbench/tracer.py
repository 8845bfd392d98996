"""In-memory span tracing of qouter's layers, installed from outside the package.

Each traced call records one span: the function's key, start, end, the
index of the span that was open when it began (its parent), and one
outcome number (a returned length, a truth value, an iteration count).
Spans live in typed arrays, so a traced run of a few million calls stays
within tens of megabytes.

qouter modules import functions by name (``from .canon import
canonical_code``), so a wrapper has to replace the name in every module
namespace that holds the function; patching only the defining module
would miss the calls made through the other bindings.
"""

from __future__ import annotations

import inspect
import sys
import time
from array import array

# Layers are the package's modules; a span belongs to the layer of the
# module that defines the wrapped function.
LAYERS = (
    "graphs",
    "canon",
    "graph6",
    "recognition",
    "spectral",
    "constructions",
    "transforms",
    "enumeration",
    "harness",
    "cli",
)

# Functions traced besides the public module-level ones: (module, owner, name, key).
# Graph validation and report serialisation are methods; _generate and
# _power_iteration carry the generation and solve counts.
EXTRA_TARGETS = (
    ("graphs", "Graph", "__post_init__", "graphs.validate"),
    ("harness", "VerificationReport", "to_json", "harness.to_json"),
    ("enumeration", None, "_generate", "enumeration.generate"),
    ("spectral", None, "_power_iteration", "spectral.solve"),
)

MOVES = (
    "add_edge_move",
    "perron_rotate",
    "leaf_reattach",
    "pendant_pull",
    "chord_swap",
    "path_shift",
)
CHECKS = ("verify_cycle_theorem", "verify_path_theorem", "structural_check", "check_lemma")

# Reported function metrics: prefix -> the traced keys it sums over.
# A metric's time is the self time of its spans; spans of unreported
# functions of the same layer (contains_cycle under is_f_free, q_matrix
# under q_index) fold into the reported span that called them.
GROUPS = {
    "graphs.validate": ("graphs.validate",),
    "canon.labeling": ("canon.canonical_labeling",),
    "canon.code": ("canon.canonical_code",),
    "graph6.encode": ("graph6.graph6_encode",),
    "recognition.outerplanar": ("recognition.is_outerplanar",),
    "recognition.f_free": ("recognition.is_f_free",),
    "recognition.nbhd_paths": ("recognition.neighborhood_is_paths",),
    "spectral.q_index": ("spectral.q_index",),
    "spectral.solve": ("spectral.solve",),
    "spectral.q_compare": ("spectral.q_compare",),
    "transforms.move": tuple(f"transforms.{m}" for m in MOVES),
    "transforms.ascent": ("transforms.greedy_ascent",),
    "enumeration.generate": ("enumeration.generate",),
    "enumeration.argmax": ("enumeration.extremal_argmax",),
    "harness.check": tuple(f"harness.{c}" for c in CHECKS),
    "harness.campaign": ("harness.run_campaign",),
}


def _instances(report) -> float:
    for note in report.notes:
        for prefix in ("instances checked: ", "specs checked: "):
            if note.startswith(prefix):
                return float(note[len(prefix):])
    return 0.0


# Outcome recorded per span (default: 1 when the call returned, 0 when it raised).
OUTCOMES = {
    "recognition.is_outerplanar": float,
    "recognition.is_f_free": float,
    "spectral.q_compare": lambda result: float(result.value == "indistinguishable"),
    "transforms.greedy_ascent": lambda result: float(len(result[1])),
    "enumeration.generate": lambda result: float(len(result)),
    "harness.check_lemma": _instances,
    "harness.to_json": lambda result: float(len(result)),
}


C, S, R = "count", "s", "ratio"

# Per-layer metrics of a traced run: (name, unit, better). "_s" and ".s"
# are self times; a layer's ".calls" and ".s" cover all of its spans.
METRICS = tuple(
    [(f"{layer}.{x}", u, "lower") for layer in LAYERS for x, u in (("calls", C), ("s", S))]
    + [
        ("graphs.validate_calls", C, "lower"),
        ("graphs.validate_s", S, "lower"),
        ("canon.labeling_calls", C, "lower"),
        ("canon.labeling_s", S, "lower"),
        ("canon.code_calls", C, "lower"),
        ("canon.code_s", S, "lower"),
        ("recognition.outerplanar_calls", C, "lower"),
        ("recognition.outerplanar_s", S, "lower"),
        ("recognition.outerplanar_reject_ratio", R, "higher"),
        ("recognition.f_free_calls", C, "lower"),
        ("recognition.f_free_s", S, "lower"),
        ("recognition.f_free_pass_ratio", R, "higher"),
        ("recognition.nbhd_paths_calls", C, "lower"),
        ("recognition.nbhd_paths_s", S, "lower"),
        ("spectral.q_index_calls", C, "lower"),
        ("spectral.q_index_s", S, "lower"),
        ("spectral.solves", C, "lower"),
        ("spectral.solve_s", S, "lower"),
        ("spectral.cache_hit_ratio", R, "higher"),
        ("spectral.iterations", C, "lower"),
        ("spectral.max_residual", "norm", "lower"),
        ("spectral.q_compare_calls", C, "lower"),
        ("spectral.q_compare_s", S, "lower"),
        ("spectral.indistinguishable", C, "lower"),
        ("transforms.move_calls", C, "lower"),
        ("transforms.move_s", S, "lower"),
        ("transforms.move_applicable_ratio", R, "higher"),
        ("transforms.ascent_calls", C, "lower"),
        ("transforms.ascent_s", S, "lower"),
        ("transforms.ascent_steps", C, "lower"),
        ("transforms.candidates_per_step", "count/step", "lower"),
        ("enumeration.generate_calls", C, "lower"),
        ("enumeration.generate_s", S, "lower"),
        ("enumeration.graphs_out", C, "lower"),
        ("enumeration.labelings_per_graph", "count/graph", "lower"),
        ("enumeration.class_pass_ratio", R, "higher"),
        ("enumeration.argmax_calls", C, "lower"),
        ("enumeration.argmax_s", S, "lower"),
        ("harness.checks", C, "lower"),
        ("harness.check_s", S, "lower"),
        ("harness.campaign_s", S, "lower"),
        ("harness.lemma_instances", C, "lower"),
        ("harness.report_bytes", "bytes", "lower"),
        ("graph6.encode_calls", C, "lower"),
        ("graph6.encode_s", S, "lower"),
        ("trace.spans", C, "lower"),
        ("trace.overhead_frac", R, "lower"),
    ]
)


class Tracer:
    """Wraps qouter's functions where they are bound and records spans."""

    def __init__(self):
        self.keys: list[str] = []
        self.fn = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.value = array("d")
        self.max_residual = 0.0
        self._stack = [-1]
        self._restore: list[tuple[object, str, object]] = []

    # -- installation ---------------------------------------------------

    def install(self) -> None:
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "qouter" or name.startswith("qouter."))]
        targets = []
        for layer in LAYERS:
            mod = sys.modules[f"qouter.{layer}"]
            for name, obj in vars(mod).items():
                if (name.startswith("_") or not callable(obj) or isinstance(obj, type)
                        or getattr(obj, "__module__", None) != mod.__name__
                        or inspect.isgeneratorfunction(obj)):
                    continue
                targets.append((mod, name, obj, f"{layer}.{name}"))
        for layer, owner, name, key in EXTRA_TARGETS:
            mod = sys.modules[f"qouter.{layer}"]
            holder = getattr(mod, owner) if owner else mod
            if name in vars(holder):
                targets.append((holder, name, vars(holder)[name], key))
        for holder, name, orig, key in targets:
            wrapper = self._wrap(orig, key)
            if isinstance(holder, type):
                self._replace(holder, name, wrapper)
                continue
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        self._replace(mod, attr, wrapper)

    def uninstall(self) -> None:
        for holder, name, orig in reversed(self._restore):
            setattr(holder, name, orig)
        self._restore.clear()

    def _replace(self, holder, name, wrapper) -> None:
        self._restore.append((holder, name, getattr(holder, name)))
        setattr(holder, name, wrapper)

    def _wrap(self, orig, key):
        fid = len(self.keys)
        self.keys.append(key)
        outcome = self._solve_outcome if key == "spectral.solve" else OUTCOMES.get(key)
        clock = time.perf_counter
        stack = self._stack
        fn_add, start_add, end_add = self.fn.append, self.start.append, self.end.append
        parent_add, value_add = self.parent.append, self.value.append
        end, value = self.end, self.value

        def traced(*args, **kwargs):
            idx = len(end)
            fn_add(fid)
            parent_add(stack[-1])
            value_add(0.0)
            end_add(0.0)
            stack.append(idx)
            start_add(clock())
            try:
                result = orig(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            value[idx] = 1.0 if outcome is None else outcome(result)
            return result

        return traced

    def _solve_outcome(self, result) -> float:
        """Power iteration returns (q, x, residual, iterations)."""
        self.max_residual = max(self.max_residual, result[2])
        return float(result[3])

    # -- aggregation ----------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Every name in METRICS except trace.overhead_frac, from the spans."""
        keys = self.keys
        layer_of = [k.split(".", 1)[0] for k in keys]
        group_of = [next((g for g, members in GROUPS.items() if k in members), None)
                    for k in keys]
        fn, start, end, parent, value = self.fn, self.start, self.end, self.parent, self.value
        n = len(fn)
        self_time = [end[i] - start[i] for i in range(n)]
        for i in range(n):
            if parent[i] >= 0:
                self_time[parent[i]] -= end[i] - start[i]

        def within(i: int, key: str) -> bool:
            """Whether some span enclosing span i has the given key."""
            p = parent[i]
            while p >= 0 and keys[fn[p]] != key:
                p = parent[p]
            return p >= 0

        out = dict.fromkeys(
            [f"{layer}.{x}" for layer in LAYERS for x in ("calls", "s")]
            + [f"{g}_{x}" for g in GROUPS for x in ("calls", "s")], 0.0)
        sums = dict.fromkeys(keys, 0.0)
        owner = array("i", [-1]) * n
        solved = set()
        enum_labelings = argmax_f_free = argmax_f_free_pass = ascent_moves = 0.0
        for i in range(n):
            f = fn[i]
            key, layer, group = keys[f], layer_of[f], group_of[f]
            sums[key] += value[i]
            out[f"{layer}.calls"] += 1
            out[f"{layer}.s"] += self_time[i]
            if group is not None:
                owner[i] = i
                out[f"{group}_calls"] += 1
            elif parent[i] >= 0 and layer_of[fn[parent[i]]] == layer:
                owner[i] = owner[parent[i]]
            if owner[i] >= 0:
                out[f"{group_of[fn[owner[i]]]}_s"] += self_time[i]
            if key == "spectral.solve" and parent[i] >= 0:
                solved.add(parent[i])
            elif key == "canon.canonical_labeling":
                enum_labelings += within(i, "enumeration.generate")
            elif key == "recognition.is_f_free" and within(i, "enumeration.extremal_argmax"):
                argmax_f_free += 1
                argmax_f_free_pass += value[i]
            elif group == "transforms.move":
                ascent_moves += within(i, "transforms.greedy_ascent")

        def ratio(a: float, b: float) -> float:
            return a / b if b else 0.0

        moves = sum(sums.get(f"transforms.{m}", 0.0) for m in MOVES)
        steps = sums.get("transforms.greedy_ascent", 0.0)
        q_calls = out["spectral.q_index_calls"]
        graphs_out = sums.get("enumeration.generate", 0.0)
        out.update({
            "recognition.outerplanar_reject_ratio": ratio(
                out["recognition.outerplanar_calls"] - sums.get("recognition.is_outerplanar", 0.0),
                out["recognition.outerplanar_calls"]),
            "recognition.f_free_pass_ratio": ratio(
                sums.get("recognition.is_f_free", 0.0), out["recognition.f_free_calls"]),
            "spectral.solves": float(len(solved)),
            "spectral.cache_hit_ratio": ratio(q_calls - len(solved), q_calls),
            "spectral.iterations": sums.get("spectral.solve", 0.0),
            "spectral.max_residual": self.max_residual,
            "spectral.indistinguishable": sums.get("spectral.q_compare", 0.0),
            "transforms.move_applicable_ratio": ratio(moves, out["transforms.move_calls"]),
            "transforms.ascent_steps": steps,
            # every ascent ends with one full scan that applies no move
            "transforms.candidates_per_step": ratio(
                ascent_moves, steps + out["transforms.ascent_calls"]),
            "enumeration.graphs_out": graphs_out,
            "enumeration.labelings_per_graph": ratio(enum_labelings, graphs_out),
            "enumeration.class_pass_ratio": ratio(argmax_f_free_pass, argmax_f_free),
            "harness.checks": out["harness.check_calls"],
            "harness.lemma_instances": sums.get("harness.check_lemma", 0.0),
            "harness.report_bytes": sums.get("harness.to_json", 0.0),
            "trace.spans": float(n),
        })
        return {name: out[name] for name, _, _ in METRICS if name in out}
