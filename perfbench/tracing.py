"""Per-layer tracing from outside the program.

``Tracer.install()`` replaces public functions of the ``shufflesc`` modules
with wrappers that record one span per call. A function is patched under
every module name that refers to it (``shuffle.determinize`` and
``automata.determinize`` alike), so calls are seen whichever import path
they take. ``uninstall()`` puts the originals back.

Spans nest on a stack; each has an id and its parent's id. A span's self
time is its duration minus the durations of its direct children. Spans are
aggregated per name as they close (calls, total and self seconds), and the
first ``MAX_RECORDS`` are kept in memory and written out by
``write_spans()`` once the pass has ended.

The BFS kernel ``reach._successor_bitmap`` runs once per generation. It is
wrapped as a probe, not a span, so its time stays in ``bfs_reach``'s self
time; the probe records the frontier size and seconds of each generation.
"""

from __future__ import annotations

import json
import time
from collections import Counter, defaultdict
from itertools import count
from pathlib import Path

import numpy as np

from shufflesc import automata, cli, disting, reach, search, shuffle

MODULES = (automata, cli, disting, reach, search, shuffle)
MAX_RECORDS = 200_000

#: (module, function) pairs recorded as spans named "<module>.<function>"
SPANNED = [
    (reach, "bfs_reach"), (reach, "write_checkpoint"), (reach, "read_checkpoint"),
    (reach, "load_letters"), (reach, "certify"), (reach, "verify_certificate"),
    (reach, "reduce_containment"), (reach, "reduce_single_element"),
    (reach, "reduce_permutation"), (reach, "extremal_step"),
    (automata, "determinize"), (automata, "minimize"),
    (automata, "state_complexity"), (automata, "load_dfa"),
    (shuffle, "shuffle_state_complexity"), (shuffle, "build_shuffle_nfa"),
    (search, "max_shuffle_complexity"), (search, "pair_canonical_key"),
    (disting, "unique_in_subgraph"), (disting, "uniquely_distinguishable"),
    (cli, "main"),
]
COMMANDS = ("reach", "certify", "complexity", "search", "okhotin", "distinguish")
KINDS = ("INITIAL", "SHRINK", "CONTAINMENT", "SINGLE_ELEMENT", "PERMUTATION")
REDUCTIONS = ("containment", "single_element", "permutation")


class Tracer:
    def __init__(self):
        self._ids = count(1)
        self._stack: list[list] = []  # [span id, seconds covered by children]
        self.records: list[tuple] = []  # (id, parent id, name, start, seconds)
        self.calls: dict[str, int] = defaultdict(int)
        self.total: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.generations: list[tuple[int, float]] = []  # (frontier, seconds)
        self.certificates: list = []
        self._patched: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def span(self, name: str, fn, on_result=None):
        def wrapper(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            frame = [next(self._ids), 0.0]
            self._stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                seconds = time.perf_counter() - start
                self._stack.pop()
                if parent is not None:
                    parent[1] += seconds
                self.calls[name] += 1
                self.total[name] += seconds
                self.self_s[name] += seconds - frame[1]
                if len(self.records) < MAX_RECORDS:
                    self.records.append((frame[0], parent and parent[0], name,
                                         start, seconds))
            if on_result is not None:
                on_result(args, kwargs, result)
            return result
        return wrapper

    def _kernel_probe(self, fn):
        def probe(frontier, m, n, alphabet):
            start = time.perf_counter()
            out = fn(frontier, m, n, alphabet)
            self.generations.append((int(frontier.size), time.perf_counter() - start))
            letters = m ** m * n ** n if isinstance(alphabet, str) else len(alphabet)
            self.counts["letter_applications"] += int(frontier.size) * letters
            return out
        return probe

    # -- result hooks (run after the span closes) -------------------------------

    def _on_bfs(self, args, kwargs, report):
        self.counts["bfs_reached"] += report.reached
        if not kwargs.get("resume"):
            self.counts["bfs_fresh"] += 1

    def _on_read(self, args, kwargs, result):
        directory = Path(args[0])
        name = (directory / "LATEST").read_text().strip()
        self.counts["read_bytes"] += (directory / name).stat().st_size
        self.counts["bfs_reached"] -= int(np.count_nonzero(result[1]))

    def _on_write(self, args, kwargs, result):
        directory, generation = Path(args[0]), args[4]
        for f in (directory / reach._checkpoint_name(generation), directory / "LATEST"):
            self.counts["write_bytes"] += f.stat().st_size

    def _hit(self, name):
        def hook(args, kwargs, result):
            self.counts[name + ".hits"] += int(result is not None)
        return hook

    def _add(self, key, measure):
        def hook(args, kwargs, result):
            self.counts[key] += measure(result)
        return hook

    # -- patching ----------------------------------------------------------------

    def _patch_everywhere(self, fn, replacement) -> None:
        for mod in MODULES:
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    self._patched.append((mod, attr, value))
                    setattr(mod, attr, replacement)

    def install(self) -> None:
        hooks = {
            "bfs_reach": self._on_bfs,
            "read_checkpoint": self._on_read,
            "write_checkpoint": self._on_write,
            "certify": lambda args, kwargs, cert: self.certificates.append(cert),
            "determinize": self._add("determinize_states", lambda r: len(r[1])),
            "max_shuffle_complexity": self._add(
                "candidates_evaluated", lambda r: r.candidates_evaluated),
        }
        for r in REDUCTIONS:
            hooks["reduce_" + r] = self._hit("reduce_" + r)
        for mod, attr in SPANNED:
            fn = getattr(mod, attr)
            name = f"{mod.__name__.rsplit('.', 1)[1]}.{attr}"
            self._patch_everywhere(fn, self.span(name, fn, hooks.get(attr)))
        for command in COMMANDS:
            fn = getattr(cli, "cmd_" + command)
            self._patch_everywhere(fn, self.span(f"cli.{command}", fn))
        to_json = reach.Certificate.to_json
        self._patched.append((reach.Certificate, "to_json", to_json))
        reach.Certificate.to_json = self.span(
            "reach.Certificate.to_json", to_json,
            self._add("certificate_bytes", lambda text: len(text.encode())))
        kernel = reach._successor_bitmap
        self._patch_everywhere(kernel, self._kernel_probe(kernel))

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._patched):
            setattr(owner, attr, value)
        self._patched.clear()

    def write_spans(self, path: Path) -> None:
        """One JSON array per line: id, parent id, name, start, seconds."""
        with open(path, "w", encoding="utf-8") as fh:
            for record in self.records:
                fh.write(json.dumps(record) + "\n")

    # -- metrics -----------------------------------------------------------------

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics as name -> (value, unit). Times named
        "<module>.<function>.s" are self times; "cli.<command>.s" is the
        inclusive time of that command's operations."""
        c, calls, self_s = self.counts, self.calls, self.self_s
        rows = Counter(j["kind"] for cert in self.certificates for e in cert.entries
                       for j in e.data.get("justifications", {}).values())
        gens = self.generations
        new = c["bfs_reached"] - c["bfs_fresh"]
        nfas = calls["shuffle.build_shuffle_nfa"]
        out = {
            "reach.bfs_reach.s": (self_s["reach.bfs_reach"], "s"),
            "reach.bfs.generations": (len(gens), "count"),
            "reach.bfs.reached": (c["bfs_reached"], "count"),
            "reach.bfs.frontier_peak": (max((f for f, _ in gens), default=0), "count"),
            "reach.bfs.gen_max_s": (max((s for _, s in gens), default=0.0), "s"),
            "reach.bfs.letter_applications": (c["letter_applications"], "count"),
            "reach.bfs.new_per_application": (
                new / c["letter_applications"] if c["letter_applications"] else 0.0,
                "ratio"),
            "reach.write_checkpoint.bytes": (c["write_bytes"], "bytes"),
            "reach.read_checkpoint.bytes": (c["read_bytes"], "bytes"),
            "reach.certificate.bytes": (c["certificate_bytes"], "bytes"),
            "reach.certificate.rows": (sum(rows.values()), "count"),
            "automata.determinize.states": (c["determinize_states"], "count"),
            "search.candidates_evaluated": (c["candidates_evaluated"], "count"),
            "search.evaluations_per_nfa": (
                c["candidates_evaluated"] / nfas if nfas else 0.0, "ratio"),
            "cli.main.s": (self_s["cli.main"], "s"),
        }
        for kind in KINDS:
            out[f"reach.certificate.rows.{kind}"] = (rows[kind], "count")
        for r in REDUCTIONS:
            name = "reach.reduce_" + r
            out[name + ".hit_ratio"] = (
                c[f"reduce_{r}.hits"] / calls[name] if calls[name] else 0.0, "ratio")
        for name in ("reach.write_checkpoint", "reach.read_checkpoint",
                     "reach.extremal_step", "automata.determinize",
                     "automata.minimize", "shuffle.shuffle_state_complexity",
                     "shuffle.build_shuffle_nfa", "search.pair_canonical_key",
                     *(f"reach.reduce_{r}" for r in REDUCTIONS)):
            out[name + ".calls"] = (calls[name], "count")
            out[name + ".s"] = (self_s[name], "s")
        out["automata.state_complexity.calls"] = (
            calls["automata.state_complexity"], "count")
        for name in ("reach.load_letters", "reach.certify", "reach.verify_certificate",
                     "reach.Certificate.to_json", "automata.load_dfa",
                     "search.max_shuffle_complexity", "disting.unique_in_subgraph",
                     "disting.uniquely_distinguishable"):
            out[name + ".s"] = (self_s[name], "s")
        for command in COMMANDS:
            out[f"cli.{command}.s"] = (self.total[f"cli.{command}"], "s")
        return out
