"""Independent verdict checks of the CLI's outputs.

Each check returns None when the output is right and a one-line reason when
it is not.  No check trusts the recognizer that produced the verdict:

* an accepted graph must come with an apex ordering whose realization
  (built by ``realize``) matches the graph pair by pair under the oracles'
  exact integer triangle geometry;
* an accepted order must come with an extension and intervals whose linear
  order and interval order intersect to exactly the input order, checked
  here with plain comparisons;
* a rejection must match the expected answer (by construction or recorded),
  and a stated obstruction must be rejected by the geometric oracle;
* an ``oracle verify`` report must agree with itself and with the expected
  answer.
"""
from __future__ import annotations

from itertools import combinations
from typing import Optional

from corpora import Instance, closure

REJECT_GRAPH = "not a simple-triangle graph"
REJECT_ORDER = "not a linear-interval order"


class Checker:
    """Checks outputs against a library handle ``lib`` (a ``run.Library``).

    Obstruction checks are memoized per induced edge set, because the
    workload seed only relabels the obstructions.
    """

    def __init__(self, lib):
        self.lib = lib
        self._obstruction_rejected: dict[tuple, bool] = {}
        self.backed = 0
        self.rejections = 0

    def check(self, inst: Instance, command: str, code: int, out: str) -> Optional[str]:
        if code == 2:
            return "input error (exit 2)"
        if command == "oracle":
            return self._check_report(inst, code, out)
        verdict = "accept" if code == 0 else "reject"
        if inst.expect is not None and verdict != inst.expect:
            return f"{verdict}ed, expected {inst.expect} ({inst.source})"
        if verdict == "reject":
            self.rejections += 1
            first = out.splitlines()[0] if out else ""
            if first != (REJECT_GRAPH if inst.kind == "graph" else REJECT_ORDER):
                return f"unexpected rejection output {first!r}"
            return self._check_obstruction(inst)
        if inst.kind == "graph":
            return self._check_realization(inst, out.strip())
        return self._check_intervals(inst, out)

    def _check_obstruction(self, inst: Instance) -> Optional[str]:
        if inst.obstruction is None:
            return None
        verts = inst.obstruction
        edges = set(inst.items)
        key = tuple(
            (i, j)
            for i, j in combinations(range(len(verts)), 2)
            if (min(verts[i], verts[j]), max(verts[i], verts[j])) in edges
        )
        if key not in self._obstruction_rejected:
            small = self.lib.graphs.Graph(len(verts), frozenset(key))
            found = self.lib.oracles.geometric_search_realization(small)
            self._obstruction_rejected[key] = found is None
        if not self._obstruction_rejected[key]:
            return f"obstruction {verts} is realizable"
        self.backed += 1
        return None

    def _check_realization(self, inst: Instance, line: str) -> Optional[str]:
        lib = self.lib
        try:
            ordering = tuple(int(tok) for tok in line.split())
        except ValueError:
            return f"unparsable ordering {line!r}"
        if sorted(ordering) != list(range(inst.n)):
            return f"ordering {line!r} is not a permutation"
        g = lib.graphs.Graph(inst.n, frozenset(inst.items))
        try:
            rep = lib.recognition.realize(g, ordering)
        except lib.errors.SimpleTriError as exc:
            return f"ordering does not realize: {exc}"
        edges = set(inst.items)
        for u, v in combinations(range(inst.n), 2):
            if lib.oracles.exact_triangle_intersection(rep, u, v) != ((u, v) in edges):
                return f"realization wrong on pair {u},{v}"
        return None

    def _check_intervals(self, inst: Instance, out: str) -> Optional[str]:
        fields = dict(line.split(": ", 1) for line in out.splitlines() if ": " in line)
        try:
            ext = [int(tok) for tok in fields["extension"].split()]
            iv = {}
            for tok in fields["intervals"].split():
                v, span = tok.split(":")
                lo, hi = span.strip("[]").split(",")
                iv[int(v)] = (int(lo), int(hi))
        except (KeyError, ValueError):
            return "unparsable order output"
        n = inst.n
        if sorted(ext) != list(range(n)) or sorted(iv) != list(range(n)):
            return "extension or intervals do not cover the ground set"
        if any(lo >= hi for lo, hi in iv.values()):
            return "degenerate interval"
        pos = {v: i for i, v in enumerate(ext)}
        less = closure(n, inst.items)
        for u in range(n):
            for v in range(n):
                if u == v:
                    continue
                both = pos[u] < pos[v] and iv[u][1] < iv[v][0]
                if both != bool(less[u] >> v & 1):
                    return f"intersection differs from the order at {u} < {v}"
        return None

    def _check_report(self, inst: Instance, code: int, out: str) -> Optional[str]:
        fields = dict(line.split(": ", 1) for line in out.splitlines() if ": " in line)
        recognized = fields.get("recognize")
        oracle = fields.get("geometric search")
        if fields.get("agreement") != "ok" or code != 0:
            return f"oracle report disagrees (exit {code})"
        if (recognized, oracle) not in (("accept", "realizable"), ("reject", "none")):
            return f"recognize {recognized!r} vs geometric search {oracle!r}"
        if inst.expect is not None and recognized != inst.expect:
            return f"{recognized}ed, expected {inst.expect}"
        if recognized == "reject":
            self.rejections += 1
        return None
