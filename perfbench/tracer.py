"""Spans around probeforge's public calls, recorded from outside the package.

``install`` rebinds the module attributes through which probeforge calls its
own layers (``probeforge.runner.fit``, ``probeforge.ingest.load_chip_table``
and so on) to timing wrappers. Spans stay in memory: the measured process
writes its own at the end, and a forked pool worker, which inherits the
wrappers, writes its spans when it exits. Each process writes one
``spans-<pid>.jsonl`` file in the trace directory.

A span is ``[name, id, parent id, start, end, attrs]`` with
``time.perf_counter`` times, one clock for every process on the machine.
Attributes hold what the analysis needs from arguments and results: shapes,
sampler kind, row counts, file sizes.
"""

from __future__ import annotations

import json
import os
import time
from multiprocessing import util


def _nbytes(*arrays) -> int:
    return sum(int(getattr(a, "nbytes", 0)) for a in arrays)


def _draw_attrs(args, kwargs, result):
    req = args[0] if args else kwargs["req"]
    attrs = {"kind": req.kind.value, "n": req.n, "k": req.k,
             "aux_bytes": _nbytes(req.fractions, req.embeddings, req.elevations)}
    if req.embeddings is not None:
        attrs["d"] = int(req.embeddings.shape[1])
    return attrs


def _split_attrs(args, kwargs, result):
    aux = list(args[5:8]) + [kwargs.get(k) for k in
                             ("fractions", "embeddings", "elevations")]
    return {"aux_bytes": _nbytes(*aux)}


def _fit_attrs(args, kwargs, result):
    X = args[0] if args else kwargs["X"]
    n, d = X.shape
    return {"n": int(n), "d": int(d), "rank": result.effective_rank}


def _emb_attrs(args, kwargs, result):
    return {"bytes": os.path.getsize(args[0]) + os.path.getsize(args[1])}


def _grid_attrs(args, kwargs, result):
    return {"threads": int(kwargs.get("threads", args[3] if len(args) > 3 else 1))}


# (module, attribute, span name, attribute extractor)
TARGETS = (
    ("cli", "load_dataset_dir", "ingest.load_dataset_dir", None),
    ("ingest", "load_chip_table", "ingest.load_chip_table",
     lambda a, k, r: {"chips": len(r)}),
    ("ingest", "load_embeddings", "ingest.load_embeddings", _emb_attrs),
    ("ingest", "assemble_dataset", "core.assemble_dataset",
     lambda a, k, r: {"rows": len(r)}),
    ("cli", "run_grid", "runner.run_grid", _grid_attrs),
    ("runner", "enumerate_grid", "runner.enumerate_grid",
     lambda a, k, r: {"specs": len(r)}),
    ("runner", "run_experiment", "runner.run_experiment", None),
    ("runner", "write_results_file", "runner.write_results_file", None),
    ("runner", "draw", "sampling.draw", _draw_attrs),
    ("runner", "split_target", "sampling.split_target", _split_attrs),
    ("sampling", "draw", "sampling.draw", _draw_attrs),
    ("runner", "fit", "probe.fit", _fit_attrs),
    ("runner", "predict", "probe.predict", None),
    ("runner", "pearson", "metrics.pearson", None),
    ("runner", "rmse", "metrics.rmse", None),
    ("runner", "aggregate", "metrics.aggregate", None),
    ("cli", "parse_results_file", "report.parse_results_file", None),
    ("cli", "selection_table", "report.selection_table", None),
    ("cli", "selection_text", "report.selection_text", None),
)


class Tracer:
    """In-memory span recorder for one process and the workers it forks."""

    def __init__(self, out_dir: str) -> None:
        self.out_dir = out_dir
        self._reset()

    def _reset(self) -> None:
        self.pid = os.getpid()
        self.spans: list[list] = []
        self.stack: list[int] = []

    def _adopt_fork(self) -> None:
        # First span in a forked worker: drop the parent's spans and flush
        # this worker's at exit. multiprocessing runs its finalizers when a
        # worker leaves its run loop, which os._exit would otherwise skip.
        self._reset()
        util.Finalize(None, self.flush, exitpriority=100)

    def wrap(self, name: str, fn, attrs=None):
        def traced(*args, **kwargs):
            if os.getpid() != self.pid:
                self._adopt_fork()
            sid = len(self.spans)
            span = [name, sid, self.stack[-1] if self.stack else None, 0.0, 0.0, None]
            self.spans.append(span)
            self.stack.append(sid)
            span[3] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[4] = time.perf_counter()
                span[5] = {"error": True}
                raise
            else:
                span[4] = time.perf_counter()
                if attrs is not None:
                    span[5] = attrs(args, kwargs, result)
                return result
            finally:
                self.stack.pop()

        return traced

    def install(self, modules: dict) -> None:
        """Rebind every target in ``modules`` (short name -> module)."""
        for mod, attr, name, attrs in TARGETS:
            setattr(modules[mod], attr, self.wrap(name, getattr(modules[mod], attr), attrs))

    def flush(self) -> None:
        path = os.path.join(self.out_dir, f"spans-{self.pid}.jsonl")
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def load_spans(trace_dir: str) -> list[dict]:
    """All spans of one traced iteration, tagged with their process id."""
    out = []
    for fname in sorted(os.listdir(trace_dir)):
        if not (fname.startswith("spans-") and fname.endswith(".jsonl")):
            continue
        pid = int(fname[len("spans-"):-len(".jsonl")])
        with open(os.path.join(trace_dir, fname), encoding="utf-8") as fh:
            for line in fh:
                name, sid, parent, t0, t1, attrs = json.loads(line)
                out.append({"name": name, "pid": pid, "id": sid, "parent": parent,
                            "t0": t0, "t1": t1, "attrs": attrs or {}})
    return out
