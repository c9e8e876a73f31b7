"""One measured probeforge command, in a fresh process.

    python3 measured.py --result R.json [--trace-dir D] -- <probeforge args>
    python3 measured.py --result R.json --memtrace DATA_DIR

The first import is ``probeforge.cli``, as with the console script, so
anything the CLI does at import time (such as setting BLAS thread defaults)
takes effect here too. The command then runs through ``cli.main``.

Two timers wrap ``load_dataset_dir`` and ``run_grid`` as the CLI calls them;
with ``--trace-dir`` every public call in ``tracer.TARGETS`` is traced as
well. ``--memtrace`` instead loads a dataset directory under tracemalloc and
records the peak. ``R.json`` gets the exit code, the timings, the fit count
and the process's peak RSS.
"""

import sys
import time

t_start = time.perf_counter()
from probeforge import cli  # noqa: E402  (must be the first import of probeforge)

t_imported = time.perf_counter()

import json  # noqa: E402
import resource  # noqa: E402


def _timed(fn, out: dict, key: str):
    def timed(*args, **kwargs):
        t0 = time.perf_counter()
        result = fn(*args, **kwargs)
        out[key] = out.get(key, 0.0) + time.perf_counter() - t0
        if key == "grid_s":
            out["specs"] = len(result)
            out["fits"] = sum(r.spec.repetitions for r in result if not r.infeasible)
        return result
    return timed


def _memtrace(data_dir: str, out: dict) -> int:
    import tracemalloc

    tracemalloc.start()
    cli.load_dataset_dir(data_dir)
    out["load_peak_bytes"] = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    return 0


def main(argv: list[str]) -> int:
    sep = argv.index("--") if "--" in argv else len(argv)
    own, command = argv[:sep], argv[sep + 1:]
    opts = dict(zip(own[::2], own[1::2]))
    out = {"import_s": t_imported - t_start}
    if "--memtrace" in opts:
        code = _memtrace(opts["--memtrace"], out)
    else:
        tracer = None
        if "--trace-dir" in opts:
            import tracer as tracing
            from probeforge import ingest, runner, sampling

            tracer = tracing.Tracer(opts["--trace-dir"])
            tracer.install({"cli": cli, "ingest": ingest, "runner": runner,
                            "sampling": sampling})
        cli.load_dataset_dir = _timed(cli.load_dataset_dir, out, "setup_s")
        cli.run_grid = _timed(cli.run_grid, out, "grid_s")
        run = cli.main if tracer is None else tracer.wrap("cli.main", cli.main)
        code = run(command)
        sys.stdout.flush()
        if tracer is not None:
            tracer.flush()
    out["exit"] = code
    out["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    with open(opts["--result"], "w", encoding="utf-8") as fh:
        json.dump(out, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
