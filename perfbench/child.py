"""One benchmark process in a fresh interpreter.

    child.py run <trace-file|-> cli <omsal arguments...>
    child.py run <trace-file|-> paths <input.cov>
    child.py base <out-dir> <spec> <fmt> [<spec> <fmt> ...]

`run` times `import omsal.cli` and reports it as the last stderr line,
`perfbench setup_s=<seconds>`.  With a trace file it wraps the package's
boundaries (see tracer.py) and writes the spans there when the job ends.
A `cli` job is one `omsal` command; a `paths` job is a library script
that loads a covector file and enumerates the minimal positive paths of
every ordered pair of distinct topes.

`base` writes the base text of each fixture spec in each format via
`omsal gen`, into <out-dir>/<spec>.<fmt> with ':' replaced by '_'.
"""

import contextlib
import io
import sys
import time
from pathlib import Path


def all_pairs_paths(path):
    import omsal
    from omsal import fileio

    m = fileio.load_oriented_matroid(path)
    topes = m.topes()
    total = 0
    for t in topes:
        for s in topes:
            if s != t:
                total += len(omsal.minimal_positive_paths(m, t, s))
    print(f"topes={len(topes)} paths={total}")
    return 0


def write_base(cli, out_dir, pairs):
    for spec, fmt in zip(pairs[::2], pairs[1::2]):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(["gen", "--fixture", spec, "--format", fmt])
        if code != 0:
            return code
        name = spec.replace(":", "_") + "." + fmt
        (Path(out_dir) / name).write_text(buf.getvalue())
    return 0


def main(argv):
    t0 = time.perf_counter()
    import omsal.cli
    setup_s = time.perf_counter() - t0
    if argv[0] == "base":
        return write_base(omsal.cli, argv[1], argv[2:])
    trace_file, kind, rest = argv[1], argv[2], argv[3:]
    tracer = None
    if trace_file != "-":
        import tracer as tracing
        tracer = tracing.install()
    try:
        if kind == "cli":
            return omsal.cli.main(rest)
        return all_pairs_paths(rest[0])
    finally:
        sys.stdout.flush()
        if tracer is not None:
            tracer.dump(trace_file)
        print(f"perfbench setup_s={setup_s!r}", file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
