"""One permcheck job in its own process, as a user would run it.

    python3 perfbench/child.py --meta META.json [--trace] [--import-only] -- <permcheck args>

The report goes to standard output and the exit code is permcheck's own.
META.json receives the monotonic time at which `import permcheck` finished
(the parent subtracts its spawn time to get the set-up time) and, with
--trace, the per-name span sums of `tracer.summarize`.  The package is
imported from the `src` directory next to this benchmark, never from
anywhere else.
"""

import argparse
import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def main(argv) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--meta", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--import-only", action="store_true")
    parser.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args

    import permcheck.cli

    imported_at = time.perf_counter()
    package_dir = os.path.dirname(os.path.abspath(permcheck.__file__))
    if os.path.dirname(package_dir) != SRC:
        sys.stderr.write(f"perfbench: permcheck was imported from {package_dir}, not {SRC}\n")
        return 97

    meta = {"imported_at": imported_at}
    rc = 0
    if args.import_only:
        pass
    elif args.trace:
        from tracer import Tracer, summarize

        tracer = Tracer()
        tracer.install()
        try:
            rc = permcheck.cli.run(cli_args)
        finally:
            tracer.uninstall()
        meta["layers"] = summarize(tracer.spans)
    else:
        rc = permcheck.cli.run(cli_args)
    sys.stdout.flush()
    with open(args.meta, "w") as fh:
        json.dump(meta, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
