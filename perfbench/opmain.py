"""One traced wgk CLI invocation.

usage: python3 perfbench/opmain.py SPANS_FILE ARG...

Installs the benchmark's spans, runs ``wgk ARG...``, writes the spans to
SPANS_FILE once at exit and exits with the CLI's code.
"""

import sys

import tracer


def main():
    spans_file, args = sys.argv[1], sys.argv[2:]
    rec = tracer.Recorder()
    rec.install()
    from wgk import cli
    try:
        code = cli.main(args)
    finally:
        rec.uninstall()
        rec.dump(spans_file)
    return code


if __name__ == "__main__":
    sys.exit(main())
