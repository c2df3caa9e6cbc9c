"""Run one coverext command in this process under probes, then save the spans.

Usage: python3 clitrace.py SPANS_JSON COMMAND [ARG ...]

The command's stdout, stderr and exit code are those of ``coverext.cli``;
the spans and counts go to SPANS_JSON. Needs coverext on PYTHONPATH.
"""

import sys

import tracing


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    from coverext import cli

    tracer = tracing.Tracer()
    with tracing.cli_tracing(tracer):
        with tracer.span("cli.main"):
            code = cli.main(argv)
    sys.stdout.flush()
    tracer.dump(spans_path)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
