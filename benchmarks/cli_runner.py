"""One traced tritave CLI call, for the traced cli-mix run.

    python -X importtime benchmarks/cli_runner.py SPANS.json ARG...

Imports the CLI exactly as ``python -m tritave`` does, before anything
else, so the importtime rows attribute every stdlib import to tritave.
Then it wraps the layers, calls ``cli.main(ARG...)``, writes the spans to
SPANS.json and exits with the CLI's exit code.
"""

import sys

import tritave.cli

import spans  # noqa: E402  (after the tritave import, see above)


def main() -> int:
    span_file, argv = sys.argv[1], sys.argv[2:]
    tracer = spans.Tracer()
    tracer.install()
    try:
        code = tritave.cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    finally:
        sys.stdout.flush()
        tracer.dump(span_file)
    return code


if __name__ == "__main__":
    sys.exit(main())
