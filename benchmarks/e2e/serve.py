"""Start ``python -m repro`` for the benchmark, instrumented when traced.

Usage: ``python serve.py serve [repro serve options]`` with ``repro`` on
``PYTHONPATH``.  With ``--trace PATH`` the bench-side layer spans of
:mod:`instrument` are installed first, so the server and the pool workers
it forks record them into the same trace as the client.
"""

import sys

if __name__ == "__main__":
    if "--trace" in sys.argv:
        import instrument

        instrument.install()
    from repro.cli import main

    sys.exit(main(sys.argv[1:]))
