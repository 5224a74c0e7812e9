"""``python -m benchmarks.ledger run|compare`` (from the repository root)."""

from benchmarks.ledger.run import bootstrap

bootstrap()

from benchmarks.ledger.cli import main  # noqa: E402

raise SystemExit(main())
