"""Import alias kept only for the frozen ``benchmarks/ledger`` harness;
it dies with the next benchmark re-baseline."""

from repro.api.server import CaladriusServer

AsyncCaladriusServer = CaladriusServer
