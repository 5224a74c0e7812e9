"""Configuration management for the Caladrius service.

The paper's API tier "fulfills system-wide common shared logistics
including configuration management" and notes "the model implementations
are configurable through YAML files and the client can specify which
models are used when they make requests" (Sections III-A/III-B).  This
package loads and validates that YAML, and builds the configured model
registry.
"""

from repro._lazy import lazy_exports

__getattr__, __all__ = lazy_exports(
    __name__,
    {
        "loader": ("load_config",),
        "registry": ("build_registry",),
    },
)
