"""Exact F_p computer algebra for permanental ideals and Frobenius-power criteria."""

__version__ = "0.1.0"


def _lazy_attributes(module_name: str, table: dict):
    """A module __getattr__ (PEP 562) for the module `module_name` of this
    package: a name of `table` that the module does not define is read, on
    every access, from the module of this package that table[name] names,
    imported on first use.  A job then compiles only the modules it runs."""
    from importlib import import_module

    def __getattr__(name):
        source = table.get(name)
        if source is None:
            raise AttributeError(f"module {module_name!r} has no attribute {name!r}")
        return getattr(import_module(f".{source}", __name__), name)

    return __getattr__
