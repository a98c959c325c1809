"""Exact Laurent expansions for multivariate germs with linear poles.

All arithmetic runs over the rationals (fractions.Fraction); no floats
enter any computation except the explicitly numeric lattice-sum oracle.

``import laurentgerms`` loads only ``errors`` and binds its error classes.
The first read of any other package attribute (PEP 562) loads the modules
below and binds each one's ``__all__`` at once, so that the package then
holds what an eager import would.  Inside the package, modules import each
other as ``from .module import name``: ``from . import module`` reads a
package attribute and so loads them all.
"""

from .errors import *  # noqa: F401,F403

__version__ = "0.1.0"


def _bind_exports():
    """Import every module, bind its ``__all__`` here and drop the hooks.

    The names are bound in one go: bound one per read, a name first read
    while its module function is temporarily replaced (as a tracer does)
    would keep the replacement here.
    """
    from importlib import import_module

    namespace = globals()
    for module in ("exact", "germs", "cones", "expand", "residues",
                   "latticeexp", "exprio"):
        home = import_module(f"{__name__}.{module}")
        namespace.update((name, getattr(home, name)) for name in home.__all__)
    for hook in ("_bind_exports", "__getattr__", "__dir__"):
        namespace.pop(hook, None)
    return namespace


def __getattr__(name: str):
    try:
        return _bind_exports()[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}") from None


def __dir__():
    return sorted(_bind_exports())
