"""Simulated binary images: modules, functions, symbols, weak symbols.

An :class:`Image` is the simulated process's executable plus its linked
libraries, as a performance tool sees them: a symbol table mapping names to
functions, grouped into modules.  Two features matter for reproducing the
paper:

* **Weak symbols** (Section 4.1.1).  A default MPICH build exports
  ``MPI_Send`` as a *weak* alias for the strong symbol ``PMPI_Send``; an
  application call to ``MPI_Send`` therefore executes -- and is instrumented
  as -- ``PMPI_Send``.  Linking a PMPI profiling library interposes a strong
  ``MPI_Send`` wrapper that calls ``PMPI_Send``.  Both shapes are modelled
  here; the tool's metric definitions must list both ``MPI_*`` and ``PMPI_*``
  names to catch either (the Paradyn 4.0 bug the paper fixes).
* **Per-process instrumentation** (one Image instance per process, as
  paradynd instruments each mutatee separately).

Library images are *lazy*.  :meth:`Image.link_library` links a shared,
fully built template by reference: the image's symbol table and module
dictionaries start as copies of the template's, holding the template's own
``FunctionDef`` objects as placeholders.  The first lookup that returns a
library function replaces its placeholder with this image's own
``FunctionDef`` (fresh instrumentation points, shared body and tags), in
place, so dictionary order -- and with it every enumeration -- is exactly
that of an image filled eagerly through :meth:`Image.add_function`.  A rank
therefore holds only the library functions it resolved; whole-image views
(:meth:`Image.functions`, :attr:`Image.modules`) instantiate everything
first.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Generator, Iterable, Optional

from .snippets import Snippet

__all__ = ["FunctionDef", "Module", "Image", "ImageError"]

#: body(proc, *args) -> generator yielding simulation effects
FunctionBody = Callable[..., Generator]


class ImageError(RuntimeError):
    """Raised for unknown symbols and malformed images."""


class FunctionDef:
    """One function in the image, with entry/return instrumentation points.

    ``tags`` classify the function for metric function-sets (``mpi``,
    ``sync``, ``io``, ``rma`` ...); the MDL compiler resolves ``foreach func
    in <set>`` against them.
    """

    __slots__ = ("name", "module", "body", "tags", "_entry", "_exit")

    def __init__(
        self,
        name: str,
        module: "Module",
        body: FunctionBody,
        tags: Iterable[str] = (),
    ) -> None:
        self.name = name
        self.module = module
        self.body = body
        self.tags = frozenset(tags)
        # instrumentation-point lists are created on first insert: most
        # functions in most processes are never instrumented, and at
        # thousands of ranks the eager pair of empty lists per
        # FunctionDef is measurable launch cost
        self._entry: Optional[list[Snippet]] = None
        self._exit: Optional[list[Snippet]] = None

    # instrumentation points -------------------------------------------------

    def insert(self, snippet: Snippet, *, where: str, order: str = "append") -> None:
        point = self._point(where)
        if order == "append":
            point.append(snippet)
        elif order == "prepend":
            point.insert(0, snippet)
        else:
            raise ImageError(f"unknown insertion order {order!r}")

    def remove(self, snippet: Snippet, *, where: str) -> None:
        point = self._point(where)
        try:
            point.remove(snippet)
        except ValueError:
            raise ImageError(
                f"snippet {snippet.label!r} not installed at {self.name}.{where}"
            ) from None

    def _point(self, where: str) -> list[Snippet]:
        if where == "entry":
            if self._entry is None:
                self._entry = []
            return self._entry
        if where == "return":
            if self._exit is None:
                self._exit = []
            return self._exit
        raise ImageError(f"unknown instrumentation point {where!r}")

    _NO_SNIPPETS: list[Snippet] = []

    def entry_snippets(self) -> list[Snippet]:
        entry = self._entry
        return entry if entry is not None else self._NO_SNIPPETS

    def exit_snippets(self) -> list[Snippet]:
        exit_ = self._exit
        return exit_ if exit_ is not None else self._NO_SNIPPETS

    @property
    def instrumented(self) -> bool:
        return bool(self._entry or self._exit)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<FunctionDef {self.module.name}:{self.name}>"


@dataclass
class Module:
    """A compilation unit or library in the image.

    ``system=True`` marks runtime libraries (libc, libmpi) that the
    Performance Consultant excludes from user-code search by default --
    though MPI entry points remain visible as refinement targets through the
    metric function-sets.
    """

    name: str
    system: bool = False
    functions: dict[str, FunctionDef] = field(default_factory=dict)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Module {self.name} funcs={len(self.functions)}>"


class Image:
    """Symbol table + modules for one simulated process."""

    def __init__(self, name: str = "a.out") -> None:
        self.name = name
        self._modules: dict[str, Module] = {}
        self._symbols: dict[str, FunctionDef] = {}
        self._weak_aliases: dict[str, str] = {}
        #: bumped on every symbol-table change; processes key their
        #: name-resolution caches on it (see SimProcess.call)
        self.version = 0
        #: the linked library template while some of its functions still
        #: stand as placeholders in this image (see the module docstring)
        self._library: Optional["Image"] = None

    # construction ------------------------------------------------------------

    def module(self, name: str, *, system: bool = False) -> Module:
        mod = self._modules.get(name)
        if mod is None:
            mod = Module(name=name, system=system)
            self._modules[name] = mod
        return mod

    def add_function(
        self,
        name: str,
        body: FunctionBody,
        *,
        module: str = "a.out",
        system: bool = False,
        tags: Iterable[str] = (),
    ) -> FunctionDef:
        """Define a strong symbol.  Redefinition is an error (one image ==
        one link step; interposition uses :meth:`add_wrapper`)."""
        if name in self._symbols:
            raise ImageError(f"duplicate strong symbol {name!r}")
        mod = self.module(module, system=system)
        fn = FunctionDef(name, mod, body, tags=tags)
        mod.functions[name] = fn
        self._symbols[name] = fn
        self._weak_aliases.pop(name, None)  # strong definition wins
        self.version += 1
        return fn

    def link_library(self, template: "Image") -> None:
        """Link every module of ``template`` into this empty image, by
        reference.

        ``template`` is a complete image shared by every process of a
        personality and must not change afterwards.  Its functions become
        this image's own ``FunctionDef`` objects (instrumentation points are
        per-process state, as paradynd instruments each mutatee separately)
        only when first looked up; until then the template's stand in as
        placeholders.  One version bump covers the whole link.
        """
        if self._modules or self._symbols or self._weak_aliases:
            raise ImageError(f"image {self.name!r}: link the library before anything else")
        self._modules = {
            name: Module(name, tmod.system, dict(tmod.functions))
            for name, tmod in template._modules.items()
        }
        self._symbols = dict(template._symbols)
        self._weak_aliases = dict(template._weak_aliases)
        self._library = template
        self.version += 1

    def _own(self, name: str, fn: FunctionDef) -> FunctionDef:
        """``fn`` if it is this image's; for a library placeholder, this
        image's own instance of that function, created once and put in the
        placeholder's place in the symbol table and its module."""
        library = self._library
        if library is None or library._symbols.get(name) is not fn:
            return fn
        mod = self._modules[fn.module.name]
        mine = FunctionDef(name, mod, fn.body, tags=fn.tags)
        if mod.functions.get(name) is fn:
            mod.functions[name] = mine
        if self._symbols.get(name) is fn:
            self._symbols[name] = mine
        return mine

    def _own_all(self) -> None:
        """Instantiate every remaining library placeholder."""
        if self._library is None:
            return
        own = self._own
        for mod in self._modules.values():
            for name, fn in list(mod.functions.items()):
                own(name, fn)
        self._library = None

    @property
    def modules(self) -> dict[str, Module]:
        """Module name -> :class:`Module`, every function instantiated."""
        self._own_all()
        return self._modules

    def interpose(
        self,
        name: str,
        body: FunctionBody,
        *,
        module: str = "libwrapper.so",
        tags: Iterable[str] = (),
    ) -> FunctionDef:
        """Interpose a strong symbol over an existing definition or weak
        alias -- the PMPI profiling-library link trick (Section 4.1.1 /
        4.2.2 of the paper): the wrapper becomes what application calls
        resolve to, and typically calls the ``PMPI_`` strong symbol."""
        mod = self.module(module, system=True)
        fn = FunctionDef(name, mod, body, tags=tags)
        mod.functions[name] = fn
        self._symbols[name] = fn
        self._weak_aliases.pop(name, None)
        self.version += 1
        return fn

    def add_weak_alias(self, alias: str, target: str) -> None:
        """Declare ``alias`` as a weak symbol for ``target``.

        A strong symbol with the same name (already present or added later)
        overrides the alias, matching ELF link semantics.
        """
        if target not in self._symbols:
            raise ImageError(f"weak alias {alias!r} -> undefined symbol {target!r}")
        if alias in self._symbols:
            return  # strong symbol already wins
        self._weak_aliases[alias] = target
        self.version += 1

    # lookup --------------------------------------------------------------------

    def resolve(self, name: str) -> FunctionDef:
        """Resolve a call by name, following weak aliases."""
        fn = self._symbols.get(name)
        if fn is None:
            target = self._weak_aliases.get(name)
            if target is None:
                raise ImageError(f"undefined symbol {name!r} in image {self.name!r}")
            name = target
            fn = self._symbols[target]
        if self._library is not None:
            fn = self._own(name, fn)
        return fn

    def lookup(self, name: str) -> Optional[FunctionDef]:
        """Like :meth:`resolve` but returns None for undefined symbols."""
        try:
            return self.resolve(name)
        except ImageError:
            return None

    def lookup_strong(self, name: str) -> Optional[FunctionDef]:
        """Look up a *function symbol* without following weak aliases.

        This is how a tool's symbol-table scan sees the binary: in a
        default MPICH build the code's function is ``PMPI_Send``; metric
        definitions that only name ``MPI_Send`` find nothing -- the
        Paradyn 4.0 gap Section 4.1.1 of the paper fixes by adding the
        PMPI names to the definitions."""
        fn = self._symbols.get(name)
        if fn is not None and self._library is not None:
            fn = self._own(name, fn)
        return fn

    def defines(self, name: str) -> bool:
        return name in self._symbols or name in self._weak_aliases

    def functions(self) -> Iterable[FunctionDef]:
        self._own_all()
        return self._symbols.values()

    def functions_tagged(self, tag: str) -> list[FunctionDef]:
        own = self._own
        return [own(name, fn) for name, fn in self._symbols.items() if tag in fn.tags]

    def app_functions(self) -> list[FunctionDef]:
        """Functions in non-system modules (the Code hierarchy's contents)."""
        own = self._own
        return [
            own(name, fn) for name, fn in self._symbols.items() if not fn.module.system
        ]

    def symbol_table(self) -> list[tuple[str, str, bool, frozenset[str]]]:
        """``(module, function, system, tags)`` of every function symbol, in
        symbol order -- what a tool's symbol-table scan reads.  Instantiates
        no library function."""
        return [
            (fn.module.name, name, fn.module.system, fn.tags)
            for name, fn in self._symbols.items()
        ]

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Image {self.name} symbols={len(self._symbols)}>"
