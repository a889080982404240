"""Charts: named coordinates, group parameters, opaque function symbols.

Every scalar value in the package is a rational function in the variables of
one chart.  Variables are identified internally by orderable structural keys
so that the monomial order (and with it every canonical form) is reproducible
across runs:

    (0, i)                 the i-th coordinate
    (1, j)                 the j-th group parameter
    (2, k, len(I), I)      derivative symbol of the k-th opaque function,
                           I a sorted tuple of argument positions

Sorting the multi-index I encodes commutativity of partial derivatives: f_xp
and f_px are the same variable.
"""

from __future__ import annotations

from collections import namedtuple

from .errors import UnknownName

# Kind tags for variable keys.
KIND_COORD = 0
KIND_PARAM = 1
KIND_DERIV = 2


class OpaqueFunction(namedtuple("OpaqueFunction", "name args")):
    """An unknown function symbol with a fixed ordered argument list.

    Only the arguments declared here can produce nonzero partials; a
    derivative with respect to any other variable is identically zero.
    """

    __slots__ = ()


class Chart:
    """An immutable coordinate chart.

    ``coords`` and ``params`` together form the basis directions of
    differential forms (parameters are differentiated like coordinates, e.g.
    da3 is a legitimate 1-form).  ``functions`` declares the opaque symbols
    available on the chart as ``(name, args)`` pairs, ``OpaqueFunction``
    among them; every argument must be a declared coordinate.
    """

    __slots__ = ("coords", "params", "functions", "_index")

    def __init__(self, coords, params=(), functions=()):
        self.coords = tuple(coords)
        self.params = tuple(params)
        self.functions = tuple(
            OpaqueFunction(name, tuple(args)) for name, args in functions
        )

        names = {}
        for i, c in enumerate(self.coords):
            if c in names:
                raise ValueError(f"duplicate name {c!r}")
            names[c] = (KIND_COORD, i)
        for j, g in enumerate(self.params):
            if g in names:
                raise ValueError(f"duplicate name {g!r}")
            names[g] = (KIND_PARAM, j)
        for k, fn in enumerate(self.functions):
            if fn.name in names:
                raise ValueError(f"duplicate name {fn.name!r}")
            names[fn.name] = (KIND_DERIV, k, 0, ())
            for a in fn.args:
                if a not in names or names[a][0] != KIND_COORD:
                    raise ValueError(
                        f"argument {a!r} of {fn.name!r} is not a coordinate"
                    )
        self._index = names

    # ------------------------------------------------------------------
    # identity

    def __eq__(self, other):
        return (
            isinstance(other, Chart)
            and self.coords == other.coords
            and self.params == other.params
            and self.functions == other.functions
        )

    def __hash__(self):
        return hash((self.coords, self.params, self.functions))

    def __repr__(self):
        return (
            f"Chart(coords={self.coords!r}, params={self.params!r}, "
            f"functions={[f.name for f in self.functions]!r})"
        )

    # ------------------------------------------------------------------
    # dimensions and bases

    @property
    def dim(self) -> int:
        """Number of basis directions (coordinates plus parameters)."""
        return len(self.coords) + len(self.params)

    def basis_keys(self):
        """Variable keys of the form basis, coordinates first."""
        keys = [(KIND_COORD, i) for i in range(len(self.coords))]
        keys += [(KIND_PARAM, j) for j in range(len(self.params))]
        return keys

    def basis_names(self):
        return list(self.coords) + list(self.params)

    def basis_index(self, key) -> int:
        """Position of a coordinate/parameter key in the form basis."""
        kind = key[0]
        if kind == KIND_COORD:
            return key[1]
        if kind == KIND_PARAM:
            return len(self.coords) + key[1]
        raise UnknownName(f"{key!r} is not a basis direction")

    # ------------------------------------------------------------------
    # name lookup

    def key_of(self, name: str):
        """Key of a plain declared name (coordinate, parameter, function)."""
        try:
            return self._index[name]
        except KeyError:
            raise UnknownName(f"{name!r} is not declared on this chart") from None

    def has_name(self, name: str) -> bool:
        return name in self._index

    def deriv_key(self, fname: str, arg_names):
        """Key of a derivative symbol, e.g. deriv_key('f', ('p', 'p'))."""
        key = self.key_of(fname)
        if key[0] != KIND_DERIV:
            raise UnknownName(f"{fname!r} is not an opaque function")
        fn = self.functions[key[1]]
        positions = []
        for a in arg_names:
            try:
                positions.append(fn.args.index(a))
            except ValueError:
                raise UnknownName(
                    f"{a!r} is not an argument of {fname!r}"
                ) from None
        index = tuple(sorted(positions))
        return (KIND_DERIV, key[1], len(index), index)

    def extend_deriv(self, key, basis_key):
        """Differentiate the derivative symbol ``key`` along ``basis_key``.

        Returns the key of the higher symbol, or None when the direction is
        not an argument of the function (the partial vanishes).
        """
        _, fidx, _, index = key
        fn = self.functions[fidx]
        if basis_key[0] != KIND_COORD:
            return None
        cname = self.coords[basis_key[1]]
        try:
            pos = fn.args.index(cname)
        except ValueError:
            return None
        new_index = tuple(sorted(index + (pos,)))
        return (KIND_DERIV, fidx, len(new_index), new_index)

    def var_name(self, key) -> str:
        """Printable, re-parseable name of any variable key."""
        kind = key[0]
        if kind == KIND_COORD:
            return self.coords[key[1]]
        if kind == KIND_PARAM:
            return self.params[key[1]]
        _, fidx, n, index = key
        fn = self.functions[fidx]
        if n == 0:
            return fn.name
        return fn.name + "_" + "".join(fn.args[p] for p in index)

    def resolve(self, name: str):
        """Key of ``name``, allowing derivative spellings like ``f_pp``.

        The part after the underscore is matched greedily against the
        function's argument names (longest first), so multi-character
        coordinates such as ``dx1`` concatenate unambiguously; an empty
        part (``f_``) is refused.
        """
        if name in self._index:
            return self._index[name]
        fname, _, tail = name.partition("_")
        if tail and fname in self._index and self._index[fname][0] == KIND_DERIV:
            fn = self.functions[self._index[fname][1]]
            by_len = sorted(fn.args, key=len, reverse=True)
            args = []
            rest = tail
            while rest:
                for a in by_len:
                    if rest.startswith(a):
                        args.append(a)
                        rest = rest[len(a):]
                        break
                else:
                    raise UnknownName(
                        f"{name!r}: {rest!r} does not match arguments of {fname!r}"
                    )
            return self.deriv_key(fname, args)
        raise UnknownName(f"{name!r} is not declared on this chart")

    # ------------------------------------------------------------------
    # chart extension (keys of existing variables never change)

    def extend_coords(self, names):
        return Chart(self.coords + tuple(names), self.params, self.functions)

    def extend_params(self, names):
        return Chart(self.coords, self.params + tuple(names), self.functions)

    def is_extension_of(self, other: "Chart") -> bool:
        """True when every key valid on ``other`` means the same here."""
        return (
            self.coords[: len(other.coords)] == other.coords
            and self.params[: len(other.params)] == other.params
            and self.functions[: len(other.functions)] == other.functions
        )
