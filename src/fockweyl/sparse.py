"""Finite formal sums: the one sparse-vector type behind Fock vectors, Verma
elements and tensor words.

A vector is a dict from basis key to nonzero coefficient, built by the
constructor, `add_term` and `scale`; the commands read its `terms`, so it has
no vector arithmetic or equality of its own.  Subclasses supply two hooks:
`_coerce` (lift a plain number into the coefficient ring) and `_space` (a
tuple naming the ambient space; it is also the positional argument list of
the subclass constructor, so `type(v)(*v._space())` is the empty vector of
the same space).  `_key` normalises a basis key on input.
"""

from __future__ import annotations


class SparseVector:
    """Dict from basis key to nonzero ring coefficient."""

    __slots__ = ("terms",)
    _key = tuple

    def __init__(self, terms=None):
        t = {}
        if terms:
            for k, c in terms.items():
                c = self._coerce(c)
                if not c.is_zero:
                    t[self._key(k)] = c
        self.terms = t

    def _coerce(self, c):
        raise NotImplementedError

    def _space(self) -> tuple:
        raise NotImplementedError

    def _empty(self):
        return type(self)(*self._space())

    def _check(self, other):
        if type(other) is not type(self) or self._space() != other._space():
            raise ValueError(f"cannot combine {type(self).__name__} "
                             f"{self._space()} with {type(other).__name__}")

    def add_term(self, key, c):
        """Add c to the coefficient of an already normalised key, in place."""
        old = self.terms.get(key)
        if old is not None:
            c = old + c
        if c.is_zero:
            self.terms.pop(key, None)
        else:
            self.terms[key] = c

    def scale(self, c):
        c = self._coerce(c)
        out = self._empty()
        if not c.is_zero:
            out.terms = {k: v * c for k, v in self.terms.items()}
        return out
