"""The tag store a reasoner ends with, and its one decoding: ``Extension``.

Both reasoners end with one byte per (mode, subject) pair of the modal
Herbrand base, and both make their ``Extension`` from it as three columns,
one per mode, over the sorted base that ``base_subjects`` spells out.  An
``Extension`` keeps those bytes and the names, builds its tag sets only
when they are read, and gives the output order (``texts``) by slicing the
columns.
"""

from __future__ import annotations

from itertools import compress, repeat

from .model import Literal, Mode, RuleRef, Sign

# A tag store holds one byte per (mode, subject) pair: 0 undecided, 1
# proved, 2 refuted.  ``TAG_IS[value]`` translates a store to 1 where it
# holds ``value`` and to 0 elsewhere.
TAG_UNDECIDED, TAG_PROVED, TAG_REFUTED = 0, 1, 2
TAG_IS = [bytes(int(byte == value) for byte in range(256)) for value in range(3)]
_SIGN_VALUES = ((Sign.PLUS, TAG_PROVED), (Sign.MINUS, TAG_REFUTED))

# The twelve tag sets, ``+dC`` to ``-dmP``: literals before rules, then by
# mode, ``+`` before ``-``.
TAG_SET_NAMES = tuple(
    f"{sign}d{level}{mode}" for level in ("", "m") for mode in Mode for sign in Sign
)


def base_subjects(atoms, labels) -> list:
    """The subjects of a tag store by base index: for each atom, in the
    order given, its literal and then the complement, followed by each
    label's rule reference and then its negation."""
    return [Literal(atom, positive) for atom in atoms for positive in (True, False)] + [
        RuleRef(label, positive) for label in labels for positive in (True, False)
    ]


class Extension:
    """The decided tag sets of a theory, plus the subjects left undecided.

    ``literals[(sign, mode)]`` is a frozenset of Literal; ``rules[(sign,
    mode)]`` one of RuleRef.  ``undetermined`` holds the (mode, subject)
    pairs the fixpoint never settled, subject being a Literal or RuleRef.

    An extension is made from a tag store: ``atoms`` and ``labels`` are
    the store's names, sorted, so its base is ``base_subjects(atoms,
    labels)``, and ``columns`` gives, for C, O and P in turn, the store's
    bytes over that base, one per subject (``TAG_*``).  It keeps only
    those; ``literals``, ``rules`` and ``undetermined`` are built together
    when one of them is first read.  ``texts`` gives the sets in output
    order, straight from the store.  Two extensions compare by their
    stores, which determine the sets.
    """

    __slots__ = ("_built", "_store")
    __hash__ = None

    def __init__(self, atoms, labels, columns):
        self._built = None
        self._store = (list(atoms), list(labels), tuple(columns))

    @property
    def literals(self) -> dict:
        return self._sets()[0]

    @property
    def rules(self) -> dict:
        return self._sets()[1]

    @property
    def undetermined(self):
        return self._sets()[2]

    def _sets(self) -> tuple:
        """``literals``, ``rules`` and ``undetermined``, each set picked out
        of the base, on first use, with ``itertools.compress`` and a 0/1
        mask of one column."""
        if self._built is None:
            atoms, labels, columns = self._store
            base, n = base_subjects(atoms, labels), 2 * len(atoms)
            lits, refs = base[:n], base[n:]
            literals, rules, undetermined = {}, {}, []
            for mode, column in zip(Mode, columns):
                for sign, value in _SIGN_VALUES:
                    mask = column.translate(TAG_IS[value])
                    literals[(sign, mode)] = frozenset(compress(lits, mask[:n]))
                    rules[(sign, mode)] = frozenset(compress(refs, mask[n:]))
                undecided = compress(base, column.translate(TAG_IS[TAG_UNDECIDED]))
                undetermined += zip(repeat(mode), undecided)
            self._built = literals, rules, frozenset(undetermined)
        return self._built

    def counts(self) -> tuple:
        """The numbers of decided and undetermined pairs."""
        undetermined = sum(column.count(TAG_UNDECIDED) for column in self._store[2])
        return sum(map(len, self._store[2])) - undetermined, undetermined

    def positive(self, mode: Mode):
        return self.literals[(Sign.PLUS, mode)]

    def negative(self, mode: Mode):
        return self.literals[(Sign.MINUS, mode)]

    def positive_rules(self, mode: Mode):
        return self.rules[(Sign.PLUS, mode)]

    def negative_rules(self, mode: Mode):
        return self.rules[(Sign.MINUS, mode)]

    def tag_sets(self):
        """(name, subjects) of the twelve tag sets, in ``TAG_SET_NAMES`` order."""
        tables = (self.literals, self.rules)
        return zip(
            TAG_SET_NAMES,
            [table[(sign, mode)] for table in tables for mode in Mode for sign in Sign],
        )

    def texts(self):
        """The output order: the subjects' texts of each tag set, in
        ``TAG_SET_NAMES`` order, each list sorted, and the undetermined
        (subject text, mode text) pairs, sorted.

        Nothing is sorted but the undetermined pairs.  Names are words
        over [A-Za-z0-9_], all below "~", so a set's texts in order are its
        positive subjects by name and then its negated ones by name, which
        is the sorted base's even indices and then its odd ones.  The texts
        of a store with a name at or above "~" (the last sorted name is the
        largest) are sorted.
        """
        if not all(names[-1] < "~" for names in self._store[:2] if names):
            tag_texts = [sorted(map(str, subjects)) for _, subjects in self.tag_sets()]
            return tag_texts, sorted((str(s), str(mode)) for mode, s in self.undetermined)
        atoms, labels, columns = self._store
        tag_texts, undetermined, start = [], [], 0
        for names in (atoms, labels):
            texts = names + list(map("~".__add__, names))
            stop = start + len(texts)
            for mode, column in zip("COP", columns):
                column = column[start:stop:2] + column[start + 1 : stop : 2]
                for _, value in _SIGN_VALUES:
                    tag_texts.append(list(compress(texts, column.translate(TAG_IS[value]))))
                undecided = compress(texts, column.translate(TAG_IS[TAG_UNDECIDED]))
                undetermined += zip(undecided, repeat(mode))
            start = stop
        undetermined.sort()
        return tag_texts, undetermined

    def __eq__(self, other):
        if not isinstance(other, Extension):
            return NotImplemented
        return self._store == other._store

    def __repr__(self) -> str:
        return (
            f"Extension(literals={self.literals!r}, rules={self.rules!r}, "
            f"undetermined={self.undetermined!r})"
        )
