"""Degree-truncated Verma modules, the algebra action on them, and Shapovalov forms.

The negative part is realized as the free algebra on f_1..f_r modulo the
quantum Serre relations; per-degree bases are extracted once by exact row
reduction of the relation span, one weight block at a time (lambda-independent,
one memo entry per degree), and every action is
computed in the free algebra and then reduced.  This avoids any PBW/root
vector conventions.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product

from . import linalg, memo
from .liealg import AlgebraSpec, Weight, wt_add
from .lam import Lambda

Word = tuple  # tuple of simple-root indices; (i, j, ...) means f_i f_j ... v


class CutoffExceeded(ValueError):
    """Requested degree beyond the slice cutoff; rebuild with a larger cutoff."""


class _WordBasis:
    """Reduced word basis of U_q(n_-)[-n] for all n <= cutoff, with reduction data."""

    __slots__ = ("cutoff", "basis", "reducers")

    def __init__(self, cutoff: int, basis: tuple, reducers: tuple):
        self.cutoff = cutoff
        self.basis = basis          # basis[n] = tuple of Words of length n
        self.reducers = reducers    # reducers[n] = dict word -> (pivot elim rows) representation

    def reduce_word(self, w: Word) -> dict:
        """Expand a free word in the reduced basis: dict basis_word -> Fraction."""
        n = len(w)
        if n > self.cutoff:
            raise CutoffExceeded(f"degree {n} exceeds cutoff {self.cutoff}")
        red = self.reducers[n]
        out: dict[Word, Fraction] = {}
        stack = [(w, Fraction(1))]
        while stack:
            word, c = stack.pop()
            if word in red:
                for w2, c2 in red[word].items():
                    stack.append((w2, c * c2))
            else:
                out[word] = out.get(word, Fraction(0)) + c
        return {k: v for k, v in out.items() if v != 0}


_word_levels = memo.table("word_basis")


def word_basis(spec: AlgebraSpec, cutoff: int) -> _WordBasis:
    """The reduced word basis up to `cutoff`; each level is lambda-independent,
    built once and shared by every cutoff that reaches it.  Levels are keyed on
    the Cartan matrix and [2]_q ([n]_q is a polynomial in [2]_q)."""
    key = (spec.cartan, spec.qnum2)
    basis, reducers = zip(*(_word_levels.get(key + (n,), _word_level, spec, n)
                            for n in range(cutoff + 1)))
    return _WordBasis(cutoff, basis, reducers)


def _word_level(spec: AlgebraSpec, n: int) -> tuple:
    """(basis words, reducers) of level n.

    Every Serre relation is homogeneous in letter content (the U_q(n_-)
    weight), so the words of the level split into content blocks and each
    block's relation rows are row-reduced on their own, in block-local
    coordinates.  Words keep the level's global order inside a block, so the
    pivots and reducers are those of one reduction over the whole level.
    """
    nsimple = spec.nsimple
    letters = range(nsimple)
    words = list(product(letters, repeat=n))
    blocks: dict = {}  # content -> words of that content, in global order
    for w in words:
        blocks.setdefault(_content(nsimple, w), []).append(w)
    index = {w: k for bw in blocks.values() for k, w in enumerate(bw)}
    rows: dict = {c: [] for c in blocks}
    for core, coeffs in spec.serre_relations():
        L = len(core[0])
        for k in range(n - L + 1):  # none when L > n
            for left, right in product(product(letters, repeat=k),
                                       product(letters, repeat=n - L - k)):
                c = _content(nsimple, left + core[0] + right)
                row = [Fraction(0)] * len(blocks[c])
                for cw, cc in zip(core, coeffs):
                    row[index[left + cw + right]] += cc
                rows[c].append(row)
    reduced = {}
    for c, bw in blocks.items():
        rref, piv = linalg.row_reduce_basis(rows[c])
        for k, row in zip(piv, rref):
            # bw[k] = -sum_{j != k} row[j] * bw[j]
            reduced[bw[k]] = {bw[j]: -row[j] for j in range(len(bw)) if j != k and row[j] != 0}
    return tuple(w for w in words if w not in reduced), reduced


def _content(nsimple: int, w: Word) -> tuple:
    """How often each letter occurs in w: the weight of the word, in simple roots."""
    return tuple(w.count(i) for i in range(nsimple))


class VermaSlice:
    """M^+_lambda truncated at `cutoff`: free A_- module on v_lambda up to that degree.

    Elements at a fixed degree are dicts {basis word -> scalar}, implicitly
    (word) . v_lambda.  lam is a Lambda (sampled or univariate symbolic).
    """

    def __init__(self, spec: AlgebraSpec, lam: Lambda, cutoff: int):
        self.spec = spec
        self.lam = lam
        self.cutoff = cutoff
        self.wb = word_basis(spec, cutoff)

    def basis(self, n: int) -> tuple:
        if n > self.cutoff:
            raise CutoffExceeded(f"degree {n} exceeds cutoff {self.cutoff}")
        return self.wb.basis[n]

    def word_weight(self, w: Word) -> Weight:
        out = (0,) * self.spec.ncoords
        for i in w:
            out = wt_add(out, self.spec.simple_root(i))
        return out

    def act_e(self, i: int, elem: dict) -> dict:
        out: dict[Word, object] = {}
        for w, c in elem.items():
            for w2, c2 in self._e_on_word(i, w).items():
                out[w2] = out.get(w2, self.lam.zero()) + c * c2
        return _clean(out)

    def _e_on_word(self, i: int, w: Word) -> dict:
        """e_i . (w v_lambda) expanded in the reduced basis (free-algebra recursion:
        e_i f_j X = f_j e_i X + delta_ij [ <lambda - wt(X), alpha_i> ] X)."""
        if not w:
            return {}
        j, rest = w[0], w[1:]
        out: dict[Word, object] = {}
        inner = self._e_on_word(i, rest)
        for w2, c2 in inner.items():
            for w3, c3 in self.wb.reduce_word((j,) + w2).items():
                out[w3] = out.get(w3, self.lam.zero()) + c2 * c3
        if i == j:
            br = self.lam.shifted(self.word_weight(rest)).bracket(i)
            for w2, c2 in self.wb.reduce_word(rest).items():
                out[w2] = out.get(w2, self.lam.zero()) + br * c2
        return _clean(out)

    def kinv_eigen(self, i: int, w: Word):
        """Eigenvalue of K_i^{-1} on (w v_lambda); K is 1 classically."""
        if self.spec.qp.classical:
            return self.lam.one()
        return self.lam.shifted(self.word_weight(w)).simple(i) ** -1

    # -- Shapovalov ---------------------------------------------------------

    def shapovalov_gram(self, n: int) -> list:
        """Level-n Gram matrix <v*, S(e_u) f_w v> over (positive word u, negative word w).

        The positive-side basis is the same reduced word set (dim A_+[n] =
        dim A_-[-n]).  S(e_i) = -e_i K_i^{-1} (trig), -e_i classically.
        """
        words = self.basis(n)
        G = []
        for u in words:
            row = []
            for w in words:
                elem = {w: self.lam.one()}
                # S(e_{u_1} ... e_{u_k}) = S(e_{u_k}) ... S(e_{u_1}): apply S(e_{u_1}) first
                for i in u:
                    elem = {wd: c * self.kinv_eigen(i, wd) for wd, c in elem.items()}
                    elem = self.act_e(i, elem)
                    elem = {wd: -c for wd, c in elem.items()}
                    if not elem:
                        break
                row.append(elem.get((), self.lam.zero()))
            G.append(row)
        return G

    def shapovalov_det(self, n: int):
        G = self.shapovalov_gram(n)
        if not G:
            return self.lam.one()
        return linalg.mat_det(G)


def _clean(d: dict) -> dict:
    return {k: v for k, v in d.items() if v}
