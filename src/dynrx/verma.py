"""Degree-truncated Verma modules, the algebra action on them, and Shapovalov forms.

The negative part is realized as the free algebra on f_1..f_r modulo the
quantum Serre relations; per-degree bases are extracted once by exact row
reduction of the relation span (lambda-independent), and every action is
computed in the free algebra and then reduced.  This avoids any PBW/root
vector conventions.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import linalg, memo
from .liealg import AlgebraSpec, Weight, wt_add
from .lam import LambdaHandle

Word = tuple  # tuple of simple-root indices; (i, j, ...) means f_i f_j ... v


class CutoffExceeded(ValueError):
    """Requested degree beyond the slice cutoff; rebuild with a larger cutoff."""


@dataclass(frozen=True)
class _WordBasis:
    """Reduced word basis of U_q(n_-)[-n] for all n <= cutoff, with reduction data."""

    nsimple: int
    qnum2: Fraction  # [2]_q, the only coefficient in the Serre relations
    cutoff: int
    basis: tuple          # basis[n] = tuple of Words of length n
    reducers: tuple       # reducers[n] = dict word -> (pivot elim rows) representation

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


_word_bases = memo.table("word_basis")


def word_basis(nsimple: int, qnum2: Fraction, cutoff: int) -> _WordBasis:
    """The reduced word basis up to `cutoff`; lambda-independent, built once."""
    return _word_bases.get((nsimple, qnum2, cutoff), _word_basis_impl, nsimple, qnum2, cutoff)


def _word_basis_impl(nsimple: int, qnum2: Fraction, cutoff: int) -> _WordBasis:
    basis = [((),)]
    reducers = [dict()]
    for n in range(1, cutoff + 1):
        words = list(_words(nsimple, n))
        index = {w: k for k, w in enumerate(words)}
        rel_rows = []
        for core, coeffs in _serre_relations(nsimple, qnum2):
            L = len(core[0])
            if L > n:
                continue
            for left in _words(nsimple, 0, n - L):
                rest = n - L - len(left)
                for right in _words(nsimple, rest, rest):
                    row = [Fraction(0)] * len(words)
                    for cw, cc in zip(core, coeffs):
                        row[index[left + cw + right]] += cc
                    rel_rows.append(row)
        if rel_rows:
            rref, piv = linalg.row_reduce_basis(rel_rows)
        else:
            rref, piv = [], []
        pivset = dict(zip(piv, rref))
        bwords = tuple(w for k, w in enumerate(words) if k not in pivset)
        red = {}
        for k, row in zip(piv, rref):
            # words[k] = -sum_{j != k} row[j] * words[j]
            red[words[k]] = {
                words[j]: -row[j] for j in range(len(words)) if j != k and row[j] != 0
            }
        basis.append(bwords)
        reducers.append(red)
    return _WordBasis(nsimple, qnum2, cutoff, tuple(basis), tuple(reducers))


def _words(r: int, lo: int, hi: int | None = None):
    if hi is None:
        hi = lo
    for n in range(lo, hi + 1):
        def gen(prefix, n):
            if n == 0:
                yield prefix
                return
            for i in range(r):
                yield from gen(prefix + (i,), n - 1)
        yield from gen((), n)


def _serre_relations(r: int, qnum2: Fraction):
    """Quantum Serre relations for the negative part, as (words, coefficients)."""
    rels = []
    for i in range(r):
        for j in range(r):
            if i == j:
                continue
            if abs(i - j) >= 2:
                rels.append((((i, j), (j, i)), (Fraction(1), Fraction(-1))))
            else:
                rels.append((
                    ((i, i, j), (i, j, i), (j, i, i)),
                    (Fraction(1), -qnum2, Fraction(1)),
                ))
    return rels


class VermaSlice:
    """M^+_lambda truncated at `cutoff`: free A_- module on v_lambda up to that degree.

    Elements at a fixed degree are dicts {basis word -> scalar}, implicitly
    (word) . v_lambda.  lam is a LambdaHandle (sampled or univariate symbolic).
    """

    def __init__(self, spec: AlgebraSpec, lam: LambdaHandle, cutoff: int):
        self.spec = spec
        self.lam = lam
        self.cutoff = cutoff
        self.wb = word_basis(spec.nsimple, spec.qp.qnum(2), cutoff)

    def basis(self, n: int) -> tuple:
        if n > self.cutoff:
            raise CutoffExceeded(f"degree {n} exceeds cutoff {self.cutoff}")
        return self.wb.basis[n]

    def word_weight(self, w: Word) -> Weight:
        out = (0,) * len(self.spec.simple_root(0))
        for i in w:
            out = wt_add(out, self.spec.simple_root(i))
        return out

    def act_f(self, i: int, elem: dict) -> dict:
        out: dict[Word, object] = {}
        for w, c in elem.items():
            for w2, c2 in self.wb.reduce_word((i,) + w).items():
                out[w2] = out.get(w2, self.lam.zero()) + c * c2
        return _clean(out)

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

    def k_eigen(self, i: int, w: Word, sign: int = 1):
        """Eigenvalue of K_i^{sign} on (w v_lambda) (trig) or of sign*h_i classically."""
        sh = self.lam.shifted(self.word_weight(w))
        if self.spec.qp.classical:
            return sh.simple_lin(i) * sign
        return sh.simple_qpow(i) ** sign

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
                    if not self.spec.qp.classical:
                        elem = {
                            wd: c * self.k_eigen(i, wd, -1) for wd, c in elem.items()
                        }
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
    return {k: v for k, v in d.items() if not linalg.is_zero_elem(v)}
