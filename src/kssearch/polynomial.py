"""Single-polynomial encoding of embeddability.

The graph's constraint system is folded into one nonnegative integer
polynomial of total degree 4 whose real zeros are exactly the embeddings:
equalities contribute squared residuals, and the two inequality families are
rewritten with auxiliary variables first (z > 0 becomes u*w = 1, u^2 = z;
vertex distinctness becomes D = |p-q|^2, t*D = 1) so that every residual has
degree <= 2 before squaring.

On the open upper hemisphere no antipodal pair survives, so pointwise
distinctness of non-adjacent images is exactly direction distinctness.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .graphs import Graph

Key = tuple[tuple[int, int], ...]  # sorted ((var, exponent), ...)
# a residual as a sum of terms (coefficient, variables of its monomial)
Residual = list[tuple[int, tuple[int, ...]]]


def _add_square(total: dict[Key, int], residual: Residual) -> None:
    """total += residual^2, one product of terms at a time."""
    for c1, m1 in residual:
        for c2, m2 in residual:
            key = tuple(sorted(Counter(m1 + m2).items()))
            total[key] = total.get(key, 0) + c1 * c2


@dataclass(frozen=True)
class EmbeddingPolynomial:
    """Nonnegative degree-4 polynomial vanishing exactly at embeddings."""

    variables: tuple[str, ...]
    terms: dict[Key, int]
    legend: dict[str, str]

    @property
    def degree(self) -> int:
        return max((sum(e for _, e in k) for k in self.terms), default=0)

    def evaluate(self, values: dict[str, object]):
        """Substitute values (Fractions give an exact result)."""
        idx = {name: i for i, name in enumerate(self.variables)}
        missing = [n for n in self.variables if n not in values]
        if missing:
            raise KeyError(f"missing values for {missing[:4]}")
        vals = [values[n] for n in self.variables]
        total = 0
        for key, coeff in self.terms.items():
            term = coeff
            for v, e in key:
                term = term * vals[v] ** e
            total = total + term
        return total

    def text(self) -> str:
        """Plain-text export: monomials sorted by (-degree, variable key).

        Grammar: polynomial := term (' + ' term | ' - ' term)*
                 term       := coefficient ('*' factor)*
                 factor     := variable | variable '^' exponent
        with integer coefficients and variable names from the legend.
        """
        if not self.terms:
            return "0"
        keys = sorted(self.terms, key=lambda k: (-sum(e for _, e in k), k))
        parts = []
        for i, key in enumerate(keys):
            coeff = self.terms[key]
            mag = abs(coeff)
            factors = [str(mag)]
            for v, e in key:
                name = self.variables[v]
                factors.append(name if e == 1 else f"{name}^{e}")
            term = "*".join(factors)
            if i == 0:
                parts.append(term if coeff > 0 else f"-{term}")
            else:
                parts.append(f"+ {term}" if coeff > 0 else f"- {term}")
        return " ".join(parts)

    def legend_text(self) -> str:
        return "\n".join(f"{name}: {desc}" for name, desc in self.legend.items())


def export_polynomial(g: Graph) -> EmbeddingPolynomial:
    """Fold the embedding constraints of g into one degree-4 polynomial.

    Variables per vertex v: x{v}, y{v}, z{v} (coordinates), u{v}, w{v}
    (hemisphere auxiliaries with u*w = 1 and u^2 = z, forcing z > 0).  Per
    non-adjacent pair a < b: d{a}_{b} (squared point distance) and t{a}_{b}
    (its reciprocal, forcing the distance nonzero).
    """
    names: list[str] = []
    legend: dict[str, str] = {}

    def add_var(name: str, desc: str) -> int:
        names.append(name)
        legend[name] = desc
        return len(names) - 1

    coords = {}
    for v in range(g.n):
        coords[v] = tuple(
            add_var(f"{axis}{v}", f"{axis}-coordinate of vertex {v}") for axis in "xyz"
        )
    hemis = {}
    for v in range(g.n):
        u = add_var(f"u{v}", f"hemisphere auxiliary for vertex {v}: u{v}^2 = z{v}")
        w = add_var(f"w{v}", f"hemisphere auxiliary for vertex {v}: u{v}*w{v} = 1")
        hemis[v] = (u, w)
    pair_aux = {}
    for a in range(g.n):
        for b in range(a + 1, g.n):
            if not g.has_edge(a, b):
                d = add_var(f"d{a}_{b}", f"squared distance between vertices {a} and {b}")
                t = add_var(f"t{a}_{b}", f"reciprocal of d{a}_{b}: t*d = 1")
                pair_aux[(a, b)] = (d, t)

    total: dict[Key, int] = {}
    for v in range(g.n):
        _add_square(total, [(1, (i, i)) for i in coords[v]] + [(-1, ())])
    for a, b in g.edges():
        _add_square(total, [(1, ij) for ij in zip(coords[a], coords[b])])
    for v in range(g.n):
        u, w = hemis[v]
        _add_square(total, [(1, (u, w)), (-1, ())])
        _add_square(total, [(1, (u, u)), (-1, (coords[v][2],))])
    for (a, b), (d, t) in pair_aux.items():
        # d - sum over axes of (p_a - p_b)^2
        dist = [(1, (d,))]
        for i, j in zip(coords[a], coords[b]):
            dist += [(-1, (i, i)), (2, (i, j)), (-1, (j, j))]
        _add_square(total, dist)
        _add_square(total, [(1, (t, d)), (-1, ())])

    terms = {k: c for k, c in total.items() if c}
    return EmbeddingPolynomial(tuple(names), terms, legend)
