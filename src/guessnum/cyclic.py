"""GF(2) polynomial arithmetic and circulant digraphs generated from it.

A polynomial c_0 + c_1 x + ... + c_d x^d is stored as the integer with
bit i equal to c_i.  The text form is the ascending coefficient
bit-string (``11101`` means 1 + x + x^2 + x^4); exponent lists in the
``x4+x2+x+1`` style are also accepted.

A polynomial g with g_0 = 1 generates the circulant digraph on n
vertices with an edge from v_{(a+i) mod n} to v_a for every nonzero
coefficient g_i, i >= 1.  When g divides x^n + 1 the digraph inherits
the structure of the cyclic code generated by g; the report operation
checks those structural claims computationally.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import gcd as int_gcd

from . import digraph as dg
from . import gf_linear
from .errors import BadGenerator, BadParams, DivisionByZeroPoly, SizeGuard
from .guessing_graph import _MATERIALIZE_BYTES


class Gf2Poly:
    """Immutable polynomial over GF(2), backed by an int bit-sequence."""

    __slots__ = ("bits",)

    def __init__(self, bits=0):
        if bits < 0:
            raise BadParams("negative coefficient bits")
        object.__setattr__(self, "bits", int(bits))

    def __setattr__(self, name, value):
        raise AttributeError("Gf2Poly is immutable")

    @property
    def degree(self):
        """Degree, with the zero polynomial reported as -1."""
        return self.bits.bit_length() - 1

    @property
    def weight(self):
        return self.bits.bit_count()

    def is_zero(self):
        return self.bits == 0

    def coefficient(self, i):
        return (self.bits >> i) & 1

    def support(self):
        return tuple([i for i in range(self.bits.bit_length()) if (self.bits >> i) & 1])

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other):
        return Gf2Poly(self.bits ^ other.bits)

    __sub__ = __add__

    def __mul__(self, other):
        a, b, out = self.bits, other.bits, 0
        while b:
            if b & 1:
                out ^= a
            a <<= 1
            b >>= 1
        return Gf2Poly(out)

    def __divmod__(self, other):
        if other.bits == 0:
            raise DivisionByZeroPoly("division by the zero polynomial")
        a, b = self.bits, other.bits
        db = b.bit_length() - 1
        q = 0
        while a and a.bit_length() - 1 >= db:
            shift = (a.bit_length() - 1) - db
            q |= 1 << shift
            a ^= b << shift
        return Gf2Poly(q), Gf2Poly(a)

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def gcd(self, other):
        a, b = self, other
        while not b.is_zero():
            a, b = b, a % b
        return a

    def __eq__(self, other):
        return isinstance(other, Gf2Poly) and self.bits == other.bits

    def __hash__(self):
        return hash(("Gf2Poly", self.bits))

    # -- text forms ------------------------------------------------------

    def to_bitstring(self):
        if self.bits == 0:
            return "0"
        return "".join(str(self.coefficient(i)) for i in range(self.degree + 1))

    def to_terms(self):
        if self.bits == 0:
            return "0"
        parts = []
        for i in reversed(self.support()):
            parts.append("1" if i == 0 else ("x" if i == 1 else f"x{i}"))
        return "+".join(parts)

    def __repr__(self):
        return f"Gf2Poly({self.to_terms()})"


def parse_poly(text):
    """Parse a bit-string (``11101``) or exponent form (``x4+x2+x+1``)."""
    text = text.strip().lower().replace(" ", "")
    if not text:
        raise BadParams("empty polynomial")
    if set(text) <= {"0", "1"} and ("x" not in text):
        bits = 0
        for i, ch in enumerate(text):
            if ch == "1":
                bits |= 1 << i
        return Gf2Poly(bits)
    bits = 0
    for term in text.split("+"):
        if term == "1":
            bits ^= 1
            continue
        exponent = term[2:] if term.startswith("x^") else (term[1:] or "1")
        if not term.startswith("x") or not exponent.isdecimal():
            raise BadParams(f"cannot parse polynomial term {term!r}")
        bits ^= 1 << int(exponent)
    return Gf2Poly(bits)


def x_power_plus_one(n):
    if n < 1:
        raise BadParams("exponent must be >= 1")
    return Gf2Poly((1 << n) | 1)


def divides_xn1(g, n):
    """True iff g generates a cyclic code of length n (g divides x^n+1)."""
    if g.is_zero():
        return False
    return (x_power_plus_one(n) % g).is_zero()


def _check_vertex_count(n):
    """Refuse n > 2^16 vertices: n bit rows of n bits pass ``_MATERIALIZE_BYTES``."""
    needed = (n * n + 7) // 8
    if needed > _MATERIALIZE_BYTES:
        raise SizeGuard(
            f"n > 2^16 vertices: bit rows need over {_MATERIALIZE_BYTES} bytes",
            needed=needed, guard=_MATERIALIZE_BYTES)


def digraph_from_polynomial(g, n):
    """Circulant digraph with edges v_{(a+i) mod n} -> v_a for g_i = 1.

    Requires g_0 = 1 (unit diagonal after the shift construction) and
    deg(g) < n; the i = 0 term would be a loop and is excluded.
    Raises :class:`SizeGuard` for n > 2^16.
    """
    if g.coefficient(0) != 1:
        raise BadGenerator("generator needs a nonzero constant term")
    if n < 1 or g.degree >= n:
        raise BadParams("need deg(g) < n and n >= 1")
    _check_vertex_count(n)
    edges = []
    for i in g.support():
        if i == 0:
            continue
        for a in range(n):
            edges.append(((a + i) % n, a))
    return dg.Digraph(n, edges)


@dataclass(frozen=True)
class PolyDigraphReport:
    """Structural checks for the digraph generated by a polynomial."""

    poly: Gf2Poly
    n: int
    divides: bool
    degree: int
    weight: int
    regular: bool
    common_degree: int | None
    degree_matches_weight: bool
    bidirectional_free_coeff: bool
    bidirectional_free_edges: bool
    tournament_coeff: bool
    tournament_edges: bool
    coprime_support_pair: bool
    strong: bool
    prefix_acyclic: bool
    mas_size: int
    mas_exact: bool
    mas_matches_degree: bool | None
    fixed_space_dimension: int
    fixed_dim_matches_degree: bool | None
    guessing_upper_matches_degree: bool | None
    gcd_with_cycle_space: Gf2Poly
    gcd_lower_bound: int

    @property
    def all_code_properties_hold(self):
        """True when every structural claim for cyclic divisors checks out."""
        return bool(
            self.divides
            and self.regular
            and self.degree_matches_weight
            and self.bidirectional_free_coeff == self.bidirectional_free_edges
            and self.tournament_coeff == self.tournament_edges
            and self.prefix_acyclic
            and self.mas_matches_degree
            and self.fixed_dim_matches_degree
            and self.guessing_upper_matches_degree
        )


def polynomial_digraph_report(g, n):
    """Check the structural claims of a polynomial-generated digraph.

    For divisors of x^n + 1 the checks cover: regular in/out-degree
    weight-1, the coefficient tests for bidirectional edges and
    tournaments (cross-checked against the built digraph), strongness,
    the first n - deg(g) vertices inducing a maximum acyclic subgraph,
    and the fixed-space dimension of the parity-check strategy matching
    deg(g).  For non-divisors the report only claims the gcd-based
    lower bound deg(gcd(g, x^n + 1)).
    """
    d = digraph_from_polynomial(g, n)
    divides = divides_xn1(g, n)
    report = dg.structure_report(d)
    deg, w = g.degree, g.weight
    regular = report.regular_in_out
    common = d.in_degree(0) if regular else None
    bidir_coeff = all(
        g.coefficient(i) * g.coefficient(n - i) == 0 for i in range(1, n // 2 + 1)
    )
    bidir_edges = report.bidirectional_edge_count == 0
    tour_coeff = all(
        (g.coefficient(i) + g.coefficient(n - i)) == 1 for i in range(1, n)
    )
    support = [i for i in g.support() if i >= 1]
    coprime_pair = any(
        int_gcd(i, j) == 1 for i in support for j in support if i <= j
    )
    prefix = (1 << (n - deg)) - 1  # the first n - deg vertices
    prefix_acyclic = dg.topological_order(d.out_rows(), prefix) is not None
    mas = dg.mas_exact(d)
    fixed_dim = gf_linear.full_support_fixed_dimension(d, 2)
    gcd_poly = g.gcd(x_power_plus_one(n))
    mas_match = (mas.size == n - deg) if (divides and mas.exact) else None
    fixed_match = (fixed_dim == deg) if divides else None
    upper_match = (n - mas.size == deg) if (divides and mas.exact) else None
    return PolyDigraphReport(
        poly=g,
        n=n,
        divides=divides,
        degree=deg,
        weight=w,
        regular=regular,
        common_degree=common,
        degree_matches_weight=(regular and common == w - 1),
        bidirectional_free_coeff=bidir_coeff,
        bidirectional_free_edges=bidir_edges,
        tournament_coeff=tour_coeff,
        tournament_edges=report.is_tournament,
        coprime_support_pair=coprime_pair,
        strong=report.strong,
        prefix_acyclic=prefix_acyclic,
        mas_size=mas.size,
        mas_exact=mas.exact,
        mas_matches_degree=mas_match,
        fixed_space_dimension=fixed_dim,
        fixed_dim_matches_degree=fixed_match,
        guessing_upper_matches_degree=upper_match,
        gcd_with_cycle_space=gcd_poly,
        gcd_lower_bound=gcd_poly.degree,
    )


# -- simplex digraphs ---------------------------------------------------

# Primitive polynomials of degree 2..10 (ascending-bit encoding); each is
# checked for primitivity (order of x equals 2^l - 1) before first use.
_PRIMITIVE_BITS = {
    2: 0b111,
    3: 0b1011,
    4: 0b10011,
    5: 0b100101,
    6: 0b1000011,
    7: 0b10001001,
    8: 0b100011101,
    9: 0b1000010001,
    10: 0b10000001001,
}


def _poly_pow_mod(base, exponent, modulus):
    result = Gf2Poly(1)
    base = base % modulus
    while exponent:
        if exponent & 1:
            result = (result * base) % modulus
        base = (base * base) % modulus
        exponent >>= 1
    return result


def _prime_factors(n):
    out = set()
    f = 2
    while f * f <= n:
        while n % f == 0:
            out.add(f)
            n //= f
        f += 1
    if n > 1:
        out.add(n)
    return out


@lru_cache(maxsize=None)
def _verified_primitive(l):
    p = Gf2Poly(_PRIMITIVE_BITS[l])
    order = (1 << l) - 1
    x = Gf2Poly(0b10)
    if _poly_pow_mod(x, order, p) != Gf2Poly(1):
        raise AssertionError(f"table polynomial for l={l} is not primitive")
    for q in _prime_factors(order):
        if _poly_pow_mod(x, order // q, p) == Gf2Poly(1):
            raise AssertionError(f"table polynomial for l={l} has small order")
    return p


def simplex_digraph(l):
    """Digraph generated by the (2^l - 1, l) simplex code generator.

    Returns (generator polynomial, digraph).  The generator is
    (x^n + 1) / p(x) for a verified primitive p of degree l, n = 2^l - 1;
    the digraph is regular with in-degree 2^(l-1) - 1 and its best
    linear strategy fixes a space of dimension 2^l - l - 1.
    """
    if not 2 <= l <= 10:
        raise BadParams("simplex dimension must be in 2..10")
    prim = _verified_primitive(l)
    n = (1 << l) - 1
    quotient, remainder = divmod(x_power_plus_one(n), prim)
    if not remainder.is_zero():
        raise AssertionError("primitive polynomial does not divide x^n + 1")
    return quotient, digraph_from_polynomial(quotient, n)


# -- unidirectional families --------------------------------------------


@dataclass(frozen=True)
class FamilyDigraph:
    kind: str
    poly: Gf2Poly
    digraph: dg.Digraph
    report: PolyDigraphReport


def _family_three_t(t):
    if t <= 3:
        raise BadParams("three_t needs t > 3")
    if int_gcd(t, 3) != 1:
        raise BadParams("three_t needs gcd(t, 3) = 1")
    n = 3 * t
    _check_vertex_count(n)
    poly = x_power_plus_one(t) * parse_poly("111")
    return n, poly


def _family_even_half(p):
    if p < 2:
        raise BadParams("even_half needs p >= 2")
    n = 2 * p
    _check_vertex_count(n)
    poly = Gf2Poly((1 << p) - 1)  # x^(p-1) + ... + 1
    return n, poly


def _family_doubling(g, t, l):
    if t < 2 or l < 1:
        raise BadParams("doubling needs t >= 2 and l >= 1")
    all_ones = Gf2Poly((1 << t) - 1)  # (x^t - 1)/(x - 1)
    if g.is_zero() or not (all_ones % g).is_zero():
        raise BadParams("doubling needs g dividing x^(t-1) + ... + 1")
    n = t << l
    _check_vertex_count(n)
    # (x + 1) * g^(2^l), where over GF(2) g(x)^(2^l) = g(x^(2^l)) spreads g's support
    poly = parse_poly("11") * Gf2Poly(sum(1 << (i << l) for i in g.support()))
    return n, poly


def family_unidirectional(kind, **params):
    """Cyclic-code families aimed at digraphs without bidirectional edges.

    ``three_t(t)``: n = 3t, generator (x^t + 1)(x^2 + x + 1), weight 6.
    ``even_half(p)``: n = 2p, generator x^(p-1) + ... + 1.
    ``doubling(g, t, l)``: n = 2^l t, generator (x + 1) g(x)^(2^l) for g
    dividing x^(t-1) + ... + 1; degree doubles per level, weight 2 w(g).

    The generator is verified to divide x^n + 1.  For three_t and
    even_half a bidirectional edge is a parameter failure (t = 4 makes
    deg(g) = n/2 collide with its mirror coefficient); the doubling
    family may legitimately produce bidirectional digraphs (weight-dense
    g), so its report simply records the outcome.
    """
    builders = {
        "three_t": _family_three_t,
        "even_half": _family_even_half,
        "doubling": _family_doubling,
    }
    if kind not in builders:
        raise BadParams(f"unknown family kind {kind!r}")
    n, poly = builders[kind](**params)
    if not divides_xn1(poly, n):
        raise AssertionError(f"family {kind} generator does not divide x^n + 1")
    report = polynomial_digraph_report(poly, n)
    if kind in {"three_t", "even_half"} and not report.bidirectional_free_edges:
        raise BadParams(
            f"family {kind} produced a bidirectional edge for these parameters"
        )
    return FamilyDigraph(kind, poly, digraph_from_polynomial(poly, n), report)
