"""Weight-2 modular symbols for Gamma_0(N), N prime, over Z.

The presentation is the classical one on Manin symbols indexed by
P^1(Z/NZ): generators x_(c:d) subject to x + xS = 0 and
x + xT + xT^2 = 0, with S = [[0,-1],[1,0]], T = [[0,-1],[1,-1]] acting
on the right.  `presentation(N)` folds the two-term relations away
(they pair up symbols, possibly killing self-paired ones into torsion)
and lists the remaining three-term relations; the exact route here and
the mod-p route in `modp` both start from it.

Those relations are the signed incidence matrix of a graph.  Its
vertices are the tau-orbit rows (the triangles of the Farey
tessellation mod Gamma_0(N)) and its edges the folded variables: the
pair {x, xS} has x in one tau-orbit with sign +1 and xS in one with
sign -1.  An S-fixed variable is a half-edge, which its 2y = 0 row
kills over Q and mod p >= 5; a tau-fixed orbit is a leaf, its row a
single symbol; an edge with both ends in one orbit is a loop.  The
free quotient M_rel, of rank 2g + 1, is then read off a spanning tree
with no elimination (`tree_reduction`): the non-tree edges are its
basis, and a tree edge is the signed sum of the non-tree edges across
the cut it makes, the sum of the vertex rows on one side.  The tree
gives that reduction as a sparse matrix (`CSR`), every entry -1 or 1,
and basis vector j is the class of one symbol, the representative of
the j-th free variable.  The reduction is an integral matrix, so every
later computation (star involution, Hecke action, theta elements) is
exact.  `quotient_map` gives the quotient map on the N + 1 symbols, the
CSR of sign_of[i] times the tree's row of var_of[i]: 3-6 nonzeros per
row, where a dense copy would have 2g + 1.  Every route reads M_rel
through it, and none makes it dense: Hecke pairs and paths add the
rows of their symbols (`CSR.gather_add`), and a theta chunk's symbol
counts meet its entries in column order (`CSR.left_mul`).

The cuspidal lattice M = ker(boundary) is M_rel without its coordinate
0.  Proof: at prime level the cusps form two classes, p/q lying over oo
iff N | q and over 0 otherwise.  The symbol (c:d) is the path
{b/d, a/c} of a lift (a, b; c, d), so its boundary [a/c] - [b/d] is
nonzero only when N divides one of c, d: at (0:1) = {0, oo} and at
(1:0) = -(0:1).  The two are S-partners, one folded variable, which is
variable 0, represented by (0:1), the first generator.  The tau-orbit
of (0:1) is {(0:1), (1:-1), (1:0)}, so that variable sits twice in
row 0, a loop.  A loop is never a tree edge, so variable 0 is free and,
`free` being sorted, free[0]: coordinate 0 is the class of {0, oo},
with boundary [oo] - [0], and every other coordinate is the class of a
symbol with no boundary.  So a vector of M_rel lies in M exactly when
its coordinate 0 is zero, and coordinates 1 .. 2g are the cuspidal
coordinates: no kernel is computed and no section is kept.  A theta
chain, a Hecke image or a star image with a nonzero coordinate 0 has a
nonzero boundary, and `cuspidal_coords` (`_space_from_tree`) raises;
`coordinate_symbols` raises unless free[0] is the variable of (0:1).

A Hecke operator acts on Manin symbols through a family of integer
matrices of determinant l, each sending the symbol (c:d) to
(c:d)(a,b;c',d') = (ca + dc' : cb + dd').  For l prime to N, T_l uses
Cremona's Heilbronn matrices (`cremona_families`; Cremona, Algorithms
for Modular Elliptic Curves, 2nd ed., 1997, sec. 2.4): (1, 0; 0, l) and
the matrices of the nearest-integer continued fractions of -l/r,
|r| <= l/2, halves rounded away from zero.  The families of all the l
that one list asks for come from one lockstep walk of every (l, r).  A
matrix of determinant prime to N is invertible mod N, so no image is
(0:0); `family_images`, the action, raises if one is.

The action indexes an image (u : v), u and v reduced into [0, N), by
discrete logs to a primitive root g mod N (`_p1_logs`).  With K = N - 1,
lu[u] = log u and lv[v] = K + log v for u, v != 0, so d = lv[v] - lu[u]
lies in [1, 2K - 1] and v/u = g^(d mod K): index[d] = 1 + g^(d mod K)
is the P^1 index 1 + v/u of (1 : v/u).  The sentinels lu[0] = -K and
lv[0] = 4K send u = 0 (v != 0) to d in [2K, 3K - 1], where index is 0,
the index of (0 : v) = (0 : 1); v = 0 (u != 0) to d in [3K + 1, 4K],
where it is 1, the index of (1 : 0); and (0 : 0) to d = 5K, where it is
-1, on which the action raises.  The ranges are disjoint, as log u and
log v lie in [0, K - 1], so one gather in a table of 5K + 1 entries
reads every index.  The tables are O(N), so the mod-p route uses the
same action at N = 9931, where an N x N table of indices would have
98.6 M entries.  The family is reduced mod N once, so for 0 <= c, d < N
each ca + dc' is below 2 N^2, and every d and table entry is below 5N:
all exact in int64 under the action's bound 2 N max(N, max|entry|) <
2^63, which also keeps the unreduced ca + dc' exact.

U_N (l = N) is -W_N on the cuspidal lattice M, with W_N the Fricke
involution {alpha, beta} -> {-1/(N alpha), -1/(N beta)}.  Proof:
S_2(SL_2(Z)) = 0, so at prime level every weight-2 cusp form is new,
and each newform f has a_N(f) = -eps_N(f), eps_N(f) = +-1 being its
W_N-eigenvalue (Atkin-Lehner, Math. Ann. 185, 1970).  So U_N + W_N
kills S_2(Gamma_0(N)), and hence the cuspidal homology, which the
integration pairing makes Hecke- and W_N-equivariantly dual to
S_2 + conj(S_2); both operators preserve the lattice M.  On the
normalised generators, (c:d) being the path {b/d, a/c} of a lift
(a, b; c, d): (0:1) = {0, oo} goes to {oo, 0} = -(0:1), and (1:y) =
{-1/y, 0} (lift (0, -1; 1, y)) to {y/N, oo} = {0, oo} - {0, y/N}.  So
U_N sends (0:1) to (0:1) and (1:y) to {0, y/N} - {0, oo}, the
continued-fraction walk of y/N (`_symbol_stream`) past its opening
(0:1), O(log N) symbols; at y = 0 that walk is (1:0) = -(0:1) by the
two-term relation, W_N(1:0) = (0:1).  `hecke_operators` takes these
images at l = N (`_u_n_pairs`) and Cremona's family's otherwise
(`family_pairs`) as (symbol, image) pairs, and `hecke_matrix` the
operator from them, one `bincount` per run of pairs on the quotient
map's rows, for both routes: only the symbols of coordinates 1 .. 2g,
the basis of M, are acted on.  On M_rel, -W_N need not be U_N, but
only its restriction to M is read.  Merel's
determinant-N family {(a,b;c,d): a > b >= 0, d > c >= 0, ad - bc = N}
(Merel, Universal Fourier expansions of modular forms, LNM 1585, 1994)
also gives U_N, once its images (0:0) are dropped, but it has 6,991
matrices at N = 421 against 2g + 1 = 69 walks, so it stays only in the
tests, as the independent oracle this U_N is checked against.

`build_space` makes the quotient map and the star S, the 2g x 2g
matrix of iota on M, both read-only `CSR`s: S's rows are the quotient
map's at the iota images of the coordinate symbols, so no dense star
(22 MB at N = 9931, with 1.47 entries per row) is made.  Each signed
basis, an `IntMatrix`, and its left inverse are derived on first use
and on their own, so the mod-p route, which reads only the star and
the Hecke matrices, never makes one, and a plus context never makes
M^-.  Products run in int64 under a bound that raises rather than
overflow (`mul_int64`, `CSR.left_mul`).

The signed basis of M^s, s = +-1, is the lattice {x : x S = s x} of the
star S in canonical row Hermite form, read off the star's pairs
(`signed_basis`), as Cremona's plus quotient (ch. 2) and the mod-p
route's `_plus_quotient` read them mod p, both through `star_pairs`.
Most rows of S are a signed permutation's: row a holds one entry e, at
column b, and row b one, at a.  S^2 = I makes the two entries one and
the same e = +-1, and a pair whose entries are not raises.  The pair
{a < b} gives the vector e_a + s e e_b of M^s, and a row a whose one
entry, at a, is s gives e_a.  Call those columns a and f, the columns b
the partners, and every other row an o row.  Subtracting
x_a (e_a + s e e_b) and x_f e_f from an x of M^s leaves one with
x_a = x_f = 0, which solves x S = s x exactly when its o coordinates y
do and its partners are x_b = -e y S_oa (column a of x S = s x):
column o' of the equations is y (S_oo - s I) = 0, column b is
y (S_ob + s e S_oa) = 0 once x_b is put in, and column f is y S_of = 0.
Every integral y of that kernel lifts to an integral x, so M^s is
spanned by the pair and fixed vectors and the lift of a basis of the
left kernel of the reduced system [S_oo - sI | S_ob + s e S_oa | S_of],
which `left_kernel` gives.  That kernel is saturated in Z^o, and so is
its lift, as projecting to the o coordinates undoes it.  Only the o
rows of S are made dense: at N = 421 30 of 68, at 9931 532 of 1654.
The lifted rows get their own Hermite form, on the columns they touch.
The pair and fixed vectors have pivot 1 at a and f, where every other
vector is 0; of the pivots of the lifted rows only a partner b can hold
an entry of another row, s e in its pair's vector, so each pair vector
is reduced at the lifted pivots, in increasing order.  The rows sorted
by pivot are then the lattice's canonical Hermite form, a function of
the star alone.  Last, every row is checked to be fixed by s S, on the
star's nonzero entries (`CSR.left_mul`).

A solve x @ B = v is read off a left inverse of B, proven by
multiplying back (`solve_by_inverse`); `restrict_to_sign` and the
valuations solve that way.  When every pivot of a Hermite basis B is
1, B is the identity at its pivot columns, as the entries above a
pivot 1 are 0, so x is v at those columns (`hermite_left_inverse`):
no elimination and no product.  That holds at every level measured;
otherwise `left_inverse` gives a matrix L with B @ L = I, and x is
v @ L.

The theta element of D is the chain sum_a chi_D(a) {0, a/m}, m = |D|,
and only the a < m/2 are walked (the half walk).  Proof: pair a > m/2
with a' = m - a < m/2.  chi_D(a) = chi_D(-1) chi_D(a') = s chi_D(a') with
s = sign(D).  In M_rel, where Gamma_0(N) acts trivially,
{0, a/m} = {0, 1} + {1, 1 - a'/m} = {0, 1} + T{0, -a'/m}
= {0, 1} + iota{0, a'/m}, with T = [[1, 1], [0, 1]] in Gamma_0(N) and
iota: x -> -x, conjugation by diag(-1, 1), which sends the symbol
(c:d) = {b/d, a/c} to (-c:d): the permutation the star involution
reads.  So theta = h + s (iota(h) + sigma {0, 1}), with h the signed
symbol counts of the walks of the a < m/2 and sigma the sum of their
chi_D(a).  At even m (so m >= 4) the middle a = m/2 has chi_D = 0,
since gcd(m/2, m) > 1.  The sigma term is zero: {0, 1} is the symbol
pair (0:1) + (1:0) = x + xS, which the two-term relation kills.  So is
the same pair that opens every walk of a/m < 1, so the walks are not
made to count it.

The walk of a/m runs over the continued-fraction convergents p_k/q_k
of a/m, q_{-1} = 0, q_0 = 1, ..., q_n = m: past its opening pair it is
the symbols (q_k : (-1)^(k-1) q_{k-1}), k = 1 .. n.  It is walked
backwards, on Euclid remainders (Manin, Parabolic points and zeta
functions of modular curves, 1972; Cremona, sec. 2.1-2.2).  Lemma:
q_n, q_{n-1}, ..., q_0, q_{-1} is the Euclid remainder sequence of
(m, c), c = q_{n-1}, and a c = (-1)^(n-1) (mod m).  Proof: with a_k the
partial quotients, q_{k-2} = q_k - a_k q_{k-1} and 0 <= q_{k-2} <
q_{k-1} (for k = 2, q_1 = a_1 >= 2 > q_0, since a < m/2), so q_{k-2} is
q_k mod q_{k-1}; and p_n q_{n-1} - p_{n-1} q_n = (-1)^(n-1) with
p_n = a.  The reversed expansion [0; a_n, ..., a_1] has both end
quotients >= 2 too (a_n = floor(m/c) >= 2, and a_1 is Euclid's last
quotient), so a -> c permutes the c < m/2 prime to m.  So a lane is a
c < m/2 with chi_D(c) != 0: it starts at (x, y) = (m, c), steps
(x, y) -> (y, x mod y) until y = 0, and its j-th symbol, j = 0, 1, ...,
is (x : (-1)^(j+1) y).  Step j is k = n - j of the walk of a, whose
sign is (-1)^(n-j-1): the lane's symbols are those of a at even n and
their iota images at odd n.  The weight: a = (-1)^(n-1) c^-1, so
chi_D(a) = chi_D(c) s^[n even].  At even n the lane is the walk of a
weighted s chi_D(c).  At odd n, chi_D(a) = chi_D(c), and the lane is
iota(w), w the walk of a; at weight s chi_D(c) it adds
s chi_D(c) (iota(w) + s w) = chi_D(c) (w + s iota(w)) to
h + s iota(h), what chi_D(a) w adds.  So every lane is weighted
sign(D) chi_D(c), and n is never computed.

chi_D comes from the characters of the prime discriminants dividing D,
made on the half the walk reads from tables shared by a window
(`_half_chis`); the remainder walks of many D run together in one
lockstep Euclid loop, the symbols of each piece of lanes counted by one
`bincount` keyed by row and the sign of the weight (`theta_elements`).
A lane carries u = x mod N, since the next step's x is this step's y.
The symbol (u : v) has index 1 + v u^-1 mod N if u != 0 and 0 if
u = 0; the walk reads u^-1 as 0 at u = 0, so it counts (0 : v) =
(0 : 1) at index 1, that of (1 : 0), and then zeroes index 1.  Proof
that nothing is lost: within a lane, a step with N | y, whose symbol is
(1 : 0), is never the last (that has y = 1), and the next step has
N | x, the symbol (0 : 1); every step with N | x follows one with
N | y, as the first has x = |D| prime to N.  So a lane has as many
(0 : 1) as (1 : 0), at its one weight, and every pair (0 : 1) + (1 : 0)
= x + xS is killed by the two-term relation in M_rel (iota fixes
both).  The folded counts go to M_rel through the quotient map's rows
at the symbols they count, whose coordinates 1 .. 2g are the cuspidal
ones.
`path_to_chain` is the one-path form, on the convergents of a/m
(`_symbol_stream`).
"""

from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import islice
from math import gcd

import numpy as np

from .exact_linalg import (
    IntMatrix,
    as_int64,
    factorize,
    hnf_rows,
    is_prime,
    kronecker,
    left_inverse,
    left_kernel,
    mul_int64,
    primes_up_to,
    primitive_root,
    unit_powers,
)
from .quadfield import fundamental_mask, legendre_table

_S = ((0, -1), (1, 0))
_T = ((0, -1), (1, -1))


def _act(c, d, g):
    return c * g[0][0] + d * g[1][0], c * g[0][1] + d * g[1][1]


def p1_index(u, v, N, inv):
    """P^1(Z/NZ) index of (u : v) for u, v already reduced mod N: (0 : v)
    is 0 and (u : v) = (1 : v/u) is 1 + v/u, with `inv` the inverses
    mod N.  Works on ints and, elementwise, on int64 arrays (with `inv`
    an array); the degenerate (0 : 0) also lands on 0."""
    return (1 + v * inv[u] % N) * (u != 0)


def check_level(N):
    if not is_prime(N) or N < 5:
        raise ValueError("level must be a prime >= 5")


def check_pair(N, p):
    """The standing hypotheses on (N, p): prime level N >= 5, prime
    p >= 5, and p dividing N - 1 exactly once."""
    check_level(N)
    if not is_prime(p) or p < 5:
        raise ValueError("need a prime p >= 5")
    if (N - 1) % p or ((N - 1) // p) % p == 0:
        raise ValueError("hypothesis p || N-1 violated")


def genus(N):
    """Genus of X_0(N) at prime level N >= 5: (N + 1 - 3 nu_2 - 4 nu_3) / 12,
    with nu_2 = 1 + (-4/N) and nu_3 = 1 + (-3/N) elliptic points."""
    check_level(N)
    nu2 = 1 + kronecker(-4, N)
    nu3 = 1 + kronecker(-3, N)
    return (N + 1 - 3 * nu2 - 4 * nu3) // 12


@dataclass(frozen=True)
class Presentation:
    """Manin-symbol presentation at prime level N (Cremona, ch. 2).

    Generators are indexed by P^1(Z/NZ).  The two-term relations
    x + xS = 0 are folded away: generator i equals sign_of[i] times the
    folded variable var_of[i], whose representative generator is
    reps[var_of[i]]; a self-paired symbol leaves a 2y = 0 relation on
    its variable (listed in `sfixed`).  What remains is the relation
    matrix in folded variables, `relations`, an (nrel, 3) array of
    sparse (row, var, coeff) triples: one row per tau-orbit, then one
    row per `sfixed` entry.  Every index field is a read-only int64
    array.
    """

    N: int
    generators: tuple  # the N+1 points (c, d) of P^1(Z/NZ)
    inv: tuple  # inverses mod N (index 0 unused)
    sigma: np.ndarray  # index permutations (c:d) -> (c:d)S, (c:d)T, (-c:d)
    tau: np.ndarray
    iota: np.ndarray
    var_of: np.ndarray
    sign_of: np.ndarray
    reps: np.ndarray
    sfixed: np.ndarray
    relations: np.ndarray
    nrel: int


def presentation(N):
    """The folded Manin-symbol presentation at prime level N >= 5.

    S^2 = -I and T^3 = I act trivially on P^1, so sigma is an involution
    and the tau-orbits have 1 or 3 symbols.  A variable is the S-orbit
    {i, sigma(i)}, numbered in the order of its least member, which is
    its representative (sign +1); so i is a representative exactly when
    i <= sigma(i).  A tau-orbit's row lists its least member i, then
    tau(i) and tau(tau(i)), and the rows come in the order of their
    least members."""
    check_level(N)
    gens = ((0, 1),) + tuple((1, y) for y in range(N))
    n = N + 1
    power = unit_powers(primitive_root(N), N)  # (g^k)^-1 = g^(K - k), K = N - 1
    invarr = np.zeros(N, dtype=np.int64)
    invarr[power] = power[-np.arange(N - 1) % (N - 1)]
    cs = np.ones(n, dtype=np.int64)
    cs[0] = 0
    ds = np.concatenate([[1], np.arange(N, dtype=np.int64)])

    def perm(u, v):
        return p1_index(u % N, v % N, N, invarr)

    sigma = perm(*_act(cs, ds, _S))
    tau = perm(*_act(cs, ds, _T))
    iota = perm(-cs, ds)

    # fold the two-term relations: x_j = -x_i for j = sigma(i) != i
    i = np.arange(n)
    first = i <= sigma
    reps = np.flatnonzero(first)
    var_of = np.empty(n, dtype=np.int64)
    var_of[reps] = np.arange(len(reps))
    var_of[~first] = var_of[sigma[~first]]
    sign_of = np.where(first, 1, -1).astype(np.int64)
    sfixed = np.flatnonzero(sigma[reps] == reps)

    # three-term relations, one row per tau-orbit, in folded variables
    tau2 = tau[tau]
    lead = np.flatnonzero((i <= tau) & (i <= tau2))
    size = np.where(tau[lead] == lead, 1, 3)
    orbit = np.stack([lead, tau[lead], tau2[lead]], axis=1)[np.arange(3) < size[:, None]]
    rows = np.concatenate([np.repeat(np.arange(len(lead)), size),
                           len(lead) + np.arange(len(sfixed))])
    relations = np.stack([rows, np.concatenate([var_of[orbit], sfixed]),
                          np.concatenate([sign_of[orbit], np.full(len(sfixed), 2)])], axis=1)
    fields = dict(sigma=sigma, tau=tau, iota=iota, var_of=var_of, sign_of=sign_of, reps=reps,
                  sfixed=sfixed, relations=relations)
    for a in fields.values():
        a.flags.writeable = False
    return Presentation(N=N, generators=gens, inv=tuple(invarr.tolist()),
                        nrel=len(lead) + len(sfixed), **fields)


def _spans(indptr, rows):
    """(which, pos) for compressed rows with pointers `indptr`: pos lists
    the positions of the entries of the rows `rows` (an int64 array), in
    the order given and each row's in its own order, and which[i] is the
    index in `rows` of the row holding pos[i]."""
    start = indptr[rows]
    size = indptr[rows + 1] - start
    which = np.repeat(np.arange(len(rows)), size)
    return which, np.arange(len(which)) + np.repeat(start - (np.cumsum(size) - size), size)


@dataclass(frozen=True, eq=False)
class CSR:
    """An int64 matrix of `ncols` columns in compressed sparse rows: row r
    holds the entries cols[k], vals[k] for indptr[r] <= k < indptr[r + 1],
    in increasing column, none of them zero, in read-only arrays."""

    indptr: np.ndarray
    cols: np.ndarray
    vals: np.ndarray
    ncols: int

    def __post_init__(self):
        for a in (self.indptr, self.cols, self.vals):
            a.flags.writeable = False

    @classmethod
    def from_entries(cls, rows, cols, vals, nrows, ncols):
        """The matrix with the entries (rows[i], cols[i]) = vals[i], given in
        any order, no position twice and no value zero."""
        order = np.argsort(rows * ncols + cols, kind="stable")
        indptr = np.concatenate([[0], np.cumsum(np.bincount(rows, minlength=nrows))])
        return cls(indptr, cols[order], vals[order], ncols)

    def take(self, rows):
        """(which, cols, vals): the entries of the rows `rows`, an int64
        array, in that order (`_spans`), which[i] being the index in
        `rows` of the row of entry i."""
        which, pos = _spans(self.indptr, rows)
        return which, self.cols[pos], self.vals[pos]

    def dense(self, rows=None):
        """The rows `rows` (an int64 array; all of them by default), in
        that order, as a dense int64 array."""
        if rows is None:
            rows = np.arange(len(self.indptr) - 1)
        which, cols, vals = self.take(rows)
        out = np.zeros((len(rows), self.ncols), dtype=np.int64)
        out[which, cols] = vals
        return out

    def gather_add(self, out, rows, nout):
        """The nout x ncols float64 array whose row i is the sum of the
        rows rows[k] of the matrix over the k with out[k] = i (int64
        arrays of one length): the rows' entries gathered, then added by
        one `bincount`.  Every partial sum is an integer of absolute
        value at most len(rows) max |vals|, and float64 adds integers
        exactly below 2^53: each caller checks that bound."""
        which, cols, vals = self.take(rows)
        return np.bincount(out[which] * self.ncols + cols, weights=vals,
                           minlength=nout * self.ncols).reshape(nout, self.ncols)

    def max_abs(self):
        """The largest absolute value of an entry, 0 when there is none."""
        return int(np.abs(self.vals).max()) if self.vals.size else 0

    @cached_property
    def _by_column(self):
        """(rows, vals, starts, cols): the entries in column order, each
        column's in row order, and for each column cols[i] that has
        entries, the position starts[i] of its first."""
        rows = np.repeat(np.arange(len(self.indptr) - 1), np.diff(self.indptr))
        order = np.argsort(self.cols, kind="stable")
        size = np.bincount(self.cols, minlength=self.ncols)
        cols = np.flatnonzero(size)
        return rows[order], self.vals[order], (np.cumsum(size) - size)[cols], cols

    def left_mul(self, x):
        """x @ self for a dense int64 array x of rows with one column per
        row of the matrix, in int64: x's columns gathered at every entry's
        row, in column order, times the entries, and each column's run
        summed by one `reduceat`.  Every partial sum is at most the
        largest row sum of |x| times max |vals|: raises ValueError unless
        that is below 2^63, summed on Python ints past int64."""
        size = np.abs(x)
        if size.min(initial=0) < 0 or int(size.max(initial=0)) * x.shape[1] >= 2**63:
            size = np.abs(x.astype(object))  # -2^63 has no int64 absolute value
        if int(size.sum(axis=1).max(initial=0)) * self.max_abs() >= 2**63:
            raise ValueError("sparse product bound exceeded for int64")
        rows, vals, starts, cols = self._by_column
        out = np.zeros((len(x), self.ncols), dtype=np.int64)
        if len(cols):
            out[:, cols] = np.add.reduceat(x[:, rows] * vals, starts, axis=1)
        return out


def tree_reduction(pres):
    """(free, red): M_rel read off a spanning tree of the tau-orbit graph
    (module docstring), grown breadth-first from row 0 in relation order,
    so the output is deterministic.  `free` lists the 2g + 1 non-tree
    variables in increasing order; red, a `CSR` of nvars rows and 2g + 1
    columns, maps each folded variable to M_rel: a unit row at a free
    one, empty at an S-fixed one, and at the tree edge into row u, minus
    its coefficient there times the sum of the rows of u's subtree on
    the free columns.  Raises ValueError if the relations are not a
    connected graph with 2g + 1 free edges.

    The tree is grown one level at a time: the next level is read off
    the edges of the frontier's rows, taken in queue order and each
    row's in relation order, and a new row's tree edge is the first
    that reaches it.  A FIFO queue meets those edges in that same order
    and marks a row at its first edge, so this is its tree, with the
    same `free`.

    The subtree sums are never formed.  A free edge f with ends a, b
    and coefficients c_a = -c_b there adds c_a + c_b = 0 to the sum of a
    subtree holding both ends, and nothing to one holding neither; so
    its column of the sum over u's subtree is c_f(x) when the subtree
    holds exactly one end x, that is when u lies on the tree path from
    x up to, but not including, the meeting point of a and b, and zero
    otherwise.  The tree edge into such a u gets -c_t(u) c_f(x) in f's
    column, c_t(u) being its coefficient in row u.  Every free edge
    walks its two ends up to their meeting point, the deeper end first
    and both at equal depth, all edges in lockstep; a loop (a = b) has
    met at once, so its column is zero off its own unit row.  With the
    coefficients +-1 of a tau-orbit row, every entry is -1 or 1.
    """
    nvars = len(pres.reps)
    nrows = pres.nrel - len(pres.sfixed)  # the tau-orbit rows come first
    half = np.zeros(nvars, dtype=bool)  # killed by their 2y = 0 rows wherever they sit
    half[pres.sfixed] = True
    r, v, c = np.asarray(pres.relations, dtype=np.int64).reshape(-1, 3).T
    tau_row = r < nrows
    r, v, c = r[tau_row], v[tau_row], c[tau_row]
    bad = ~half & ((np.bincount(v, minlength=nvars) != 2)
                   | (np.bincount(v, weights=c, minlength=nvars) != 0))
    if bad.any():
        raise ValueError(f"variable {np.flatnonzero(bad)[0]} does not sit in exactly two "
                         "tau-row slots of opposite signs")

    edge = ~half[v]  # the slots of the edges, in relation order
    r, v, c = r[edge], v[edge], c[edge]
    by_var = np.argsort(v, kind="stable")  # each edge's two slots, in relation order
    end = np.zeros((2, nvars), dtype=np.int64)
    coeff = np.zeros((2, nvars), dtype=np.int64)
    for s in (0, 1):
        slot = by_var[s::2]
        end[s, v[slot]], coeff[s, v[slot]] = r[slot], c[slot]
    by_row = np.argsort(r, kind="stable")  # each row's slots, in relation order
    inc_ptr = np.concatenate([[0], np.cumsum(np.bincount(r, minlength=nrows))])
    inc_var = v[by_row]
    inc_far = end[0, inc_var] + end[1, inc_var] - r[by_row]  # the other end; the row for a loop

    parent = np.full(nrows, -1, dtype=np.int64)  # the tree edge into each row but the root
    up = np.full(nrows, -1, dtype=np.int64)  # the row at its other end
    depth = np.zeros(nrows, dtype=np.int64)
    seen = np.zeros(nrows, dtype=bool)
    seen[0] = True
    frontier = np.zeros(1, dtype=np.int64)
    while len(frontier):
        which, pos = _spans(inc_ptr, frontier)
        reach = ~seen[inc_far[pos]]
        which, pos = which[reach], pos[reach]
        first = np.sort(np.unique(inc_far[pos], return_index=True)[1])
        which, pos = which[first], pos[first]
        new = inc_far[pos]
        parent[new], up[new] = inc_var[pos], frontier[which]
        depth[new] = depth[frontier[0]] + 1
        seen[new] = True
        frontier = new
    if not seen.all():
        raise ValueError("the tau-orbit graph is not connected")
    tree = np.zeros(nvars, dtype=bool)
    tree[parent[1:]] = True
    free = np.flatnonzero(~half & ~tree)
    if len(free) != 2 * genus(pres.N) + 1:
        raise ValueError("the tau-orbit graph does not have 2g + 1 free edges")

    t = parent[1:]  # c_t(u): the tree edge's coefficient in the row it enters
    c_up = np.zeros(nrows, dtype=np.int64)
    c_up[1:] = np.where(end[0, t] == np.arange(1, nrows), coeff[0, t], coeff[1, t])
    col = np.arange(len(free))
    rows, cols, vals = [free], [col], [np.ones(len(free), dtype=np.int64)]
    x, y = end[0, free], end[1, free]
    cx, cy = coeff[0, free], coeff[1, free]
    while len(col):
        live = (x != y).nonzero()[0]
        col, x, y, cx, cy = (a.take(live) for a in (col, x, y, cx, cy))
        dx, dy = depth[x], depth[y]
        for climb, z, cz in ((dx >= dy, x, cx), (dy >= dx, y, cy)):
            u = z[climb]
            rows.append(parent[u])
            cols.append(col[climb])
            vals.append(-c_up[u] * cz[climb])
            z[climb] = up[u]
    red = CSR.from_entries(np.concatenate(rows), np.concatenate(cols), np.concatenate(vals),
                           nvars, len(free))
    return free.tolist(), red


def quotient_map(pres, red):
    """The quotient map from symbols to M_rel, as the read-only `CSR` of
    its N + 1 symbol rows: symbol i's row is sign_of[i] times the row of
    its variable var_of[i] in the tree's `red` (`tree_reduction`)."""
    var_of = np.asarray(pres.var_of, dtype=np.int64)
    which, cols, vals = red.take(var_of)
    indptr = np.concatenate([[0], np.cumsum(np.diff(red.indptr)[var_of])])
    return CSR(indptr, cols, vals * np.asarray(pres.sign_of, dtype=np.int64)[which], red.ncols)


@dataclass(frozen=True)
class ModularSymbolSpace:
    """Immutable exact model of H_1(X_0(N), cusps; Z) and its pieces.

    Matrix conventions: everything acts on row vectors from the right.
    `qmap`, the sparse quotient map (`quotient_map`), maps Manin-symbol
    coordinates to M_rel coordinates, and coordinate j is the class of
    the symbol `coord_symbols[j]`, so its rows there are the identity.
    No dense copy of it is kept.  M is the slice of coordinates 1 .. 2g
    (module docstring): `star`, `plus_basis`, `minus_basis` and the
    Hecke matrices live in those cuspidal coordinates; `star`, iota on
    M, is a 2g x 2g `CSR` like `qmap`.  Each signed basis is derived
    from `star` on first use, one sign at a time, and then kept: the
    canonical Hermite form of the star's eigenlattice (`signed_basis`),
    from its pair vectors e_a + s e e_b and the saturated lift of the
    left kernel of the reduced system on the other rows (module
    docstring), checked to have rank g.  Its left inverse is its pivot
    columns when every pivot is 1 (`hermite_left_inverse`).  The symbol
    indexing (`generators`, `_inv`, `_iota`) is that of
    `presentation(N)`.  `build_space(N)` makes every field a
    deterministic function of N, so a cache file stores N and a digest
    of the space, not the space (`harness.save_context`).
    """

    N: int
    qmap: CSR  # symbols -> M_rel, N + 1 rows of 2g + 1 columns
    coord_symbols: tuple  # the symbol of each M_rel coordinate; (0:1) first
    star: CSR  # involution on M, cuspidal coordinates, 2g x 2g
    genus: int
    generators: tuple  # the N+1 points (c, d) of P^1(Z/NZ)
    _inv: tuple  # inverses mod N (index 0 unused)
    _iota: np.ndarray  # index permutation of (c:d) -> (-c:d), read-only int64

    def index(self, u, v):
        """P^1(Z/NZ) index of (u : v); None for the degenerate (0:0)."""
        u %= self.N
        v %= self.N
        return p1_index(u, v, self.N, self._inv) if u or v else None

    def _signed_basis(self, sign):
        """`signed_basis` of the star, checked to have rank g."""
        basis = signed_basis(self.star, sign)
        if len(basis) != self.genus:
            raise ValueError(f"the star's {sign:+d} eigenlattice has rank {len(basis)}, "
                             f"not g = {self.genus}")
        return IntMatrix(basis)

    @cached_property
    def plus_basis(self):
        """Rows: the Hermite basis of M^+ in cuspidal coordinates."""
        return self._signed_basis(1)

    @cached_property
    def minus_basis(self):
        """Rows: the Hermite basis of M^- in cuspidal coordinates."""
        return self._signed_basis(-1)

    # left inverses of the signed bases (`hermite_left_inverse`), never
    # written to a cache file
    @cached_property
    def plus_inverse(self):
        return hermite_left_inverse(self.plus_basis)

    @cached_property
    def minus_inverse(self):
        return hermite_left_inverse(self.minus_basis)

    def signed(self, sign):
        """The array of the basis of M^+ (sign > 0) or M^-, and its left
        inverse as `solve_by_inverse` reads it."""
        if sign > 0:
            return self.plus_basis.array, self.plus_inverse
        return self.minus_basis.array, self.minus_inverse

    @cached_property
    def relation_kernel_basis(self):
        """The section M_rel -> symbols: row j is the unit vector at
        `coord_symbols[j]`.  No computation reads it; it is kept for
        readers outside the package."""
        sec = np.zeros((len(self.coord_symbols), self.N + 1), dtype=np.int64)
        sec[np.arange(len(sec)), self.coord_symbols] = 1
        return IntMatrix(sec)


@dataclass(frozen=True)
class ThetaElement:
    """Theta element of a fundamental discriminant: the chain
    sum_a chi_D(a) {0, a/|D|} in cuspidal coordinates."""

    D: int
    coords: tuple
    sign: int


def build_space(N):
    """The modular-symbol space at prime level N >= 5 of genus g >= 1, on
    the M_rel basis of `tree_reduction`: presentation, tree, quotient
    map, its check, and the star; the signed bases come on first use."""
    if genus(N) == 0:
        raise ValueError(f"X_0({N}) has genus 0: there is no cuspidal lattice")
    pres = presentation(N)
    return _space_from_tree(pres, *tree_reduction(pres))


def coordinate_symbols(pres, free):
    """The representative symbol of each free variable, that is of each
    M_rel coordinate; raises ValueError unless coordinate 0 is
    (0:1) = {0, oo}, on which reading M as coordinates 1 .. 2g rests
    (module docstring)."""
    symbols = np.asarray(pres.reps)[free].tolist()
    if not symbols or symbols[0] != 0:
        raise ValueError("M_rel coordinate 0 is not the symbol (0:1) = {0, oo}")
    return symbols


def cuspidal_coords(rel, what):
    """The cuspidal coordinates rel[:, 1:] of the rows of an M_rel array;
    raises ValueError if a row has a nonzero coordinate 0, that is a
    nonzero boundary."""
    if rel[:, 0].any():
        raise ValueError(f"{what} has nonzero boundary")
    return rel[:, 1:]


def _space_from_tree(pres, free, red):
    """The space on the M_rel basis of a spanning tree's (free, red)
    (`tree_reduction`), checked: each coordinate is the class of its
    free variable's representative symbol, and coordinate 0 is that of
    (0:1).  The star is read off the quotient map's rows at the iota
    images of the coordinate symbols; a nonzero boundary is refused."""
    symbols = coordinate_symbols(pres, free)
    qmap = quotient_map(pres, red)
    k = len(symbols)
    which, cols, vals = qmap.take(np.array(symbols))
    if not (np.array_equal(which, np.arange(k)) and np.array_equal(cols, np.arange(k))
            and (vals == 1).all()):
        raise ValueError("the reduction does not send the coordinate symbols to the identity")
    which, cols, vals = qmap.take(np.asarray(pres.iota, dtype=np.int64)[symbols[1:]])
    if (cols == 0).any():
        raise ValueError("star image has nonzero boundary")
    star = CSR.from_entries(which, cols - 1, vals, k - 1, k - 1)
    return ModularSymbolSpace(
        N=pres.N,
        qmap=qmap,
        coord_symbols=tuple(symbols),
        star=star,
        genus=genus(pres.N),
        generators=pres.generators,
        _inv=pres.inv,
        _iota=pres.iota,
    )


def star_pairs(star):
    """(pi, eps, paired), the signed-permutation pairs of a star's `CSR`,
    for both routes: pi[j] is the column of row j's single entry, or -1
    when row j does not hold exactly one; eps[j] is that entry (else 0);
    paired[j] is pi[pi[j]] == j.  Each caller checks the pairs' entries
    its own way: +-1 over Z, S^2 = I mod p."""
    single = np.diff(star.indptr) == 1
    first = star.indptr[:-1][single]
    pi = np.full(star.ncols, -1)
    eps = np.zeros(star.ncols, dtype=np.int64)
    pi[single], eps[single] = star.cols[first], star.vals[first]
    return pi, eps, single & (pi[pi] == np.arange(star.ncols))


def signed_basis(star, sign):
    """The canonical row Hermite form, an int64 array, of the lattice
    {x : x S = sign x} of the star involution S, the `CSR` `star`, read
    off its signed-permutation pairs (`star_pairs`, module docstring).
    Raises ValueError if a pair's two entries are not one and the same
    +-1, or if a row of the result is not fixed by sign * S, which is
    tested on the star's nonzero entries."""
    n = star.ncols
    pi, eps, paired = star_pairs(star)
    j = np.arange(n)
    a = np.flatnonzero(paired & (j < pi))
    b, e = pi[a], eps[a]
    if (np.abs(e) != 1).any() or (eps[b] != e).any():
        raise ValueError("a signed-permutation pair of the star is not a +-1 transposition")
    fixed = np.flatnonzero(paired & (j == pi) & (eps == sign))
    other = np.flatnonzero(~paired | ((j == pi) & (eps != sign)))

    # the other coordinates y of the lattice: the left kernel of the
    # reduced system, lifted by x_b = -e y S_oa
    s_o = star.dense(other)
    system = np.hstack([s_o[:, other] - sign * np.eye(len(other), dtype=np.int64),
                        s_o[:, b] + sign * e * s_o[:, a], s_o[:, fixed]])
    system = system[:, system.any(axis=0)]
    ker = left_kernel(IntMatrix(system)) if system.any() else np.eye(len(other), dtype=np.int64)
    y = as_int64(ker).reshape(len(ker), len(other))
    lift = np.zeros((len(y), n), dtype=np.int64)
    lift[:, other] = y
    lift[:, b] = -e * mul_int64(y, s_o[:, a])
    # its Hermite form, on the columns the lift touches
    h = np.zeros((len(y), n), dtype=np.int64)
    touched = np.flatnonzero(lift.any(axis=0))
    if len(y):
        h[:, touched] = as_int64(hnf_rows(IntMatrix(lift[:, touched])))
    piv = np.argmax(h != 0, axis=1)
    d = h[np.arange(len(h)), piv]

    # the pair rows e_a + sign e e_b, reduced at the derived pivots in
    # increasing order, and the fixed rows e_f
    top = np.zeros((len(a) + len(fixed), n), dtype=np.int64)
    top[np.arange(len(a)), a] = 1
    top[np.arange(len(a)), b] = sign * e
    top[len(a) + np.arange(len(fixed)), fixed] = 1
    for k in range(len(h)):
        q = top[:len(a), piv[k]] // d[k]
        hit = np.flatnonzero(q)
        top[hit] -= q[hit, None] * h[k]
    basis = np.vstack([top, h])[np.argsort(np.concatenate([a, fixed, piv]))]

    if not np.array_equal(star.left_mul(basis), sign * basis):
        raise ValueError(f"the signed basis is not fixed by {sign:+d} times the star")
    return basis


def hermite_left_inverse(basis):
    """A left inverse of the Hermite basis `basis` (an IntMatrix), as
    `solve_by_inverse` reads it: the read-only int64 array of its pivot
    columns when every pivot is 1, at which the basis is the identity
    (the entries above a pivot 1 are 0); the array of `left_inverse`
    otherwise."""
    b = basis.array
    cols = np.argmax(b != 0, axis=1)
    if (b[np.arange(len(b)), cols] == 1).all():
        cols.flags.writeable = False
        return cols
    return left_inverse(basis).array


# ---------------------------------------------------------------------------
# the Hecke action on Manin symbols

# Merel's four matrices of determinant 2, which are Cremona's family at l = 2
_CREMONA_2 = ((1, 0, 0, 2), (2, 0, 0, 1), (2, 1, 0, 1), (1, 0, 1, 2))


def cremona_families(ells):
    """Cremona's Heilbronn matrices of determinant l for each prime l of
    `ells`, in order (repeats allowed), as int64 arrays of rows
    (a, b, c, d), from one walk.

    The family of l is (1, 0; 0, l) and, for each r with |r| <= l // 2,
    the matrices met by the nearest-integer continued fraction of -l/r,
    started at (l, -r; 0, 1): with (a, b) = (-l, r), each step takes
    q = round(a / b), halves rounded away from zero, sets
    (a, b) = (-b, a - qb) and (x1, x2; y1, y2) =
    (x2, q x2 - x1; y2, q y2 - y1), until b = 0.  Each step keeps the
    determinant.  For l = 2 the family is Merel's four matrices.

    Every (l, r) is a lane of one lockstep loop, and (1, 0; 0, l) and
    each of Merel's four a lane with b = 0, which stops at once.  A
    lane's rows are its start and the matrix after each of its steps;
    they are put in lane order, each lane's in step order, so a family
    is the walks of its r one after the other."""
    ells = [int(ell) for ell in ells]
    starts = []  # one block of lanes (x1, x2, y1, y2, a, b) per family
    for ell in ells:
        if ell == 2:
            starts.append(np.array([m + (0, 0) for m in _CREMONA_2], dtype=np.int64))
            continue
        r = np.arange(-(ell // 2), ell // 2 + 1, dtype=np.int64)
        lanes = np.zeros((len(r) + 1, 6), dtype=np.int64)
        lanes[0, :4] = (1, 0, 0, ell)
        lanes[1:, 0], lanes[1:, 1], lanes[1:, 3] = ell, -r, 1
        lanes[1:, 4], lanes[1:, 5] = -ell, r
        starts.append(lanes)
    if not starts:
        return []
    sizes = [len(lanes) for lanes in starts]
    start = np.concatenate(starts)
    rows, ids = [start[:, :4]], [np.arange(len(start))]
    lane = np.flatnonzero(start[:, 5])
    x1, x2, y1, y2, a, b = start[lane].T
    while len(lane):
        q = (2 * a + b) // (2 * b)  # floor(a / b + 1/2)
        q -= ((2 * a + b) == q * (2 * b)) & (q <= 0)  # a / b = q - 1/2 < 0 rounds down
        a, b = -b, a - b * q
        x1, x2 = x2, q * x2 - x1
        y1, y2 = y2, q * y2 - y1
        rows.append(np.stack([x1, x2, y1, y2], axis=1))
        ids.append(lane)
        live = (b != 0).nonzero()[0]
        lane, x1, x2, y1, y2, a, b = (t.take(live) for t in (lane, x1, x2, y1, y2, a, b))
    ids = np.concatenate(ids)
    order = np.argsort(ids, kind="stable")
    out = np.concatenate(rows)[order]
    family = np.repeat(np.arange(len(sizes)), sizes)[ids[order]]
    if (out[:, 0] * out[:, 3] - out[:, 1] * out[:, 2]
            != np.array(ells, dtype=np.int64)[family]).any():
        raise ValueError("Cremona family has a matrix of the wrong determinant")
    return np.split(out, np.cumsum(np.bincount(family, minlength=len(sizes)))[:-1])


@lru_cache(maxsize=4)
def _p1_logs(N):
    """(lu, lv, index): the P^1(Z/NZ) index of (u : v), for u, v in
    [0, N), is index[lv[v] - lu[u]], and -1 at (0 : 0) (module
    docstring).  Read-only, and cached for the few levels in use, as
    every Hecke operator at N reads them."""
    K = N - 1
    power = unit_powers(primitive_root(N), N)
    log = np.zeros(N, dtype=np.int64)
    log[power] = np.arange(K)
    lu, lv = log, log + K
    lu[0], lv[0] = -K, 4 * K
    index = np.full(5 * K + 1, -1, dtype=np.int64)
    index[1:2 * K] = 1 + power[np.arange(1, 2 * K) % K]  # u, v != 0: 1 + v/u
    index[2 * K:3 * K] = 0  # u = 0
    index[3 * K + 1:4 * K + 1] = 1  # v = 0
    for table in (lu, lv, index):
        table.flags.writeable = False
    return lu, lv, index


def family_images(symbols, fam, N, width):
    """The images of the symbols symbols[i] = (c, d) under the family
    `fam`, as int64 arrays t, one for each run of at most `width`
    consecutive matrices: t[i, m] is the P^1(Z/NZ) index of the image of
    symbols[i] under the run's m-th matrix, read off discrete logs
    (`_p1_logs`).  The family is reduced mod N once; an empty family
    gives one empty run.  Raises ValueError unless
    2 N max(N, max|entry|) < 2^63, which keeps c a + d c' exact in
    int64 for 0 <= c, d < N on the entries as given and reduced, and if
    an image is (0 : 0), which no matrix of determinant prime to N
    makes."""
    if len(fam) and 2 * N * max(N, int(np.abs(fam).max())) >= 2**63:
        raise ValueError("family entries too large for int64 symbol action")
    lu, lv, index = _p1_logs(N)
    cs, ds = (np.array(x, dtype=np.int64)[:, None] for x in zip(*symbols))
    fam = fam % N
    for lo in range(0, max(len(fam), 1), width):  # once for an empty family
        a, b, c, d = fam[lo:lo + width].T
        # x - x // N * N is x % N, which numpy divides by a scalar faster
        u = cs * a + ds * c
        u -= u // N * N
        v = cs * b + ds * d
        v -= v // N * N
        t = index.take(lv.take(v) - lu.take(u))
        if (t < 0).any():
            raise ValueError("a matrix of the family sends a symbol to (0 : 0)")
        yield t


def _u_n_pairs(symbols, N, inv):
    """(rows, images): U_N = -W_N (module docstring) as int64 arrays of
    pairs, one per symbol of an image, images[k] being a symbol of the
    image of symbols[rows[k]]: (0:1) goes to (0:1), and (1:y) to the walk
    of {0, y/N} past its opening (0:1)."""
    rows, images = [], []
    for i, (c, d) in enumerate(symbols):
        if (c, d) == (0, 1):
            rows.append(i)
            images.append(0)
        elif c == 1 and 0 <= d < N:
            for u, v in islice(_symbol_stream(d, N), 1, None):
                rows.append(i)
                images.append(p1_index(u % N, v % N, N, inv))
        else:
            raise ValueError("symbol is not a normalised generator")
    return np.array(rows, dtype=np.int64), np.array(images, dtype=np.int64)


def family_pairs(symbols, fam, N, width):
    """The images of the symbols under the family `fam` as (symbol,
    image) pairs (`hecke_matrix`): one run per `family_images` run, rows
    being a column of symbol indices that broadcasts against it."""
    rows = np.arange(len(symbols))[:, None]
    for t in family_images(symbols, fam, N, width):
        yield rows, t


# the (symbol, image) pairs of at most this many symbols and matrices meet
# the quotient map at a time, in `hecke_matrix`
PAIR_CHUNK = 2**16


def hecke_matrix(pairs, qmap, nrows):
    """The matrix, an exact int64 nrows x ncols array, of an operator
    whose (symbol, image) pairs `pairs` yields, as runs (rows, images)
    of int64 arrays that broadcast together: row i is the sum of the
    `qmap` rows of the images of symbol i, one per pair, so an image
    made by two matrices or walk steps counts twice.
    Each run of pairs is one `gather_add`: the image rows' entries
    gathered and added by one float64 `bincount` keyed by the symbol
    and the column.  No symbol-count array and no dense product.

    Exact: each pair adds one entry of `qmap` to one entry of T, so with
    P pairs in all every partial sum is an integer of absolute value at
    most P max|entry|, and float64 adds integers exactly below 2^53.
    That bound is checked on the number of pairs before a run is
    expanded (a run may be a broadcast view), so it cannot be fooled by
    terms that cancel.  With the tree's entries +-1 it asks only for
    P < 2^53."""
    k = qmap.ncols
    top = qmap.max_abs()
    T = np.zeros((nrows, k))
    npairs = 0
    for rows, images in pairs:
        npairs += np.broadcast(rows, images).size
        if npairs * top >= 2**53:
            raise ValueError("float64 sums of the Hecke pairs are not exact at this size")
        rows, images = (a.ravel() for a in np.broadcast_arrays(rows, images))
        T += qmap.gather_add(rows, images, nrows)
    return T.astype(np.int64)


def solve_by_inverse(B, L, v):
    """The x with x @ B = v, for int64 arrays, read off through a left
    inverse L of B (`hermite_left_inverse`): v[:, L] when L lists B's
    pivot columns, v @ L when it is a matrix (B @ L = I).  Proven by
    multiplying back; raises ValueError if some row of v is outside the
    row lattice of B."""
    x = v[:, L] if L.ndim == 1 else mul_int64(v, L)
    if not np.array_equal(mul_int64(x, B), v):
        raise ValueError("vector is not in the row span")
    return x


def hecke_operators(space, ells):
    """The matrices of T_ell for ell prime to N, or U_N for ell = N, on
    the cuspidal lattice, for each prime of `ells` in order, as
    `IntMatrix`es in cuspidal coordinates: `hecke_matrix` of the
    (symbol, image) pairs of Cremona's Heilbronn matrices for ell != N,
    in runs of at most `PAIR_CHUNK` pairs, all from one
    `cremona_families` walk, and of -W_N for U_N (`_u_n_pairs`, module
    docstring), on the space's sparse quotient map.  Only the symbols
    of the cuspidal coordinates 1 .. 2g are acted on, and their images
    are read in cuspidal coordinates."""
    ells = list(ells)
    if not all(map(is_prime, ells)):
        raise ValueError("Hecke index must be prime")
    N = space.N
    symbols = [space.generators[j] for j in space.coord_symbols[1:]]
    width = max(1, PAIR_CHUNK // len(symbols))
    families = iter(cremona_families([ell for ell in ells if ell != N]))
    out = []
    for ell in ells:
        pairs = ([_u_n_pairs(symbols, N, space._inv)] if ell == N
                 else family_pairs(symbols, next(families), N, width))
        out.append(IntMatrix(cuspidal_coords(hecke_matrix(pairs, space.qmap, len(symbols)),
                                             "Hecke image")))
    return out


def hecke(space, ell):
    """The matrix of T_ell (ell prime to N) or U_N (ell = N) on the
    cuspidal lattice (`hecke_operators`)."""
    return hecke_operators(space, [ell])[0]


def sturm_bound(N):
    """ceil((N + 1) / 6), the Sturm bound for weight 2 at prime level N:
    T_l - l - 1 for the primes l up to it, with U_N - 1, generate the
    Eisenstein ideal (`eisenstein` module docstring)."""
    return -(-(N + 1) // 6)


def sturm_primes(N):
    """The Hecke indices of the Sturm generators, in the order both
    routes take them: the primes up to the Sturm bound, all below N,
    then N."""
    return primes_up_to(sturm_bound(N)) + [N]


def restrict_to_sign(space, op_matrix, sign):
    """Restrict an operator on M (cuspidal coordinates) to M^+ or M^-."""
    basis, inverse = space.signed(sign)
    return IntMatrix(solve_by_inverse(basis, inverse, mul_int64(basis, op_matrix.array)))


# ---------------------------------------------------------------------------
# paths and theta elements

def _symbol_stream(a, m):
    """Manin symbols of the unimodular path chain of {0, a/m}: yields
    (q_k, +-q_{k-1}) over the continued-fraction convergents, seeded
    with the {0, oo} term."""
    yield 0, 1
    pm2, pm1 = 0, 1
    qm2, qm1 = 1, 0
    sign = -1  # (-1)^(k-1) for k = 0
    x, y = a, m
    while y:
        q, r = divmod(x, y)
        x, y = y, r
        pm2, pm1 = pm1, q * pm1 + pm2
        qm2, qm1 = qm1, q * qm1 + qm2
        yield qm1, sign * qm2
        sign = -sign


def path_to_chain(space, a, m):
    """Coordinates in M_rel of the modular symbol {0, a/m}: the sum of
    the quotient-map rows of its symbols, one `gather_add`, exact while
    their number times max|entry| is below 2^53, which is checked."""
    if m <= 0 or gcd(a, m) != 1:
        raise ValueError("need m > 0 and gcd(a, m) = 1")
    symbols = np.array([space.index(u, v) for u, v in _symbol_stream(a, m)], dtype=np.int64)
    if len(symbols) * space.qmap.max_abs() >= 2**53:
        raise ValueError("path: float64 sums are not exact at this size")
    rel = space.qmap.gather_add(np.zeros(len(symbols), dtype=np.int64), symbols, 1)
    return tuple(map(int, rel[0]))


# the characters of the prime discriminants -4, 8 and -8, indexed by a mod 8
_CHI_MOD_8 = {-4: (0, 1, 0, -1, 0, 1, 0, -1), 8: (0, 1, 0, -1, 0, -1, 0, 1),
              -8: (0, 1, 0, 1, 0, -1, 0, -1)}


def _half_chis(Ds):
    """chi_D(a) for 0 <= a < (|D| + 1) // 2, the half the walk reads, of
    each fundamental D in Ds, in order, as int8 arrays, some of them
    read-only views of tables shared across Ds: the product of the
    characters of the prime discriminants dividing D, a Legendre table
    mod q for each odd prime q | D (the character of q* = +-q = 1 mod 4)
    and a table mod 8 for the 2-part -4, 8 or -8.  The tables are made
    once for all of Ds: the mod-8 ones repeated to the longest half, a
    Legendre table for each distinct q.  A table at least as long as
    the half is sliced, a shorter one repeated to its length."""
    size = max([(abs(D) + 1) // 2 for D in Ds], default=0)
    two = {t: np.resize(np.array(v, dtype=np.int8), size) for t, v in _CHI_MOD_8.items()}
    for table in two.values():
        table.flags.writeable = False
    legendre = {}
    for D in Ds:
        m = abs(D)
        h = (m + 1) // 2
        odd = m >> ((m & -m).bit_length() - 1)  # m without its factors 2
        two_part = D // (odd if odd % 4 == 1 else -odd)
        chi = two[two_part][:h] if two_part != 1 else None
        for q in factorize(odd):
            table = legendre.get(q)
            if table is None:
                table = legendre[q] = legendre_table(q)
            part = table[:h] if q >= h else np.tile(table, -(-h // q))[:h]
            chi = part if chi is None else chi * part
        yield chi


# the theta walk runs at most this many lanes at a time, and counts the
# symbols of at most this many (row, symbol) cells (unless one row is wider)
_THETA_CHUNK = 2**14


def theta_elements(space, Ds):
    """Theta elements sum_a chi_D(a) {0, a/|D|} of the fundamental
    discriminants Ds, prime to N, in the order given, by the half walk
    on Euclid remainders of the module docstring.

    A lane is one c of one D, keyed by its row's block of N + 1 symbol
    counts, and the lanes of weight sign(D) chi_D(c) = -1 by a second
    block.  The rows are walked in chunks of at most _THETA_CHUNK lanes
    and (row, symbol) cells (a row with more lanes or cells is a chunk
    alone, its lanes walked in pieces of _THETA_CHUNK), so no lane
    array outgrows that bound.  The keys of a piece's steps are kept
    until the piece is walked and then counted by one `bincount`: a
    lane of D takes at most log_phi |D| steps (Lame: n division steps
    need |D| >= F_(n+2) >= phi^n), so the buffer holds at most
    _THETA_CHUNK log_phi |D| keys, 45 per lane below 2^31.5.  Each chunk
    is folded, reduced to M_rel and checked to have no boundary at once.

    The lanes and the inverse tables run in the dtype of `_walk_dtype`:
    int32 while (N - 1)^2 < 2^31 and |D| < 2^31 (so up to N = 46337),
    int64 otherwise.  Every walk value is at most |D|; a symbol's index
    multiplies two residues mod N, w inv[u] <= (N - 1)^2; and every key
    is below 2 width + N, width = (rows of the chunk) (N + 1) <=
    max(_THETA_CHUNK, N + 1), far below 2^31 at N <= 46337.  (A
    Legendre table squares residues mod q | D in int64.)  So all are
    exact in int32 under its bound, and in int64 while
    max(N, |D|)^2 < 2^63, which is checked before any symbol data is
    read."""
    N = space.N
    Ds = list(Ds)
    if not fundamental_mask(Ds).all() or any(gcd(D, N) != 1 for D in Ds):
        raise ValueError("need a fundamental discriminant prime to N")
    if max([N] + [abs(D) for D in Ds]) ** 2 >= 2**63:
        raise ValueError("theta walk: N or |D| too large for int64 arithmetic")
    tables = _inverse_tables(space, _walk_dtype(N, max([abs(D) for D in Ds], default=0)))
    iota = np.array(space._iota, dtype=np.int64)
    out = []
    rows, n = [], 0  # the rows (D, c, weight < 0) of the next chunk, n lanes
    for D, chi in zip(Ds, _half_chis(Ds)):
        c = np.flatnonzero(chi)  # the 0 < c < |D|/2 with chi_D(c) != 0
        if rows and (n + len(c) > _THETA_CHUNK or (len(rows) + 1) * (N + 1) > _THETA_CHUNK):
            out += _theta_chunk(space, rows, tables, iota)
            rows, n = [], 0
        rows.append((D, c, chi[c] != (1 if D > 0 else -1)))
        n += len(c)
    return out + (_theta_chunk(space, rows, tables, iota) if rows else [])


def _walk_dtype(N, m):
    """The dtype of the theta walk's lanes at level N for |D| <= m: int32
    while (N - 1)^2 < 2^31 and m < 2^31, int64 otherwise
    (`theta_elements`)."""
    return np.int32 if (N - 1) ** 2 < 2**31 and m < 2**31 else np.int64


def _inverse_tables(space, dtype):
    """The maps u -> -u^{-1} and u -> u^{-1} mod N, both 0 at u = 0, as
    `dtype` arrays: the walk reads them at the signs -1 and +1."""
    inv = np.array(space._inv, dtype=dtype)
    return -inv % space.N, inv


def _theta_chunk(space, rows, tables, iota):
    """The theta elements of the rows (D, c, sign(D) chi_D(c) < 0) of one
    chunk, `tables` being `_inverse_tables`: the lanes run in their
    dtype (module docstring)."""
    N = space.N
    dtype = tables[1].dtype
    Ds = [D for D, _, _ in rows]
    width = len(rows) * (N + 1)
    row = np.repeat(np.arange(len(rows), dtype=dtype), [len(c) for _, c, _ in rows])
    c_all = np.concatenate([c for _, c, _ in rows]).astype(dtype)
    # offset by 1: the symbol (u : -+w), u != 0, has index 1 + (-+w u^-1 mod N)
    neg = np.concatenate([neg for _, _, neg in rows]).astype(dtype)
    key_all = 1 + row * (N + 1) + width * neg
    m_all = np.abs(np.array(Ds, dtype=dtype))[row]
    counts = np.zeros(2 * width, dtype=np.int64)
    for lo in range(0, len(c_all), _THETA_CHUNK):
        piece = slice(lo, lo + _THETA_CHUNK)
        # lane c walks the remainders of (m, c), carrying u = x mod N;
        # x - x // N * N is x % N, which numpy divides by a scalar faster
        x, y, key = m_all[piece], c_all[piece], key_all[piece]
        u = x - x // N * N
        keys = []  # the (row, sign, symbol) keys of the piece's steps
        step = 0  # all lanes take their j-th step together: one sign, (-1)^(j+1)
        while len(x):
            w = y - y // N * N
            t = w * tables[step & 1].take(u)
            keys.append(key + (t - t // N * N))
            r = x % y
            live = (r != 0).nonzero()[0]  # numpy finds a bool array's nonzeros faster
            x, y, u, key = y.take(live), r.take(live), w.take(live), key.take(live)
            step += 1
        counts += np.bincount(np.concatenate(keys), minlength=2 * width)
    half = (counts[:width] - counts[width:]).reshape(len(rows), N + 1)
    half[:, 1] = 0  # as many (0 : 1) as (1 : 0), both counted here (module docstring)
    # theta = half + s iota(half), s = sign(D), reduced to M_rel by the
    # sparse quotient map
    s = np.sign(np.array(Ds, dtype=np.int64))[:, None]
    theta = half + s * half[:, iota]
    in_m = cuspidal_coords(space.qmap.left_mul(theta), "theta chain")
    return [ThetaElement(D=D, coords=tuple(c), sign=1 if D > 0 else -1)
            for D, c in zip(Ds, in_m.tolist())]


def theta_element(space, D):
    """Theta element: sum over a mod |D| of chi_D(a) {0, a/|D|}."""
    return theta_elements(space, [D])[0]
