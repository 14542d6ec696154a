"""Shared helpers: independent oracles the library is checked against.

Everything here deliberately avoids the closed-form code paths.  Reference
states come from explicit tensor products, cascade outputs from repeated
operator application, and interference amplitudes from literal enumeration
of detector-to-emitter assignments.
"""

import itertools
from math import comb, frexp
from operator import itemgetter

import numpy as np
from hypothesis import settings

import dickesim as ds
from dickesim.core import _sqrt_binomials

# reproducible property tests: the same examples on every run, no example
# database, and no per-example deadline (the first call of a size fills caches)
settings.register_profile("dickesim", deadline=None, derandomize=True, database=None)
settings.load_profile("dickesim")


#: The circular polarizers that put every detected emitter in ``+``, or in ``-``.
PLUS = ds.Polarizer(1.0, 0.0)
MINUS = ds.Polarizer(0.0, 1.0)


def random_polarizer(rng):
    v = rng.normal(size=4)
    return ds.Polarizer(complex(v[0], v[1]), complex(v[2], v[3]))


def random_config(rng, n):
    return ds.PolarizerConfig(tuple(random_polarizer(rng) for _ in range(n)))


def orientation_distance(p, q):
    return abs(p.alpha * q.beta - q.alpha * p.beta)


def separated_config(rng, min_sep=1e-3):
    """Random 3-polarizer configuration with all pairwise separations above min_sep."""
    while True:
        cfg = random_config(rng, 3)
        seps = [orientation_distance(cfg[i], cfg[j])
                for i, j in ((0, 1), (0, 2), (1, 2))]
        if min(seps) > min_sep:
            return cfg


def oracle_forward(config):
    """Brute-force cascade: apply each detection, then project."""
    reg = ds.EmitterRegister.ground(len(config))
    for p in config:
        reg = ds.apply_detection(reg, p)
    return ds.project_symmetric(reg)


def enumerate_paths(config):
    """Final amplitudes by explicit sum over detector-to-emitter bijections.

    Returns {ket string: amplitude} over the fully de-excited kets; each
    bijection contributes the product of the polarizer components selected
    by the ket letters at the emitters it assigns.
    """
    n = len(config)
    result = {}
    for letters in itertools.product("+-", repeat=n):
        ket = "".join(letters)
        total = 0.0 + 0.0j
        for assignment in itertools.permutations(range(n)):
            prod = 1.0 + 0.0j
            for detector, emitter in enumerate(assignment):
                p = config[detector]
                prod *= p.alpha if ket[emitter] == "+" else p.beta
            total += prod
        result[ket] = total
    return result


# --- reference states built from explicit tensor products -----------------

def qubit_kron(single_qubit_vectors):
    """Tensor product, little-endian: qubit 0 is the least significant bit."""
    out = np.array([1.0 + 0.0j])
    for v in single_qubit_vectors:
        out = np.kron(np.asarray(v, dtype=complex), out)
    return out


def one_basis(phi):
    return np.array([1.0, np.exp(1j * phi)]) / np.sqrt(2.0)


def zero_basis(phi):
    return np.array([1.0, -np.exp(1j * phi)]) / np.sqrt(2.0)


def ghz_qubit(n, phi):
    plus = np.array([1.0, 0.0])
    minus = np.array([0.0, 1.0])
    return (qubit_kron([plus] * n)
            + np.exp(1j * phi) * qubit_kron([minus] * n)) / np.sqrt(2.0)


def s_qubit(n, phi):
    return qubit_kron([one_basis(phi)] * n)


def w_qubit(n, phi):
    acc = np.zeros(2 ** n, dtype=complex)
    for j in range(n):
        acc += qubit_kron([one_basis(phi) if q == j else zero_basis(phi)
                           for q in range(n)])
    return acc / np.sqrt(n)


def ket_string(index, n):
    """Spell a register index as a ket over ``e+-``, emitter 0 (the lowest digit) first."""
    return "".join("e+-"[index // 3 ** j % 3] for j in range(n))


def ket_amplitudes(register):
    """A register's amplitudes as ``{ket string: amplitude}`` over all ``3**n`` kets."""
    return {ket_string(i, register.n): amp for i, amp in enumerate(register.amps.tolist())}


def register_amps(n, terms):
    """The ``3**n`` register amplitudes of ``{ket string: amplitude}``, zero elsewhere."""
    return np.array([terms.get(ket_string(i, n), 0.0) for i in range(3 ** n)], dtype=complex)


def qubit_fidelity(a, b):
    return abs(np.vdot(a, b)) ** 2


# --- numpy references for the three-qubit measures -------------------------

SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]])
SPIN_FLIP = np.kron(SIGMA_Y, SIGMA_Y)


def _unit(psi):
    psi = np.asarray(psi, dtype=complex).reshape(-1)
    return psi / np.linalg.norm(psi)


def reduced_density(psi, keep):
    """Marginal density matrix of the kept qubits (little-endian order)."""
    tensor = _unit(psi).reshape(2, 2, 2, order="F")  # axes = qubits 0, 1, 2
    traced = [q for q in range(3) if q not in keep]
    mat = np.transpose(tensor, list(keep) + traced).reshape(2 ** len(keep), -1)
    return mat @ mat.conj().T


def tangle_oracle(psi):
    """``4 |Det|`` with Cayley's hyperdeterminant indexed on the numpy tensor."""
    a = _unit(psi).reshape(2, 2, 2, order="F")
    d1 = (a[0, 0, 0] ** 2 * a[1, 1, 1] ** 2
          + a[0, 0, 1] ** 2 * a[1, 1, 0] ** 2
          + a[0, 1, 0] ** 2 * a[1, 0, 1] ** 2
          + a[1, 0, 0] ** 2 * a[0, 1, 1] ** 2)
    d2 = (a[0, 0, 0] * a[1, 1, 1]
          * (a[0, 0, 1] * a[1, 1, 0] + a[0, 1, 0] * a[1, 0, 1]
             + a[1, 0, 0] * a[0, 1, 1])
          + a[0, 0, 1] * a[1, 1, 0] * a[0, 1, 0] * a[1, 0, 1]
          + a[0, 0, 1] * a[1, 1, 0] * a[1, 0, 0] * a[0, 1, 1]
          + a[0, 1, 0] * a[1, 0, 1] * a[1, 0, 0] * a[0, 1, 1])
    d3 = (a[0, 0, 0] * a[0, 1, 1] * a[1, 0, 1] * a[1, 1, 0]
          + a[1, 1, 1] * a[1, 0, 0] * a[0, 1, 0] * a[0, 0, 1])
    return float(min(4.0 * abs(d1 - 2.0 * d2 + 4.0 * d3), 1.0))


def entropy_oracle(psi, qubit):
    """Entropy (bits) from ``eigvalsh`` of the one-qubit marginal."""
    evals = np.linalg.eigvalsh(reduced_density(psi, (qubit,)))
    evals = evals[evals > 1e-15]
    return float(-(evals * np.log2(evals)).sum())


def concurrence_oracle(psi, pair):
    """Concurrence from one SVD of ``M^T (sy x sy) M`` for this pair alone."""
    i, j = pair
    rest = ({0, 1, 2} - {i, j}).pop()
    tensor = _unit(psi).reshape(2, 2, 2, order="F")
    mat = np.transpose(tensor, (i, j, rest)).reshape(4, 2)
    singulars = np.linalg.svd(mat.T @ SPIN_FLIP @ mat, compute_uv=False)
    return float(max(0.0, singulars[0] - singulars[1]))


# --- numpy references for the product polynomial and its roots --------------

def product_polynomial_oracle(config):
    """``prod_i (alpha_i + beta_i z)`` by the descending recurrence on numpy scalars."""
    n = len(config)
    q = np.zeros(n + 1, dtype=complex)
    q[0] = 1.0
    for degree, p in enumerate(config, start=1):
        for k in range(degree, 0, -1):
            q[k] = p.alpha * q[k] + p.beta * q[k - 1]
        q[0] *= p.alpha
    return q


def _two_sum(a, b):
    """``a + b`` as the unevaluated sum ``s + e``, exactly (Knuth)."""
    s = a + b
    v = s - a
    return s, (a - (s - v)) + (b - v)


def _split(a):
    """``a`` as ``hi + lo``, each with at most 26 significant bits (Dekker)."""
    c = 134217729.0 * a  # 2**27 + 1
    hi = c - (c - a)
    return hi, a - hi


def _two_product(a, b):
    """``a * b`` as ``p + e``, exactly, with no fused multiply-add (Dekker)."""
    p = a * b
    (ah, al), (bh, bl) = _split(a), _split(b)
    return p, ((ah * bh - p) + ah * bl + al * bh) + al * bl


def product_polynomial_double_double(config):
    """``prod_i (alpha_i + beta_i z)`` up to a power of two, rounded from double-double.

    The descending recurrence on arrays whose every number is an unevaluated
    sum ``hi + lo`` of two floats, about 106 bits, with the peak scaled into
    ``[1/2, 1)`` after each step: neither its rounding nor underflow comes
    near the closed form's own at any size.
    """
    n = len(config)
    # q[part, c, k]: the high (part 0) and low (part 1) float of the real
    # (c = 0) and imaginary (c = 1) part of q_k
    q = np.zeros((2, 2, n + 1))
    q[0, 0, 0] = 1.0
    for degree, p in enumerate(config, start=1):
        x = q[:, :, :degree + 1]
        shifted = np.zeros_like(x)  # q_{k-1}
        shifted[:, :, 1:] = x[:, :, :-1]
        # alpha q_k + beta q_{k-1}, each w y as w.real y + w.imag (i y)
        terms = []
        for y, w in ((x, p.alpha), (shifted, p.beta)):
            for part, c in ((y, w.real), (np.stack([-y[:, 1], y[:, 0]], axis=1), w.imag)):
                high, low = _two_product(part[0], c)
                terms.append((high, low + part[1] * c))
        high, low = terms[0]
        for th, tl in terms[1:]:
            high, e = _two_sum(high, th)
            low = low + e + tl
        high, low = _two_sum(high, low)
        shift = -np.frexp(np.abs(high).max())[1]
        q[0, :, :degree + 1] = np.ldexp(high, shift)
        q[1, :, :degree + 1] = np.ldexp(low, shift)
    return (q[0, 0] + q[1, 0]) + 1j * (q[0, 1] + q[1, 1])


def roots_oracle(coeffs):
    """Roots of ``sum_k coeffs[k] z**k`` by ``np.roots``."""
    return np.roots(coeffs[::-1])


def synthesis_polynomial_reference(target):
    """The root-finding polynomial of ``target`` by whole-array steps.

    The degree is the last index whose ``np.abs`` is above ``DEGREE_TOL``
    (``nonzero``), and the coefficients are the ``sqrt(C(n, k))`` ratios,
    signed by a slice, times the target's.
    """
    d = target.coeffs
    k_max = int(np.nonzero(np.abs(d) > ds.DEGREE_TOL)[0][-1])
    roots = _sqrt_binomials(target.n)[:k_max + 1]
    ratios = roots / roots[k_max]
    ratios[1 - k_max % 2::2] *= -1.0
    return ratios * d[:k_max + 1]


def unit_vector_reference(v):
    """``v`` scaled by the power of two of its peak, then times ``1 / np.linalg.norm``."""
    w = v * 2.0 ** -max(frexp(float(np.abs(v).max()))[1], -1022)
    return w * (1.0 / np.linalg.norm(w))


# --- dense reference for the window Monte Carlo ----------------------------

def dense_sample_output(config, geometry, normals, deviates):
    """One window sample's cascade output on the full ``3**n`` register, qubit order.

    ``normals`` holds the sample's ``2n`` unit transverse displacements (n
    along each transverse axis), ``deviates`` its ``n`` window deviates in
    ``[-1, 1)``, one per detector.  Every detection is applied by the dense
    kernel behind ``apply_detection``.
    """
    from dickesim.core import _detection_kernel

    n = len(config)
    t1, t2 = geometry.transverse_basis
    sigma = geometry.transverse_sigma
    positions = (geometry.emitter_positions
                 + np.outer(normals[:n] * sigma, t1) + np.outer(normals[n:] * sigma, t2))
    amps = ds.EmitterRegister.ground(n).amps
    for i, polarizer in enumerate(config):
        delta = deviates[i] * geometry.window_halfangle
        v = geometry.detector_directions[i]
        c, s = np.cos(delta), np.sin(delta)
        nhat = np.array([c * v[0] - s * v[1], s * v[0] + c * v[1], v[2]])
        phases = np.exp(1j * (2.0 * np.pi / geometry.wavelength) * (positions @ nhat))
        amps = _detection_kernel(amps, n, polarizer.alpha * phases,
                                 polarizer.beta * phases)
    # no emitter in e; flattened in ascending register order, which is the qubit order
    return amps.reshape((3,) * n)[(slice(1, None),) * n].reshape(-1)


def dense_estimate_fidelity(config, geometry, target=None, samples=1000, seed=0):
    """Window Monte Carlo on the full ``3**n`` register, one sample at a time.

    Same two random streams as ``estimate_fidelity``, read one sample at a
    time: from the first, n + n transverse normals per sample; from the
    second, one uniform deviate per detector.  Each sample is
    :func:`dense_sample_output`.
    """
    config = ds.PolarizerConfig(tuple(config))
    n = len(config)
    if target is None:
        target = ds.dicke_coefficients(config)
    target_qubit = target.to_qubit_amplitudes()
    normal_rng, window_rng = map(np.random.default_rng,
                                 np.random.SeedSequence(seed).spawn(2))
    fidelities = []
    excluded = 0
    for _ in range(samples):
        psi = dense_sample_output(config, geometry, normal_rng.normal(0.0, 1.0, size=2 * n),
                                  window_rng.uniform(-1.0, 1.0, size=n))
        nrm = np.linalg.norm(psi)
        if nrm < 1e-12:
            excluded += 1
            continue
        overlap = np.vdot(target_qubit, psi) / nrm
        fidelities.append(abs(overlap) ** 2)
    if not fidelities:
        raise ds.ZeroStateError("every sample was annihilated")
    values = np.array(fidelities)
    stderr = float(values.std(ddof=1) / np.sqrt(len(values))) if len(values) > 1 else 0.0
    return ds.FidelityEstimate(float(values.mean()), stderr, len(values), excluded)


def permanent(a):
    """Permanent of the square matrix ``a``, of size 1 to 10, by Glynn's formula.

    ``perm(a) = 2**(1 - n) sum_d (prod_k d_k) prod_j (sum_i d_i a[i, j])``
    over the ``2**(n - 1)`` sign vectors ``d`` with ``d_0 = +1`` (Glynn, Eur.
    J. Combin. 31 (2010) 1887), against the ``n!`` terms of the definition.
    """
    a = np.asarray(a)
    n = len(a)
    assert a.shape == (n, n) and 1 <= n <= 10
    signs = np.array([(1,) + d for d in itertools.product((1, -1), repeat=n - 1)])
    return (signs.prod(axis=1) * (signs @ a).prod(axis=1)).sum() / 2 ** (n - 1)


def quadrature_fidelity(config, geometry, q, chunk=4096):
    """Window integral of ``config`` on ``geometry`` by a tensor Gauss rule, ``q`` nodes per axis.

    The ``2n`` transverse normals get probabilists' Gauss-Hermite nodes
    (``hermegauss``, weights over ``sqrt(2 pi)``) and the ``n`` window
    deviates Gauss-Legendre nodes (``leggauss``, weights over 2), so the
    ``q**(3n)`` grid points with their product weights integrate against the
    sampling densities of ``estimate_fidelity``.  The points go ``chunk`` at a
    time through the library's ``_chunk_terms``, with the components and the
    bra of ``dicke_coefficients(config)`` that ``_config_arrays`` builds, so
    only the grid, its weights and the sums are this function's own.  Returns
    the mean per-sample fidelity and the heralded ratio
    ``E|<t|psi>|^2 / E||psi||^2``.
    """
    from numpy.polynomial.hermite_e import hermegauss
    from numpy.polynomial.legendre import leggauss

    from dickesim.window import _chunk_terms, _config_arrays

    n = len(config)
    hermite, legendre = hermegauss(q), leggauss(q)
    nodes = [hermite[0]] * (2 * n) + [legendre[0]] * n
    weights = [hermite[1] / np.sqrt(2.0 * np.pi)] * (2 * n) + [legendre[1] / 2.0] * n
    components, bra, _ = _config_arrays(config)
    fidelity = overlap = norm = 0.0
    size = q ** (3 * n)
    for start in range(0, size, chunk):
        # digit k of a flat grid index picks the node of axis k
        index = np.arange(start, min(start + chunk, size))
        digits = index[:, None] // q ** np.arange(3 * n) % q
        points = np.column_stack([x[d] for x, d in zip(nodes, digits.T)])
        weight = np.prod([w[d] for w, d in zip(weights, digits.T)], axis=0)
        overlaps, norms = _chunk_terms(components, bra, geometry, points[:, :2 * n],
                                       points[:, 2 * n:])
        assert len(norms) == len(weight), "a grid point was annihilated"
        fidelity += weight @ (overlaps / norms)
        overlap += weight @ overlaps
        norm += weight @ norms
    return float(fidelity), float(overlap / norm)


# --- SLOCC maps ---------------------------------------------------------------

def slocc_config(config, a):
    """Every polarizer ``(alpha, beta)`` mapped to ``a @ (alpha, beta)``."""
    return ds.PolarizerConfig(tuple(ds.Polarizer(*(a @ [p.alpha, p.beta])) for p in config))


def slocc_qubit(psi, a):
    """``a`` applied to every qubit of the ``2**n`` amplitudes ``psi``."""
    n = int(np.log2(len(psi)))
    tensor = np.asarray(psi, dtype=complex).reshape((2,) * n)
    for axis in range(n):
        tensor = np.moveaxis(np.tensordot(a, tensor, axes=([1], [axis])), 0, axis)
    return tensor.reshape(-1)


def slocc_state(state, a):
    """The symmetric state ``a^{(x)n} |state>``, renormalized."""
    psi = slocc_qubit(state.to_qubit_amplitudes(), a)
    n = state.n
    # a symmetric state puts d_k / sqrt(C(n, k)) on each index with k bits set
    raw = [psi[(1 << k) - 1] * np.sqrt(float(comb(n, k))) for k in range(n + 1)]
    return ds.SymmetricState.from_raw(n, raw)


# --- string-slicing reference for the pyramid -------------------------------

def reference_pyramid(config):
    """Pyramid levels as ``{ket: amplitude}`` dicts, expanded ket by ket.

    Each level applies polarizer m to every ket of the previous level by
    slicing ``+`` and ``-`` into each ``e`` position; exactly-zero sums are
    dropped.
    """
    n = len(config)
    levels = [{"e" * n: 1.0 + 0.0j}]
    for p in config:
        terms = {}
        for ket, amp in levels[-1].items():
            for j, ch in enumerate(ket):
                if ch != "e":
                    continue
                plus = ket[:j] + "+" + ket[j + 1:]
                minus = ket[:j] + "-" + ket[j + 1:]
                terms[plus] = terms.get(plus, 0.0) + p.alpha * amp
                terms[minus] = terms.get(minus, 0.0) + p.beta * amp
        levels.append({k: v for k, v in terms.items() if v != 0.0})
    return levels


def reference_pyramid_edges(config, level_terms):
    """Edge list ``(step, parent, child, weight)`` over the sorted parents of each level."""
    edges = []
    for m, p in enumerate(config, start=1):
        for ket in sorted(level_terms[m - 1]):
            for j, ch in enumerate(ket):
                if ch != "e":
                    continue
                edges.append((m, ket, ket[:j] + "+" + ket[j + 1:], p.alpha))
                edges.append((m, ket, ket[:j] + "-" + ket[j + 1:], p.beta))
    return edges


def reference_ket_table(n):
    """``cascade._ket_table(n)`` built by string slicing, ket by ket."""
    levels = [[] for _ in range(n + 1)]
    for letters in itertools.product("+-e", repeat=n):  # sorted, as "+" < "-" < "e"
        ket = "".join(letters)
        levels[n - ket.count("e")].append(ket)
    canonical = {ket: ket for kets in levels for ket in kets}
    table = []
    for m, kets in enumerate(levels):
        parents, children = [], []
        for ket in kets:
            for j, ch in enumerate(ket):
                if ch == "e":
                    children.append(canonical[ket[:j] + "+" + ket[j + 1:]])
                    children.append(canonical[ket[:j] + "-" + ket[j + 1:]])
            parents.extend([ket] * (2 * (n - m)))
        table.append((tuple(kets), itemgetter(*[ket.count("-") for ket in kets]),
                      frozenset(kets), parents, children))
    return tuple(table)
