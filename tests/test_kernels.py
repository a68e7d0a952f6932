import numpy as np
import pytest

from diracmr import verify
from diracmr.algebra import GAMMA, GAMMA5, Momentum, dagger, theta_tensor
from diracmr.associated import KERNEL_CATALOG, KernelTable, matrix_elements_offdiag
from diracmr.operators import OPERATOR_CATALOG, decompose_diag_osc, projectors
from diracmr.polarization import CommonBasis, HelicityBasis, PoleError
from diracmr.sampling import sample_momenta

BASES = (CommonBasis(), HelicityBasis())


def mx(a):
    return float(np.max(np.abs(a)))


def test_kernels_match_offdiag_machinery():
    t = 0.42
    for basis in BASES:
        for q in sample_momenta(25, 1.0, seed=95, avoid_poles=True):
            for name, ker in KERNEL_CATALOG.items():
                kv = ker(q, t, basis)
                assert mx(kv - KernelTable((ker,), q, basis).from_offdiag(t)) < 1e-10, name


def test_phase_law_and_modulus():
    # K(t) against the parent evolved in the Heisenberg picture, U^+ A U with
    # U = exp(-i H_D t), read at t = 0: only the evolution carries the 2E phase
    basis = CommonBasis()
    q = Momentum((0.5, -0.3, 0.4), 1.2)
    e = q.energy
    plus, minus = projectors(q)
    for name, ker in KERNEL_CATALOG.items():
        parent = OPERATOR_CATALOG[ker.parent]
        scale = ker.parent_scale(q)
        still, _ = matrix_elements_offdiag(parent, q, 0.0, basis)
        for t in (0.3, 1.1, 4.0):
            u = np.exp(-1j * e * t) * plus + np.exp(1j * e * t) * minus
            evolved, _ = matrix_elements_offdiag(lambda k: dagger(u) @ parent(k) @ u, q, 0.0, basis)
            kt = ker(q, t, basis)
            assert mx(kt - scale * evolved) < 1e-12, name
            assert mx(np.abs(kt) - np.abs(scale * still)) < 1e-12, name
        # half-period in the 2E phase negates the kernel
        half = np.pi / (2.0 * e)
        assert mx(ker(q, half, basis) + ker(q, 0.0, basis)) < 1e-12


def test_time_derivative_fd_oracle():
    basis = HelicityBasis()
    for q in sample_momenta(10, 1.0, seed=97, avoid_poles=True):
        e = q.energy
        t = 0.2
        h = 1e-6 / e
        for name, ker in KERNEL_CATALOG.items():
            kv = ker(q, t, basis)
            dk = (
                -ker(q, t + 2 * h, basis)
                + 8 * ker(q, t + h, basis)
                - 8 * ker(q, t - h, basis)
                + ker(q, t - 2 * h, basis)
            ) / (12 * h)
            scale = max(mx(2j * e * kv), 1e-30)
            assert mx(dk - 2j * e * kv) / scale < 1e-6, name


def test_delta_x_kernel_closed_form():
    basis = CommonBasis()
    q = Momentum((0.3, 0.7, -0.2), 0.9)
    t = 0.15
    _, theta_inv = theta_tensor(q)
    xi = basis.xi(q)
    eta_m = basis.eta(q.flipped())
    bil = np.stack([xi.conj().T @ p @ eta_m for p in __import__("diracmr").algebra.PAULI])
    expect = (-0.5j * np.exp(2j * q.energy * t) / q.energy) * np.einsum(
        "ij,jab->iab", theta_inv, bil
    )
    assert mx(KERNEL_CATALOG["delta_x_osc"](q, t, basis) - expect) < 1e-13


def test_pseudoscalar_parent_has_no_diagonal_part():
    for q in sample_momenta(25, 1.0, seed=99):
        parts = decompose_diag_osc(GAMMA[0] @ GAMMA5, q)
        assert mx(parts[0]) < 1e-12
        assert mx(parts[1]) < 1e-12
    # and the kernel is the pair contraction without spin structure
    basis = CommonBasis()
    q = Momentum((0.2, 0.1, 0.4))
    k = KERNEL_CATALOG["pseudoscalar_osc"](q, 0.0, basis)[0]
    xi = basis.xi(q)
    eta_m = basis.eta(q.flipped())
    assert mx(k + xi.conj().T @ eta_m) < 1e-13


def test_hermitian_pairing_of_offdiag_parts():
    # adjoint pairing holds for Hermitian parents; the Chakrabarti matrices
    # are not Hermitian (s(p)^+ = s(-p)) and are excluded
    t = 0.7
    for basis in BASES:
        for q in sample_momenta(10, 1.0, seed=101, avoid_poles=True):
            for name in ("delta_x", "gamma0", "pauli_dirac_spin", "h_dirac"):
                pm, mp = matrix_elements_offdiag(OPERATOR_CATALOG[name], q, t, basis)
                assert mx(np.transpose(pm.conj(), (0, 2, 1)) - mp) < 1e-12


def test_kernel_pole_and_name_errors():
    hel = HelicityBasis()
    q = Momentum((0.0, 0.0, 1.0))  # -p sits on the helicity pole ray
    with pytest.raises(PoleError):
        KERNEL_CATALOG["delta_x_osc"](q, 0.0, hel)
    with pytest.raises(KeyError):
        KERNEL_CATALOG["not_a_kernel"](q, 0.0, CommonBasis())


@pytest.mark.parametrize("basis", BASES, ids=lambda b: b.kind)
def test_kernel_table_slices_are_the_single_kernel_api(basis):
    # the four vector kernels' slices bit for bit; the two scalar kernels' lone (n, 1, .)
    # rows take another matmul kernel than the stacked rows, so they may differ at
    # rounding, within a bound fixed before measuring: 1e-14 of the kernel's largest entry
    t, kernels = 0.42, tuple(KERNEL_CATALOG.values())
    batch = np.array([q.p for q in sample_momenta(20, 1.3, seed=95, avoid_poles=True)])
    for q in (Momentum(batch, 1.3), Momentum((0.3, -0.4, 0.5), 1.3)):
        table = KernelTable(kernels, q, basis)
        got = (table(t), table.from_offdiag(t), table.phase_reference(t))
        for (name, ker), rows in zip(KERNEL_CATALOG.items(), table.slices):
            single = KernelTable((ker,), q, basis)
            want = (ker(q, t, basis), single.from_offdiag(t), single.phase_reference(t))
            for g, w in zip(got, want):
                g = g[..., rows, :, :]
                assert g.shape == w.shape, name
                if name in ("scalar_charge_osc", "pseudoscalar_osc"):
                    assert mx(g - w) <= 1e-14 * mx(w), name
                else:
                    assert np.array_equal(g, w), name
            # and the table's kernel is its parent image, so a coefficient that
            # drifts from its parent fails here even where both APIs share it
            assert mx(got[0][..., rows, :, :] - got[1][..., rows, :, :]) < 1e-10, name


def test_row_maxima_are_the_per_slice_maxima():
    # uneven row slices, one of them a single row, over stacks of several shapes
    rng = np.random.default_rng(43)
    slices = (slice(0, 3), slice(3, 4), slice(4, 9), slice(9, 11))
    for shape in ((5, 11, 2, 2), (1, 11), (3, 11, 4)):
        a = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        assert verify._row_maxima(a, slices).tolist() == [verify._mx(a[:, r]) for r in slices]
        # a NaN reads NaN on its own slice, and on no neighbour
        for row in (0, 3, 8, 10):
            b = a.copy()
            b[-1, row] = np.nan
            got = verify._row_maxima(b, slices)
            hit = [r.start <= row < r.stop for r in slices]
            assert np.isnan(got[hit]).all() and not np.isnan(got[np.logical_not(hit)]).any()


def test_a_nan_kernel_row_fails_its_own_lines(monkeypatch):
    # a NaN planted in the scalar kernel's one row in the helicity basis (the second
    # basis the suite reads) makes that kernel's four lines read NaN and fail; the
    # neighbouring kernels' lines and every other line still pass
    products = KernelTable.products.func

    def planted(self):
        k = products(self)
        if self.basis.kind == "helicity":
            k = k.copy()
            k[3, self.slices[4]] = np.nan
        return k

    monkeypatch.setattr(KernelTable, "products", property(planted))
    assert list(KERNEL_CATALOG)[4] == "scalar_charge_osc"
    results = verify.run_suite("kernels", 20, 7)
    failed = {r.name for r in results if not r.passed}
    assert failed == {
        f"scalar_charge_osc_{check}"
        for check in ("matches_machinery", "phase_law", "modulus_static", "time_derivative")
    }
    assert all(np.isnan(r.residual) for r in results if r.name in failed)
