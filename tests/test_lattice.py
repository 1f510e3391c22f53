import ast
import io
from pathlib import Path

import numpy as np
import pytest
import scipy.fft
from hypothesis import given, settings
from hypothesis import strategies as st

from stochwave.lattice import (
    Grid,
    LatticeField,
    circular_convolve,
    h_neg_k_norm,
    l2_norm,
    norm_sq,
    read_field,
    write_field,
)


@pytest.fixture
def grid1d():
    return Grid(1, 512, 40)


def test_grid_validation():
    with pytest.raises(ValueError):
        Grid(4, 64, 10.0)
    with pytest.raises(ValueError):
        Grid(1, 48, 10.0)  # not a power of two
    with pytest.raises(ValueError):
        Grid(1, 4, 10.0)  # too small
    with pytest.raises(ValueError):
        Grid(1, 64, -1.0)


def test_forward_transform_zero(grid1d):
    f = LatticeField(grid1d, np.zeros(grid1d.shape))
    assert np.all(f.spectrum == 0)


def test_forward_transform_gaussian_matches_continuum(grid1d):
    # run the continuum transform of exp(-x^2/2) as the oracle
    x = grid1d.axis_coords
    f = LatticeField(grid1d, np.exp(-(x**2) / 2))
    eta = grid1d.axis_freqs[: grid1d.half_shape[-1]]
    oracle = np.sqrt(2 * np.pi) * np.exp(-(eta**2) / 2)
    assert f.spectrum.shape == grid1d.half_shape
    assert np.max(np.abs(f.spectrum - oracle)) < 1e-8


def test_real_field_spectrum_hermitian(grid1d):
    rng = np.random.default_rng(1)
    spec = grid1d.full_forward(rng.standard_normal(grid1d.shape))
    mirrored = np.roll(np.flip(spec), 1)  # at -eta: index j -> -j mod N
    assert np.allclose(spec, np.conj(mirrored), atol=1e-9)


def test_round_trip():
    rng = np.random.default_rng(2)
    for d, n in ((1, 64), (2, 16), (3, 8)):
        g = Grid(d, max(n, 8), 7.5)
        vals = rng.standard_normal(g.shape)
        back = g.inverse(g.forward(vals))
        assert np.max(np.abs(back - vals)) < 1e-12 * max(1.0, np.max(np.abs(vals)))


def _shifted_forward(grid, arr):
    # the transform pair as first written: roll x_0 = -L/2 to index 0
    axes = tuple(range(arr.ndim - grid.dimension, arr.ndim))
    return grid.cell_volume * np.fft.fftn(np.fft.ifftshift(arr, axes=axes), axes=axes)


def _shifted_inverse(grid, spec):
    axes = tuple(range(spec.ndim - grid.dimension, spec.ndim))
    return np.fft.fftshift(np.fft.ifftn(spec, axes=axes), axes=axes) / grid.cell_volume


_TRANSFORM_GRIDS = [(1, 64, 7.5), (2, 16, 3.0), (3, 8, 12.0)]


@pytest.mark.parametrize("d, n, length", _TRANSFORM_GRIDS)
@pytest.mark.parametrize("batch", [(), (5,)])
def test_checkerboard_pair_matches_shifted_definitions(d, n, length, batch):
    g = Grid(d, n, length)
    rng = np.random.default_rng(10 + d)
    vals = rng.standard_normal(batch + g.shape)
    spec = _shifted_forward(g, vals)
    assert np.max(np.abs(g.full_forward(vals) - spec)) <= 1e-13 * np.max(np.abs(spec))
    # the half spectrum is the full one restricted to the first N/2 + 1 columns
    half = spec[..., : n // 2 + 1]
    fwd = g.forward(vals)
    assert fwd.shape == batch + g.half_shape
    assert np.max(np.abs(fwd - half)) <= 1e-13 * np.max(np.abs(spec))
    back = g.inverse(half)
    assert np.max(np.abs(back - vals)) <= 1e-13 * np.max(np.abs(vals))
    old = _shifted_inverse(g, spec).real
    assert np.max(np.abs(back - old)) <= 1e-13 * np.max(np.abs(old))
    # complex data: a modulated integrand
    zvals = vals + 1j * rng.standard_normal(vals.shape)
    zspec = _shifted_forward(g, zvals)
    assert np.max(np.abs(g.full_forward(zvals) - zspec)) <= 1e-13 * np.max(np.abs(zspec))


def _partitions(items):
    # every set partition of a tuple, as a list of blocks
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in _partitions(rest):
        yield [(first,)] + part
        for i, block in enumerate(part):
            yield part[:i] + [tuple(sorted((first,) + block))] + part[i + 1:]


@pytest.mark.parametrize("d, n, length", _TRANSFORM_GRIDS)
@pytest.mark.parametrize("batch", [(), (5,), (2, 3)])
def test_partial_transforms_compose_to_the_full_one(d, n, length, batch):
    g = Grid(d, n, length)
    rng = np.random.default_rng(30 + d)
    vals = rng.standard_normal(batch + g.shape)
    zvals = vals + 1j * rng.standard_normal(vals.shape)
    parts = list(_partitions(tuple(range(d))))
    assert len(parts) == {1: 1, 2: 2, 3: 5}[d]
    for data in (vals, zvals):
        full = g.full_forward(data)
        for part in parts:
            for order in (part, part[::-1]):
                out = data
                for axes in order:
                    out = g.full_forward(out, axes=axes)
                assert out.shape == full.shape
                assert np.max(np.abs(out - full)) <= 1e-13 * np.max(np.abs(full))


def test_partial_transform_refuses_bad_axes():
    g = Grid(2, 16, 3.0)
    vals = np.ones(g.shape)
    for axes in ((), (0, 0), (2,), (-1,)):
        with pytest.raises(ValueError, match="spatial axes"):
            g.full_forward(vals, axes=axes)


@pytest.mark.parametrize("d, n, length", _TRANSFORM_GRIDS)
def test_batched_transforms_equal_row_by_row(d, n, length):
    # replica-batch independence rests on this being exact, not close
    g = Grid(d, n, length)
    rng = np.random.default_rng(20 + d)
    vals = rng.standard_normal((7,) + g.shape)
    zvals = vals + 1j * rng.standard_normal(vals.shape)
    for transform, data in ((g.forward, vals), (g.full_forward, vals), (g.full_forward, zvals)):
        whole = transform(data)
        sub = transform(data[2:5])
        for r in range(len(data)):
            assert np.array_equal(whole[r], transform(data[r]))
        assert np.array_equal(sub, whole[2:5])
    spec = g.forward(vals)
    back = g.inverse(spec)
    for r in range(len(vals)):
        assert np.array_equal(back[r], g.inverse(spec[r]))
    # an empty batch passes through both directions
    empty = np.zeros((0,) + g.shape)
    assert g.forward(empty).shape == (0,) + g.half_shape
    assert g.inverse(g.forward(empty)).shape == empty.shape


# the transform pair as it ran on scipy.fft (multi-axis pocketfft calls),
# kept as the reference; the package itself transforms with numpy.fft


def _signs(g):
    parity = np.indices(g.shape).sum(axis=0)
    return 1.0 - 2.0 * (parity % 2)


def _scipy_forward(g, vals):
    scale = (g.cell_volume * _signs(g))[..., : g.half_shape[-1]]
    return scale * scipy.fft.rfftn(vals, axes=g._axes(vals))


def _scipy_inverse(g, spec):
    scale = (_signs(g) / g.cell_volume)[..., : g.half_shape[-1]]
    return scipy.fft.irfftn(scale * spec, s=g.shape, axes=g._axes(spec))


def _scipy_full_forward(g, vals, axes=None):
    if axes is None:
        return scipy.fft.fftn(vals, axes=g._axes(vals)) * (g.cell_volume * _signs(g))
    lead = vals.ndim - g.dimension
    signed = g.spacing * (1.0 - 2.0 * (np.arange(g.points_per_axis) % 2))
    scale = 1.0
    for ax in axes:
        scale = scale * g._axis_array(signed, ax)
    return scipy.fft.fftn(vals, axes=[lead + ax for ax in axes]) * scale


@pytest.mark.parametrize("d, n, length", _TRANSFORM_GRIDS)
@pytest.mark.parametrize("batch", [(), (5,), (2, 3)])
def test_transform_pair_equals_the_scipy_reference_bit_for_bit(d, n, length, batch):
    # the one-axis passes run in the order the multi-axis transforms use,
    # which is what makes the results equal, not merely close
    g = Grid(d, n, length)
    rng = np.random.default_rng(40 + d)
    vals = rng.standard_normal(batch + g.shape)
    spec = g.forward(vals)
    assert np.array_equal(spec, _scipy_forward(g, vals))
    assert np.array_equal(g.inverse(spec), _scipy_inverse(g, spec))
    zvals = vals + 1j * rng.standard_normal(vals.shape)
    assert np.array_equal(g.full_forward(zvals), _scipy_full_forward(g, zvals))
    for part in _partitions(tuple(range(d))):
        for block in part:
            for axes in (block, block[::-1]):
                assert np.array_equal(g.full_forward(zvals, axes=axes),
                                      _scipy_full_forward(g, zvals, axes))
    # real input: scipy fills the mirrored half of a real field's spectrum
    # by conjugation, numpy transforms the field as a complex one, so the
    # two agree only to rounding
    ref = _scipy_full_forward(g, vals)
    assert np.max(np.abs(g.full_forward(vals) - ref)) <= 1e-15 * np.max(np.abs(ref))


@pytest.mark.parametrize("d, n, length", _TRANSFORM_GRIDS)
def test_batched_circular_convolve_equals_the_scipy_reference_bit_for_bit(d, n, length):
    g = Grid(d, n, length)
    rng = np.random.default_rng(50 + d)
    a = rng.standard_normal(g.shape)
    b = rng.standard_normal((2, 3) + g.shape)
    axes = g._axes(b)
    ref = scipy.fft.irfftn(scipy.fft.rfftn(a) * scipy.fft.rfftn(b, axes=axes), s=a.shape, axes=axes)
    assert np.array_equal(circular_convolve(a, b), ref)
    assert np.array_equal(circular_convolve(a, b[1, 2]), ref[1, 2])


@pytest.mark.parametrize("d, n, length", _TRANSFORM_GRIDS)
def test_transforms_leave_their_input_unchanged(d, n, length):
    # the passes after the first run in place, on buffers the call owns
    g = Grid(d, n, length)
    rng = np.random.default_rng(60 + d)
    vals = rng.standard_normal((3,) + g.shape)
    zvals = vals + 1j * rng.standard_normal(vals.shape)
    spec = g.forward(vals)
    calls = [(g.forward, vals), (g.inverse, spec), (g.full_forward, vals), (g.full_forward, zvals)]
    calls += [(lambda z, axes=axes: g.full_forward(z, axes=axes), zvals)
              for axes in ((0,), tuple(range(d))[::-1])]
    for transform, data in calls:
        before = data.copy()
        transform(data)
        assert np.array_equal(data, before)


def _leading_view(arr, rows=3):
    # rows leading rows of a larger buffer filled with junk, as a caller's reused buffer
    buf = np.full((arr.shape[0] + rows,) + arr.shape[1:], np.nan, dtype=arr.dtype)
    return buf[:arr.shape[0]]


@pytest.mark.parametrize("d, n, length", _TRANSFORM_GRIDS)
@pytest.mark.parametrize("batch", [(), (5,)])
def test_out_forms_equal_the_allocating_calls(d, n, length, batch):
    g = Grid(d, n, length)
    rng = np.random.default_rng(80 + d)
    vals = rng.standard_normal(batch + g.shape)
    zvals = vals + 1j * rng.standard_normal(vals.shape)
    spec = g.forward(vals)
    full_shape, half_shape = batch + g.shape, batch + g.half_shape
    outs = [np.empty(half_shape, dtype=complex)]
    if batch:
        outs.append(_leading_view(np.empty(half_shape, dtype=complex)))
    for out in outs:
        assert g.forward(vals, out=out) is out
        assert np.array_equal(out, spec)
    axes_choices = [None] + [(ax,) for ax in range(d)] + [tuple(range(d))[::-1]]
    for data in (vals, zvals):
        for axes in axes_choices:
            ref = g.full_forward(data, axes=axes)
            outs = [np.empty(full_shape, dtype=complex)]
            if batch:
                outs.append(_leading_view(ref))
            for out in outs:
                assert g.full_forward(data, axes=axes, out=out) is out
                assert np.array_equal(out, ref)
            if data is zvals:
                # in place: the output is the input
                inplace = _leading_view(data) if batch else np.empty_like(data)
                inplace[...] = data
                assert g.full_forward(inplace, axes=axes, out=inplace) is inplace
                assert np.array_equal(inplace, ref)


def test_out_of_the_wrong_shape_or_dtype_raises():
    g = Grid(2, 16, 3.0)
    vals = np.ones((3,) + g.shape)
    bad_forward = [np.empty((3,) + g.shape, dtype=complex), np.empty((2,) + g.half_shape, dtype=complex),
                   np.empty((3,) + g.half_shape), np.empty((3,) + g.half_shape, dtype=np.complex64),
                   [[0j]]]
    bad_full = [np.empty((3,) + g.half_shape, dtype=complex), np.empty((3,) + g.shape),
                np.empty(g.shape, dtype=complex)]
    for out in bad_forward:
        with pytest.raises(ValueError, match="out must be"):
            g.forward(vals, out=out)
    for out in bad_full:
        for axes in (None, (1,)):
            with pytest.raises(ValueError, match="out must be"):
                g.full_forward(vals, axes=axes, out=out)
    # the folded entry points check their buffers as forward does, and filter
    # refuses fields it cannot overwrite and leaves them as they were
    mult = np.ones(g.half_shape)
    for out in bad_forward:
        with pytest.raises(ValueError, match="out must be"):
            g.forward(vals, out=out, multiplier=mult)
        with pytest.raises(ValueError, match="work, the forward transform's out must be"):
            g.filter(vals, mult, out)
    frozen = vals.copy()
    frozen.flags.writeable = False
    for bad in (vals.astype(np.float32), vals.astype(complex), vals.tolist()):
        with pytest.raises(ValueError, match="^values must be a float64 array"):
            g.filter(bad, mult)
    with pytest.raises(ValueError, match="read-only"):
        g.filter(frozen, mult)
    assert np.array_equal(vals, np.ones((3,) + g.shape)) and np.array_equal(frozen, vals)
    for bad in (np.ones(g.shape), np.ones(g.half_shape[::-1])):
        with pytest.raises(ValueError, match="half-grid multiplier shape"):
            g.forward(vals, multiplier=bad)
        with pytest.raises(ValueError, match="half-grid multiplier shape"):
            g.filter(vals, bad)


@pytest.mark.parametrize("d, n, length", _TRANSFORM_GRIDS + [(1, 64, 16.0), (2, 16, 16.0), (3, 8, 16.0)])
def test_folded_transforms_follow_the_scale_rule(d, n, length):
    # filter is the round trip without its two scales, forward with a
    # multiplier the product in one pass, and an unscaled full_forward
    # differs in modulus by h per axis: bit for bit where h is a power of
    # two, to 1e-14 relative elsewhere
    g = Grid(d, n, length)
    exact = g.spacing == 2.0 ** np.round(np.log2(g.spacing))
    assert exact == (length == 16.0)

    def agree(a, b):
        if exact:
            assert np.array_equal(a, b)
        else:
            assert np.max(np.abs(a - b)) <= 1e-14 * np.max(np.abs(b))

    rng = np.random.default_rng(95)
    vals = rng.standard_normal((3,) + g.shape)
    mult = g.half(np.exp(-0.1 * g.freq_norm_sq) + 0.5)
    spec = g.forward(vals)
    filtered = g.filter(vals.copy(), mult)
    agree(filtered, g.inverse(mult * spec))
    agree(g.forward(vals, multiplier=mult), mult * spec)
    for axes in [None] + [(ax,) for ax in range(d)]:
        count = d if axes is None else 1
        raw = np.abs(g.full_forward(vals, axes=axes, scaled=False)) ** 2
        agree(raw * g.spacing ** (2 * count), np.abs(g.full_forward(vals, axes=axes)) ** 2)
    # the buffer forms, on junk-filled leading views, equal the allocating calls
    inplace, work = _leading_view(np.empty_like(vals)), _leading_view(np.empty_like(spec))
    inplace[...] = vals
    assert g.filter(inplace, mult, work) is inplace
    assert np.array_equal(inplace, filtered)
    assert np.array_equal(g.forward(vals, out=work, multiplier=mult),
                          g.forward(vals, multiplier=mult))


def test_transform_scales_are_built_once_per_grid_and_read_only():
    g = Grid(2, 16, 3.0)
    vals = np.random.default_rng(96).standard_normal(g.shape)
    first = g.full_forward(vals)
    signed = g._signed_spacing
    # |eta|**2 and |x|**2 are shared by every multiplier, weight table and initial field
    freq, coord = g.freq_norm_sq, g.coord_norm_sq
    for arr in (signed, *g._signed_scales, freq, coord):
        assert not arr.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            arr *= 2.0
    assert np.array_equal(g.full_forward(vals), first)
    assert g._signed_spacing is signed
    assert g.freq_norm_sq is freq and g.coord_norm_sq is coord
    assert np.array_equal(signed, g.spacing * (-1.0) ** np.arange(16))


def test_inverse_of_real_and_zero_stride_spectra_equals_the_complex_copy():
    g = Grid(2, 16, 3.0)
    rng = np.random.default_rng(70)
    spec = g.forward(rng.standard_normal((4,) + g.shape))
    kept = spec.copy()
    g.inverse(spec)
    assert np.array_equal(spec, kept)  # the inverse leaves its spectrum alone
    real = rng.standard_normal(g.half_shape)
    assert np.array_equal(g.inverse(real), g.inverse(real.astype(complex)))
    row = rng.standard_normal(g.half_shape) + 1j * rng.standard_normal(g.half_shape)
    for view in (np.broadcast_to(row, (4,) + g.half_shape), np.broadcast_to(real[0], g.half_shape)):
        assert 0 in view.strides
        assert np.array_equal(g.inverse(view), g.inverse(np.ascontiguousarray(view, dtype=complex)))


def test_forward_refuses_complex_fields():
    g = Grid(1, 16, 3.0)
    with pytest.raises(TypeError):
        g.forward(np.ones(g.shape, dtype=complex))


_GRID_CHOICES = st.sampled_from([(1, 8), (1, 32), (1, 128), (2, 8), (2, 16), (3, 8)])


@settings(max_examples=40, deadline=None)
@given(dn=_GRID_CHOICES, length=st.floats(0.5, 50.0), seed=st.integers(0, 2**32 - 1),
       batch=st.integers(0, 3))
def test_plancherel_and_round_trip_property(dn, length, seed, batch):
    g = Grid(dn[0], dn[1], length)
    rng = np.random.default_rng(seed)
    shape = ((batch,) if batch else ()) + g.shape
    vals = rng.standard_normal(shape) * np.exp(rng.uniform(-3.0, 3.0))
    spec = g.forward(vals)
    axes = tuple(range(vals.ndim - g.dimension, vals.ndim))
    lhs = g.cell_volume * np.sum(vals**2, axis=axes)
    rhs = g.half_sum(np.abs(spec) ** 2) / g.box_length**g.dimension
    assert np.all(np.abs(lhs - rhs) <= 1e-12 * lhs)
    # the doubling weights stand for the mirrored columns of the full grid
    full = np.sum(np.abs(g.full_forward(vals)) ** 2, axis=axes) / g.box_length**g.dimension
    assert np.all(np.abs(full - rhs) <= 1e-12 * lhs)
    back = g.inverse(spec)
    assert np.max(np.abs(back - vals)) <= 1e-12 * np.max(np.abs(vals))


_FFT_FREQUENCY_HELPERS = {"fftfreq", "rfftfreq"}


def _fft_calls(source: str) -> list[str]:
    """FFT routines a module reaches through an ``fft`` namespace or import."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr not in _FFT_FREQUENCY_HELPERS:
            base = node.value
            name = base.attr if isinstance(base, ast.Attribute) else getattr(base, "id", None)
            if name in ("fft", "fftpack"):
                found.append(f"line {node.lineno}: .fft.{node.attr}")
        elif isinstance(node, ast.ImportFrom) and node.module:
            names = {a.name for a in node.names}
            if node.module.split(".")[-1] in ("fft", "fftpack") and names - _FFT_FREQUENCY_HELPERS:
                found.append(f"line {node.lineno}: from {node.module} import")
    return found


def test_lattice_is_the_only_fft_site():
    import stochwave

    package = Path(stochwave.__file__).parent
    offenders = {}
    for path in sorted(package.glob("*.py")):
        calls = _fft_calls(path.read_text())
        if path.name != "lattice.py" and calls:
            offenders[path.name] = calls
    assert offenders == {}
    # the scan itself sees the forms it is meant to catch
    assert _fft_calls("import numpy as np\nnp.fft.fftn(a)\n")
    assert _fft_calls("import scipy.fft\nscipy.fft.ifftn(a)\n")
    assert _fft_calls("from numpy.fft import rfft\n")
    assert not _fft_calls("import numpy as np\nnp.fft.fftfreq(8)\n")
    assert _fft_calls((package / "lattice.py").read_text())


def test_l2_norm_trivials():
    g = Grid(1, 64, 8.0)
    assert l2_norm(LatticeField(g, np.zeros(g.shape))) == 0.0
    vals = np.zeros(g.shape)
    vals[10] = 1.0
    assert l2_norm(LatticeField(g, vals)) == pytest.approx(np.sqrt(g.spacing), rel=1e-14)


@pytest.mark.parametrize("d, n", [(1, 64), (2, 16), (3, 8)])
def test_l2_norm_is_the_numpy_root_of_norm_sq_bit_for_bit(d, n):
    # math.sqrt and np.sqrt both round the square root correctly
    grid = Grid(d, n, 7.0)
    rng = np.random.default_rng(n)
    for scale in (1e-150, 1e-3, 1.0, 1e3, 1e150):
        f = LatticeField(grid, scale * rng.standard_normal(grid.shape))
        assert l2_norm(f) == float(np.sqrt(norm_sq(grid, f.values)))


def test_grids_compare_by_dimension_points_and_exact_length():
    a = Grid(1, 64, 0.3)
    assert a == a
    # a float length is held as the nearest fraction with denominator <= 1e9,
    # so 0.1 + 0.2 gives the same exact L (3/10) and the same spacing
    for same in (Grid(1, 64, 0.3), Grid(1, 64, 0.1 + 0.2)):
        assert same is not a and same == a and hash(same) == hash(a)
        assert same.spacing == a.spacing
        assert not (LatticeField(same, np.ones(64)) - LatticeField(a, np.ones(64))).values.any()
    for other in (Grid(1, 64, 0.3 + 1e-6), Grid(1, 64, 9.0), Grid(1, 32, 0.3), Grid(2, 64, 0.3)):
        assert other != a
        with pytest.raises(ValueError, match="grids differ"):
            LatticeField(other, np.ones(other.shape)) - LatticeField(a, np.ones(64))


@pytest.mark.parametrize("d, n", [(1, 16), (2, 8), (3, 8)])
def test_batched_norm_sq_equals_row_by_row(d, n):
    # a (replicas, steps, *shape) batch, as the replica sweep hands it over
    grid = Grid(d, n, 5.0)
    rng = np.random.default_rng(d)
    values = rng.standard_normal((3, 4) + grid.shape)
    for theta in (None, rng.random(grid.shape)):
        batch = norm_sq(grid, values, theta)
        assert batch.shape == (3, 4)
        rows = [[norm_sq(grid, step, theta) for step in replica] for replica in values]
        assert np.array_equal(batch, np.array(rows))


@pytest.mark.parametrize("d, n", [(1, 16), (2, 8), (3, 8)])
def test_norm_sq_without_theta_equals_a_unit_theta(d, n):
    grid = Grid(d, n, 5.0)
    values = np.random.default_rng(d).standard_normal((2,) + grid.shape)
    assert np.array_equal(norm_sq(grid, values), norm_sq(grid, values, np.ones(grid.shape)))
    assert l2_norm(LatticeField(grid, values[0])) == np.sqrt(norm_sq(grid, values[0]))


@pytest.mark.parametrize("seed", range(4))
def test_plancherel_random_fields(seed):
    # 25 fields per seed keeps the full sweep at 100 draws
    g = Grid(1, 128, 12.0)
    rng = np.random.default_rng(seed)
    for _ in range(25):
        f = LatticeField(g, rng.standard_normal(g.shape))
        lhs = l2_norm(f) ** 2
        rhs = g.half_sum(np.abs(f.spectrum) ** 2) / g.box_length**g.dimension
        assert abs(lhs - rhs) <= 1e-10 * lhs


def test_h_neg_k_norm():
    g = Grid(1, 128, 12.0)
    assert h_neg_k_norm(LatticeField(g, np.zeros(g.shape)), 2) == 0.0
    rng = np.random.default_rng(3)
    f = LatticeField(g, rng.standard_normal(g.shape))
    assert h_neg_k_norm(f, 0) == pytest.approx(l2_norm(f), rel=1e-12)
    norms = [h_neg_k_norm(f, k) for k in range(4)]
    assert all(a > b for a, b in zip(norms, norms[1:]))


def test_multiplier_apply_rejects_odd_multiplier():
    # an odd multiplier maps a real field to an imaginary one, so it has no
    # half-spectrum restriction; the evenness check refuses it
    g = Grid(1, 64, 8.0)
    with pytest.raises(ValueError, match="not even"):
        g.half(np.sin(g.axis_freqs))
    even = np.cos(g.axis_freqs)
    assert np.array_equal(g.half(even), even[:33])
    # odd along one axis of two, with leading batch axes riding along
    g2 = Grid(2, 16, 8.0)
    odd2 = np.sin(g2.axis_freqs)[:, None] * np.ones(g2.shape)
    with pytest.raises(ValueError, match="not even"):
        g2.half(np.stack([g2.freq_norm_sq, odd2]))
    assert g2.half(np.stack([g2.freq_norm_sq] * 3)).shape == (3,) + g2.half_shape


def test_inverse_refuses_a_full_spectrum():
    # irfftn would crop a full spectrum to its first columns without a word
    g = Grid(2, 16, 8.0)
    values = np.random.default_rng(5).standard_normal(g.shape)
    with pytest.raises(ValueError, match="half spectrum"):
        g.inverse(g.full_forward(values))


def test_multiplier_apply_matches_direct_circular_convolution():
    # convolution theorem under the package convention: an even multiplier
    # applied through the transform pair equals the explicit index-space
    # circular convolution with the inverse-transformed kernel
    g = Grid(1, 64, 8.0)
    n = g.points_per_axis
    rng = np.random.default_rng(6)
    values = rng.standard_normal(g.shape)
    t = 0.7
    eta = np.abs(g.axis_freqs)
    m = np.where(eta > 0, np.sin(t * np.maximum(eta, 1e-300)) / np.maximum(eta, 1e-300), t)

    fast = g.inverse(g.half(m) * g.forward(values))

    kernel = np.fft.ifft(m)
    shifted = np.fft.ifftshift(values)
    out = np.zeros(n, dtype=complex)
    for mm in range(n):
        for p in range(n):
            out[mm] += kernel[(mm - p) % n] * shifted[p]
    slow = np.fft.fftshift(out).real

    assert np.max(np.abs(fast - slow)) < 1e-8


def test_field_io_round_trip():
    from fractions import Fraction

    g = Grid(2, 16, Fraction(25, 2))
    rng = np.random.default_rng(7)
    f = LatticeField(g, rng.standard_normal(g.shape))
    buf = io.BytesIO()
    write_field(f, buf)
    buf.seek(0)
    back = read_field(buf)
    assert back.grid == g
    assert np.array_equal(back.values, f.values)


def test_field_io_truncation_errors():
    g = Grid(1, 8, 1.0)
    f = LatticeField(g, np.arange(8.0))
    buf = io.BytesIO()
    write_field(f, buf)
    data = buf.getvalue()
    with pytest.raises(ValueError):
        read_field(io.BytesIO(data[:16]))
    with pytest.raises(ValueError):
        read_field(io.BytesIO(data[:-8]))
