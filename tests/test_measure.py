import itertools
import math
from types import SimpleNamespace

import numpy as np
import pytest

import _reference
from _sampling import diag
import ymrelax.measure as measure
from ymrelax.errors import SingularAtom
from ymrelax.matcore import (Mat, RhoBall, det, frob_norm, inv_norm, invert,
                             mat_close, max_norm_pair)
from ymrelax.measure import (
    CLASSIFY_BLOCK,
    MERGE_TOL,
    AtomicMeasure,
    ClassReport,
    Mesh,
    YoungMeasureField,
    classify,
    first_moment,
    hat_pushforward,
    homogenize,
    measures_equal,
    pair,
    support_in_ball,
    truncate,
)
from ymrelax.testfn import make_det_cutoff, make_phi_rho, named_testfn


def assert_canonical(pairs) -> AtomicMeasure:
    """The constructor against a brute-force reference, bit for bit:
    connected components of the MERGE_TOL graph, each at its smallest
    flat location (the first in input order among equal ones) with the
    fsum of its weights, sorted by location."""
    label = list(range(len(pairs)))
    changed = True
    while changed:  # every atom takes the least label of its neighbours
        changed = False
        for i, (a, _) in enumerate(pairs):
            for j, (b, _) in enumerate(pairs):
                if label[j] < label[i] and frob_norm(a - b) <= MERGE_TOL:
                    label[i], changed = label[j], True
    ref = []
    for root in sorted(set(label)):
        group = [pairs[i] for i in range(len(pairs)) if label[i] == root]
        ref.append((min((a for a, _ in group), key=lambda m: m.flat),
                    math.fsum(w for _, w in group)))
    ref.sort(key=lambda aw: aw[0].flat)
    nu = AtomicMeasure(pairs)

    def bits(atoms):
        return [([x.hex() for x in a.flat], w.hex()) for a, w in atoms]

    assert bits(nu.atoms) == bits(ref)
    return nu


class TestAtomicMeasure:
    def test_dirac(self):
        nu = AtomicMeasure.dirac(Mat.scalar(2.0))
        assert nu.atoms == ((Mat.scalar(2.0), 1.0),)

    def test_weights_validated(self):
        with pytest.raises(ValueError):
            AtomicMeasure([(Mat.scalar(1.0), 0.5)])
        with pytest.raises(ValueError):
            AtomicMeasure([(Mat.scalar(1.0), -0.5),
                           (Mat.scalar(2.0), 1.5)])

    def test_close_atoms_merged(self):
        nu = AtomicMeasure([(Mat.scalar(1.0), 0.5),
                            (Mat.scalar(1.0 + 1e-13), 0.5)])
        assert len(nu.atoms) == 1
        assert nu.atoms[0][1] == pytest.approx(1.0)

    def test_mixed_sizes_rejected(self):
        with pytest.raises(ValueError, match="atoms must share one dimension"):
            AtomicMeasure([(Mat.scalar(1.0), 0.5), (Mat.identity(2), 0.5)])

    def test_canonical_form_matches_brute_force(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            n = int(rng.integers(1, 3))
            centers = rng.normal(0.0, 1.0, (3, n * n))
            k = int(rng.integers(1, 9))
            # points within a few MERGE_TOL of a few centers: merges,
            # chains and isolated atoms all occur
            flats = [centers[rng.integers(3)]
                     + rng.normal(0.0, 0.7 * MERGE_TOL, n * n) for _ in range(k)]
            weights = rng.dirichlet(np.ones(k))
            pairs = [(Mat.from_flat(list(f)), float(w) / math.fsum(weights))
                     for f, w in zip(flats, weights)]
            assert_canonical(pairs)

    def test_chain_and_repeats_in_every_order(self):
        # a ~ b and b ~ c with a, c apart; d twice; 0.0 and -0.0
        a, b, c = 1.0, 1.0 + 0.7 * MERGE_TOL, 1.0 + 1.4 * MERGE_TOL
        pts = [(a, 0.125), (c, 0.125), (b, 0.125), (3.0, 0.125), (3.0, 0.25),
               (0.0, 0.125), (-0.0, 0.125)]
        assert abs(c - a) > MERGE_TOL
        for perm in itertools.permutations(pts):
            nu = assert_canonical([(Mat.scalar(x), w) for x, w in perm])
            assert [w for _, w in nu.atoms] == [0.25, 0.375, 0.375]

    def test_repeated_atoms_compared_once(self, monkeypatch):
        # exact copies collapse before the chain merge: two locations
        # make one distance test however many cells repeat them
        nu = AtomicMeasure([(Mat.scalar(-1.0), 0.5), (Mat.scalar(1.0), 0.5)])
        field = YoungMeasureField.constant(Mesh.interval(256), nu)
        calls = []

        def counted(a, b, tol):
            calls.append(1)
            return mat_close(a, b, tol)
        monkeypatch.setattr(measure, "mat_close", counted)
        mu = homogenize(field)
        assert len(calls) == 1
        assert mu.atoms == nu.atoms

    def test_json_roundtrip(self, make_measure):
        nu = make_measure(2)
        back = AtomicMeasure.from_json_dict(nu.to_json_dict())
        assert measures_equal(nu, back, [make_phi_rho(4.0)])


class TestPairing:
    def test_pair_is_weighted_sum(self):
        nu = AtomicMeasure([(Mat.scalar(1.0), 0.25),
                            (Mat.scalar(3.0), 0.75)])
        v = named_testfn("frob_power", {"p": 2.0})
        assert pair(nu, v) == pytest.approx(0.25 * 1.0 + 0.75 * 9.0)

    def test_first_moment(self, make_measure):
        nu = make_measure(2)
        m = first_moment(nu)
        expect = Mat.zero(2)
        for a, w in nu.atoms:
            expect = expect + w * a
        assert frob_norm(m - expect) <= 1e-12


class TestHatPushforward:
    def test_atoms_inverted(self):
        nu = AtomicMeasure([(Mat.scalar(2.0), 0.5),
                            (Mat.scalar(4.0), 0.5)])
        hat = hat_pushforward(nu)
        vals = sorted(a.flat[0] for a, _ in hat.atoms)
        assert vals == pytest.approx([0.25, 0.5])

    def test_involution(self, make_measure):
        nu = make_measure(3)
        back = hat_pushforward(hat_pushforward(nu))
        assert measures_equal(nu, back, [make_phi_rho(8.0)])

    def test_singular_atom_rejected(self):
        nu = AtomicMeasure([(Mat.scalar(0.0), 1.0)])
        with pytest.raises(SingularAtom):
            hat_pushforward(nu)

    def test_hat_relation(self, make_measure):
        # <hat nu, f> = <nu, f o inv> for f vanishing near singularity
        f = make_det_cutoff(0.5, signed=False)
        for n in (1, 2):
            nu = make_measure(n)
            lhs = pair(hat_pushforward(nu), f)
            rhs = math.fsum(w * f.evaluate(invert(a)) for a, w in nu.atoms)
            assert lhs == pytest.approx(rhs, abs=1e-13)


class TestTruncate:
    def test_probability_supported_in_extended_ball(self, make_measure):
        rho = 1.5
        ball = RhoBall(rho + 1.0)
        for _ in range(10):
            nu = make_measure(2, scale=2.0)
            out = truncate(nu, rho)
            assert math.fsum(w for _, w in out.atoms) == pytest.approx(1.0, abs=1e-12)
            assert support_in_ball(out, ball)

    def test_exact_identity_once_rho_dominates(self, make_measure):
        nu = make_measure(1)
        rho = 2.0 * max(max_norm_pair(a) for a, _ in nu.atoms)
        out = truncate(nu, rho)
        v = make_det_cutoff(0.5, signed=False)
        assert pair(out, v) == pytest.approx(pair(nu, v), abs=1e-15)

    def test_removed_mass_parked_on_identity(self):
        nu = AtomicMeasure([(Mat.scalar(10.0), 0.5),
                            (Mat.scalar(1.0), 0.5)])
        out = truncate(nu, 2.0)
        assert [(a.flat, w) for a, w in out.atoms] == [((1.0,), pytest.approx(1.0))]


def one_cell(nu):
    return YoungMeasureField.constant(Mesh.interval(1), nu)


class TestMoments:
    def test_finite_case(self):
        nu = AtomicMeasure([(Mat.scalar(2.0), 1.0)])
        rep = classify(one_cell(nu), 2.0, 2.0)
        assert rep.moment_p == pytest.approx(4.0)
        assert rep.moment_negq == pytest.approx(0.25)

    def test_singular_mass_infinite(self):
        nu = AtomicMeasure([(Mat.scalar(0.0), 0.5),
                            (Mat.scalar(1.0), 0.5)])
        rep = classify(one_cell(nu), 2.0, 2.0)
        assert rep.moment_negq == math.inf
        assert rep.inv_mass_deficit == 0.5


class TestMesh:
    def test_interval(self):
        mesh = Mesh.interval(8)
        assert mesh.n_cells == 8
        assert mesh.cell_volume == pytest.approx(1.0 / 8)
        lo, hi = mesh.interval_bounds(3)
        assert (lo, hi) == pytest.approx((0.375, 0.5))

    def test_power_of_two_enforced(self):
        with pytest.raises(ValueError):
            Mesh.interval(6)
        with pytest.raises(ValueError):
            Mesh.square(3, 4)

    def test_square_triangles(self):
        mesh = Mesh.square(2, 2)
        assert mesh.n_cells == 8
        assert mesh.cell_volume == pytest.approx(1.0 / 8)
        for c in range(mesh.n_cells):
            (x0, y0), (x1, y1), (x2, y2) = (mesh.vertex_point(k)
                                            for k in mesh.cell_vertices(c))
            area = 0.5 * abs((x1 - x0) * (y2 - y0) - (x2 - x0) * (y1 - y0))
            assert area == pytest.approx(mesh.cell_volume)

    def test_json_roundtrip(self):
        for mesh in (Mesh.interval(4), Mesh.square(2, 4)):
            back = Mesh.from_json_dict(mesh.to_json_dict())
            assert back.n_cells == mesh.n_cells
            assert back.dim == mesh.dim


class TestField:
    def test_constant_and_homogenize(self, make_measure):
        nu = make_measure(2)
        field = YoungMeasureField.constant(Mesh.square(2, 1), nu)
        hom = homogenize(field)
        assert measures_equal(hom, nu, [make_phi_rho(6.0)])

    def test_homogenize_is_volume_weighted(self, make_measure):
        mesh = Mesh.interval(8)
        field = YoungMeasureField(mesh, tuple(make_measure(1) for _ in range(8)))
        v = named_testfn("quartic_well_1d")
        lhs = pair(homogenize(field), v)
        rhs = math.fsum(mesh.cell_volume * pair(nu, v) for nu in field.measures)
        assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_classify_moments_are_volume_weighted(self, make_measure):
        mesh = Mesh.interval(4)
        field = YoungMeasureField(mesh, tuple(make_measure(1) for _ in range(4)))
        rep = classify(field, 2.0, 2.0)
        atoms = [(a, w) for nu in field.measures for a, w in nu.atoms]
        e1 = math.fsum(mesh.cell_volume * w * frob_norm(a) ** 2.0
                       for a, w in atoms)
        e2 = math.fsum(mesh.cell_volume * w * inv_norm(a) ** 2.0
                       for a, w in atoms)
        assert rep.moment_p == pytest.approx(e1, rel=1e-12)
        assert rep.moment_negq == pytest.approx(e2, rel=1e-12)

    def test_measure_size_must_match_mesh(self):
        with pytest.raises(ValueError, match="on a 1D mesh must be 1x1"):
            YoungMeasureField.constant(Mesh.interval(2),
                                       AtomicMeasure.dirac(Mat.identity(2)))
        with pytest.raises(ValueError, match="on a 2D mesh must be 2x2"):
            YoungMeasureField.constant(Mesh.square(1, 1),
                                       AtomicMeasure.dirac(Mat.scalar(1.0)))

    @pytest.mark.parametrize("bad_cells", [(1,), (7,), (5, 6)])
    def test_a_later_wrong_size_measure_is_found(self, bad_cells):
        # after a run of cells sharing one measure, alone or in a run
        good = AtomicMeasure.dirac(Mat.scalar(1.0))
        bad = AtomicMeasure.dirac(Mat.identity(2))
        measures = [bad if c in bad_cells else good for c in range(8)]
        with pytest.raises(ValueError, match="^cell measures on a 1D mesh must be 1x1$"):
            YoungMeasureField(Mesh.interval(8), tuple(measures))

    def test_json_roundtrip(self, make_measure):
        mesh = Mesh.square(2, 2)
        field = YoungMeasureField(mesh, tuple(make_measure(2)
                                              for _ in range(mesh.n_cells)))
        back = YoungMeasureField.from_json_dict(field.to_json_dict())
        for a, b in zip(field.measures, back.measures):
            assert measures_equal(a, b, [make_phi_rho(6.0)])


class TestClassify:
    def test_identity_in_both_classes(self):
        field = YoungMeasureField.constant(Mesh.square(1, 1),
                                           AtomicMeasure.dirac(Mat.identity(2)))
        rep = classify(field, 2.0, 2.0)
        assert rep.in_ypq and rep.in_ypq_plus
        assert rep.inv_mass_deficit == 0.0

    def test_negative_det_in_ypq_only(self):
        nu = AtomicMeasure.dirac(diag(-1.0, 1.0))
        field = YoungMeasureField.constant(Mesh.square(2, 2), nu)
        rep = classify(field, 2.0, 2.0)
        assert rep.in_ypq and not rep.in_ypq_plus
        assert rep.positive_det_mass_deficit == pytest.approx(1.0)

    def test_flags_follow_the_deficits(self):
        assert ClassReport(2.0, 2.0, 1.0, 1.0, 0.0, 0.0).in_ypq_plus
        rep = ClassReport(2.0, 2.0, 1.0, 1.0, 0.0, 0.25)
        assert rep.in_ypq and not rep.in_ypq_plus
        rep = ClassReport(2.0, 2.0, 1.0, math.inf, 0.25, 0.25)
        assert not rep.in_ypq and not rep.in_ypq_plus

    def test_singular_mass_in_neither(self):
        nu = AtomicMeasure([(Mat.scalar(0.0), 0.25),
                            (Mat.scalar(1.0), 0.75)])
        field = YoungMeasureField.constant(Mesh.interval(2), nu)
        rep = classify(field, 2.0, 2.0)
        assert not rep.in_ypq and not rep.in_ypq_plus
        assert rep.inv_mass_deficit == pytest.approx(0.25)
        assert rep.moment_negq == math.inf

    def test_underflowing_singular_mass_in_neither(self):
        # each cell's vol * w is 5e-324 / 64, which rounds to 0
        nu = AtomicMeasure([(Mat.scalar(0.0), 5e-324), (Mat.scalar(1.0), 1.0)])
        field = YoungMeasureField.constant(Mesh.interval(64), nu)
        rep = classify(field, 2.0, 2.0)
        assert not rep.in_ypq and not rep.in_ypq_plus
        assert rep.inv_mass_deficit > 0.0
        assert rep.moment_negq == math.inf


    @pytest.mark.parametrize("x, p, q", [(1e100, 5.0, 2.0), (1e-9, 2.0, 40.0)])
    def test_underflowing_mass_at_an_overflowing_power(self, x, p, q):
        # |s|^5 overflows at 1e100, |s^-1|^40 at 1e-9; vol * w is 0
        nu = AtomicMeasure([(Mat.scalar(x), 5e-324), (Mat.scalar(1.0), 1.0)])
        rep = classify(YoungMeasureField.constant(Mesh.interval(64), nu), p, q)
        assert (rep.moment_p if x > 1.0 else rep.moment_negq) == math.inf
        assert rep.in_ypq_plus

    def test_underflowing_mass_after_a_singular_atom(self):
        nu = AtomicMeasure([(Mat.scalar(0.0), 0.5), (Mat.scalar(1e-9), 5e-324),
                            (Mat.scalar(1.0), 0.5)])
        assert len(nu.atoms) == 3
        rep = classify(YoungMeasureField.constant(Mesh.interval(64), nu), 2.0, 40.0)
        assert rep.moment_negq == math.inf
        assert rep.inv_mass_deficit == pytest.approx(0.5)

def mixed_atoms(rng, n, count):
    """count n x n atoms: invertible ones of either det sign, singular
    ones (rank n - 1) and zero matrices, in a seeded order."""
    out = []
    for kind in rng.integers(0, 4, count):
        a = rng.normal(0.0, 1.5, (n, n))
        if kind == 1:
            a[-1] = a[0] if n > 1 else 0.0
        elif kind == 2:
            a[:] = 0.0
        out.append(Mat(n, tuple(a.ravel().tolist())))
    return out


def field_of(dim, measures):
    """measures on an interval or square mesh of their count, or on a
    stand-in mesh for 3x3 atoms, which no Mesh carries."""
    cells = len(measures)
    if dim == 3:
        return SimpleNamespace(mesh=SimpleNamespace(dim=3, cell_volume=1.0 / cells),
                               measures=tuple(measures))
    mesh = Mesh.interval(cells) if dim == 1 else Mesh.square(16, cells // 32)
    return YoungMeasureField(mesh, tuple(measures))


def mixed_field(rng, dim, extra=()):
    """A field of more than CLASSIFY_BLOCK atoms: two atoms a cell on
    2048 intervals (1D), 1024 triangles (2D) or 1024 stand-in cells (3D).
    extra atoms join the first cell's measure."""
    cells = {1: 2048, 2: 1024, 3: 1024}[dim]
    atoms = mixed_atoms(rng, dim, 2 * cells)
    measures = [AtomicMeasure(list(zip(atoms[2 * c:2 * c + 2], (0.375, 0.625))))
                for c in range(cells)]
    if extra:
        measures[0] = AtomicMeasure([(a, 0.5 * w) for a, w in measures[0].atoms]
                                    + [(a, 0.5 * (1.0 / len(extra))) for a in extra])
    return field_of(dim, measures)


def weighted(rng, atoms):
    """A measure on atoms with weights drawn in (0, 1) and normalised."""
    w = rng.uniform(0.05, 1.0, len(atoms))
    return AtomicMeasure(list(zip(atoms, (w / w.sum()).tolist())))


def pooled_field(rng, dim, cells, draw):
    """cells measures of 1-4 atoms each from draw(k): a third of the
    cells each take a fresh measure, the rest one of a pool of four, so
    the field repeats measure objects and their atom counts vary."""
    pool = [draw(k) for k in rng.integers(1, 5, 4)]
    picks = rng.integers(0, 6, cells)
    return field_of(dim, [pool[k] if k < 4 else draw(int(rng.integers(1, 5)))
                          for k in picks])


REPORT = ("moment_p", "moment_negq", "inv_mass_deficit", "positive_det_mass_deficit")


def assert_matches_reference(field, p, q):
    """classify against the atom-by-atom loop of _reference: float for
    float, but for the two rules of its docstring, both of which bite
    only where an atom's vol * w underflows to 0.  No field is NaN."""
    got, ref = classify(field, p, q), _reference.classify(field, p, q)
    assert not any(math.isnan(getattr(got, name)) for name in REPORT)
    for g, r in ((got.moment_p, ref.moment_p), (got.moment_negq, ref.moment_negq)):
        assert g == r or (math.isnan(r) and g == math.inf)
    vol = field.mesh.cell_volume
    lost = [a for nu in field.measures for a, w in nu.atoms if vol * w == 0.0]
    singular = [a for a in lost if inv_norm(a) == math.inf]
    nonpositive = singular + [a for a in lost if inv_norm(a) < math.inf and det(a) <= 0.0]
    for g, r, hidden in ((got.inv_mass_deficit, ref.inv_mass_deficit, singular),
                         (got.positive_det_mass_deficit, ref.positive_det_mass_deficit,
                          nonpositive)):
        if hidden:
            assert g >= r and g > 0.0
        else:
            assert g == r
    return got, ref


class TestClassifyOnStacks:
    """classify reads a field CLASSIFY_BLOCK cells at a time, each distinct
    measure of a block once, takes its atoms' norms, inverse norms and
    determinants from the stack kernels and sums their terms in field
    order; the atom-by-atom loop in _reference gives the same report,
    float for float."""

    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("p, q", [(2.0, 2.0), (5.0, 3.0), (0.5, 7.0)])
    def test_equals_scalar_loop(self, rng, dim, p, q):
        field = mixed_field(rng, dim)
        atoms = sum(len(nu.atoms) for nu in field.measures)
        assert atoms > CLASSIFY_BLOCK
        got = classify(field, p, q)
        assert got == _reference.classify(field, p, q)
        assert 0.0 < got.inv_mass_deficit < got.positive_det_mass_deficit < 1.0
        assert got.moment_negq == math.inf

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_overflowing_power_equals_scalar_loop(self, rng, dim):
        big = Mat(dim, (1e100,) + (0.0,) * (dim * dim - 1))
        field = mixed_field(rng, dim, extra=[big])
        got = classify(field, 5.0, 2.0)
        assert got.moment_p == math.inf
        assert got == _reference.classify(field, 5.0, 2.0)

    def test_invertible_field_has_finite_moments(self, rng):
        nu = AtomicMeasure([(diag(1.0, 2.0), 0.5), (diag(-3.0, 0.5), 0.5)])
        field = YoungMeasureField.constant(Mesh.square(32, 32), nu)
        got = classify(field, 3.0, 3.0)
        assert got == _reference.classify(field, 3.0, 3.0)
        assert math.isfinite(got.moment_negq)
        assert got.positive_det_mass_deficit == pytest.approx(0.5)

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_constant_field_equals_scalar_loop(self, rng, dim):
        nu = weighted(rng, mixed_atoms(rng, dim, 3))
        field = field_of(dim, [nu] * 2048)
        for p, q in ((2.0, 2.0), (0.5, 7.0)):
            assert classify(field, p, q) == _reference.classify(field, p, q)

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_shared_and_distinct_measures_equal_scalar_loop(self, rng, dim):
        field = pooled_field(rng, dim, 2 * CLASSIFY_BLOCK,
                             lambda k: weighted(rng, mixed_atoms(rng, dim, k)))
        blocks = [{id(nu) for nu in field.measures[c:c + CLASSIFY_BLOCK]}
                  for c in (0, CLASSIFY_BLOCK)]
        # measures repeat within a block and across the two blocks
        assert 4 < len(blocks[0]) < CLASSIFY_BLOCK and blocks[0] & blocks[1]
        for p, q in ((2.0, 2.0), (5.0, 3.0), (0.5, 7.0)):
            assert classify(field, p, q) == _reference.classify(field, p, q)

    def test_extreme_fields_are_never_nan(self, rng):
        """Subnormal weights on atoms near 1e160 (whose norms overflow),
        near 0, with det < 0, or whose inverse norms overflow a 120th
        power: the reports differ from the loop's only by the two rules,
        and the sweep makes both bite on every report field."""
        def extreme(dim, k, scale):
            # scale None draws every atom's scale; otherwise the first of
            # two or more atoms takes scale, the rest stay near I, det > 0
            atoms = []
            for i in range(k):
                m = np.eye(dim) + 0.1 * rng.uniform(size=(dim, dim))
                if scale is None or (i == 0 and k > 1):
                    m *= rng.choice(scales(dim)) if scale is None else scale
                    m[0] *= rng.choice([-1.0, 1.0])
                atoms.append(Mat(dim, tuple(m.ravel().tolist())))
            if k == 1:
                return AtomicMeasure.dirac(atoms[0])
            w0 = float(rng.choice([5e-324, 1e-320, 0.25][:3 if scale is None else 2]))
            w = rng.uniform(0.05, 1.0, k - 1)
            return AtomicMeasure(list(zip(atoms, [w0] + ((1.0 - w0) * w / w.sum()).tolist())))

        def scales(dim):  # det of the small scale stays above SINGULAR_RTOL
            return [1e160, 10.0 ** (-11 / dim), 0.0, 1.0]
        bitten = set()
        for _ in range(40):
            dim = int(rng.integers(1, 4))
            scale = [None, *scales(dim)][rng.integers(0, 5)]
            field = pooled_field(rng, dim, int(rng.choice([64, 128])),
                                 lambda k: extreme(dim, k, scale))
            for p, q in ((2.0, 2.0), (5.0, 120.0)):
                got, ref = assert_matches_reference(field, p, q)
                bitten.update(name for name in REPORT
                              if not getattr(got, name) == getattr(ref, name))
        assert bitten == set(REPORT)


class TestMeasuresEqual:
    def test_permutation_invariant(self):
        a = AtomicMeasure([(Mat.scalar(1.0), 0.5),
                           (Mat.scalar(2.0), 0.5)])
        b = AtomicMeasure([(Mat.scalar(2.0), 0.5),
                           (Mat.scalar(1.0), 0.5)])
        fam = [make_phi_rho(r) for r in (2.0, 3.0, 5.0)]
        assert measures_equal(a, b, fam)

    def test_distinguishes(self):
        a = AtomicMeasure.dirac(Mat.scalar(1.0))
        b = AtomicMeasure.dirac(Mat.scalar(2.0))
        fam = [make_phi_rho(1.2)]
        assert not measures_equal(a, b, fam)

    def test_family_kind_enforced(self):
        a = AtomicMeasure.dirac(Mat.scalar(1.0))
        with pytest.raises(ValueError):
            measures_equal(a, a, [named_testfn("frob_power", {"p": 2.0})])
