"""Cross-checks between the compiled enumeration kernel and the pure-Python
fallback, plus a direct brute-force reference for both.

The compiled kernel is built from the shipped C by the project's own
setup.py into a temporary directory, so its checks run wherever a C
compiler and the Python headers are present, whether or not the package
was built in place.  The pure kernel's checks need neither.
"""

import importlib.util
import io
import itertools
import json
import shlex
import shutil
import subprocess
import sys
import sysconfig
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from neronjac import (
    KERNEL_NAME,
    WeightedGraph,
    _kernel,
    _kernel_py,
    blow_up,
    census,
    enumerate_balanced,
    graph_to_dict,
    separating_edges,
)
from neronjac.cli import run

REPO_ROOT = Path(__file__).resolve().parent.parent
PYTHON_H = Path(sysconfig.get_paths()["include"]) / "Python.h"
CC = shlex.split(sysconfig.get_config_var("CC") or "cc")[0]


@pytest.fixture(scope="module")
def speedups(tmp_path_factory):
    """The compiled kernel, built from the shipped C by `setup.py build_ext`
    into a temporary directory and loaded from there.

    The module is kept out of sys.modules, so neronjac.KERNEL_NAME and
    _kernel.enumerate_box stay as imported for every other test.
    """
    pytest.importorskip("setuptools")
    if not PYTHON_H.exists():
        pytest.skip(f"cannot compile the extension: {PYTHON_H} not found")
    if shutil.which(CC) is None:
        pytest.skip(f"cannot compile the extension: compiler {CC!r} not found")

    out = tmp_path_factory.mktemp("speedups")
    proc = subprocess.run(
        [
            sys.executable,
            "setup.py",
            "build_ext",
            "--build-lib",
            str(out / "lib"),
            "--build-temp",
            str(out / "temp"),
        ],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
    )
    name = "_speedups" + sysconfig.get_config_var("EXT_SUFFIX")
    built = out / "lib" / "neronjac" / name
    assert proc.returncode == 0 and built.exists(), proc.stdout + proc.stderr

    spec = importlib.util.spec_from_file_location("neronjac._speedups", built)
    previous = sys.modules.get(spec.name)
    try:
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        # loading an extension registers it in sys.modules; undo that
        if previous is None:
            sys.modules.pop(spec.name, None)
        else:
            sys.modules[spec.name] = previous
    return module


def brute_force_box(lows, highs, total, masks, thresholds, scale):
    out = []
    for md in itertools.product(
        *(range(lo, hi + 1) for lo, hi in zip(lows, highs))
    ):
        if sum(md) != total:
            continue
        ok = True
        for mask, threshold in zip(masks, thresholds):
            acc = sum(md[v] for v in range(len(md)) if mask >> v & 1)
            if scale * acc < threshold:
                ok = False
                break
        if ok:
            out.append(tuple(md))
    return out


CASES = [
    # (lows, highs, total, masks, thresholds, scale)
    ([-2, -2], [3, 3], 1, [0b01, 0b10], [-4, -4], 4),
    ([-3, -3, -3], [4, 4, 4], 2, [0b001, 0b110, 0b011], [-2, 0, -1], 6),
    ([0, 0, 0, 0], [2, 2, 2, 2], 4, [0b0011, 0b1100, 0b0110], [4, 4, 2], 2),
    ([1, 1], [1, 1], 2, [0b01], [2], 2),
    ([0, 0], [1, 1], 5, [], [], 2),  # infeasible total
    ([-1, -1, -1], [1, 1, 1], 0, [], [], 2),  # no constraints
    # every coordinate but the last, and every one but the first
    ([-2, -2, -2], [3, 3, 3], 2, [0b011, 0b110], [6, -2], 4),
    # a singleton on the last coordinate, from below and from above
    ([-2, -2, -2], [3, 3, 3], 1, [0b100], [3], 2),
    ([-2, -2, -2], [3, 3, 3], 1, [0b100], [3], -2),
    # the full mask, and scale 0: constant constraints
    ([0, 0, 0], [2, 2, 2], 3, [0b111, 0b011], [12, 1], 4),
    ([0, 0, 0], [2, 2, 2], 3, [0b111], [13], 4),
    ([0, 0], [2, 2], 2, [0b01, 0b10], [0, -3], 0),
    ([0, 0], [2, 2], 2, [0b01, 0b10], [0, 1], 0),
    # two bounds on one mask: the tighter one holds, whichever comes first
    ([0, 0, 0], [3, 3, 3], 4, [0b011, 0b011], [2, 6], 2),
    ([0, 0, 0], [3, 3, 3], 4, [0b011, 0b011], [6, 2], 2),
    ([0, 0, 0], [3, 3, 3], 4, [0b011, 0b011], [-2, -6], -2),
    ([0, 0, 0], [3, 3, 3], 4, [0b011, 0b011], [-6, -2], -2),
    # negative scale: upper bounds, some only on the complement
    ([-3, -3, -3, -3], [3, 3, 3, 3], 0, [0b1010, 0b0011, 0b1100], [-2, 3, -5], -2),
]


class TestKernelSelection:
    def test_name_is_known(self):
        assert KERNEL_NAME in ("compiled", "python")
        assert _kernel.KERNEL_NAME == KERNEL_NAME

    def test_compiled_extension_builds(self, speedups):
        # the build must not replace the kernel imported from src/
        assert speedups.KERNEL_NAME == "compiled"
        assert sys.modules.get("neronjac._speedups") is not speedups


class TestAgainstBruteForce:
    # the pure kernel, and the kernel the package selected at import
    KERNELS = (_kernel_py, _kernel)

    @pytest.mark.parametrize("case", CASES)
    def test_all_kernels(self, case):
        want = brute_force_box(*case)
        for kernel in self.KERNELS:
            got = list(kernel.enumerate_box(*case))
            assert got == want, kernel.KERNEL_NAME

    def test_output_is_lexicographic(self):
        for case in CASES:
            for kernel in self.KERNELS:
                got = list(kernel.enumerate_box(*case))
                assert got == sorted(got)

    @pytest.mark.parametrize("case", CASES)
    def test_built_compiled_kernel(self, case, speedups):
        # brute_force_box lists its points in lexicographic order
        assert list(speedups.enumerate_box(*case)) == brute_force_box(*case)


@st.composite
def boxes(draw):
    """Arguments of enumerate_box with at most 5 coordinates.  Half the
    masks hold the last coordinate, so the search bounds their complement."""
    n = draw(st.integers(1, 5))
    lows = draw(st.lists(st.integers(-3, 2), min_size=n, max_size=n))
    widths = draw(st.lists(st.integers(0, 4), min_size=n, max_size=n))
    total = draw(st.integers(-4, 9))
    constraints = draw(
        st.lists(
            st.tuples(st.integers(1, 2**n - 1), st.booleans(), st.integers(-12, 12)),
            max_size=6,
        )
    )
    masks = [m | (1 << n - 1) if last else m for m, last, _ in constraints]
    thresholds = [t for _, _, t in constraints]
    scale = draw(st.sampled_from([-2, 0, 1, 4]))
    highs = [lo + w for lo, w in zip(lows, widths)]
    return lows, highs, total, masks, thresholds, scale


@st.composite
def pinned_boxes(draw):
    """boxes() with a random share of the coordinates pinned, lo == hi,
    as the exceptional vertices of a blow-up are."""
    lows, highs, total, masks, thresholds, scale = draw(boxes())
    pins = draw(st.lists(st.booleans(), min_size=len(lows), max_size=len(lows)))
    highs = [lo if pin else hi for lo, hi, pin in zip(lows, highs, pins)]
    return lows, highs, total, masks, thresholds, scale


class TestPureKernel:
    """The pure kernel's bounded search against brute_force_box, and its
    argument checks."""

    @given(boxes())
    @settings(max_examples=300, deadline=None)
    def test_random_boxes(self, args):
        assert _kernel_py.enumerate_box(*args) == brute_force_box(*args)

    @given(pinned_boxes())
    @settings(max_examples=300, deadline=None)
    def test_random_boxes_with_pinned_coordinates(self, args):
        assert _kernel_py.enumerate_box(*args) == brute_force_box(*args)

    @pytest.mark.parametrize(
        "args",
        [
            # the pinned values meet the total, or miss it
            ([1, -2, 3], [1, -2, 3], 2, [0b011, 0b110], [-2, 1], 2),
            ([1, -2, 3], [1, -2, 3], 3, [0b011], [-2], 2),
            # a constraint the pinned values break
            ([1, -2, 3], [1, -2, 3], 2, [0b011, 0b110], [-2, 3], 2),
            ([1, -2, 3], [1, -2, 3], 2, [0b101], [-7], -2),
            ([0], [0], 0, [0b1], [1], 0),
        ],
    )
    def test_every_coordinate_pinned(self, args):
        want = brute_force_box(*args)
        assert want in ([], [tuple(args[0])])
        assert _kernel_py.enumerate_box(*args) == want

    @pytest.mark.parametrize("threshold, holds", [(4, True), (5, False)])
    def test_mask_on_pinned_coordinates_only(self, threshold, holds):
        # coordinates 1 and 3 are pinned to 1, so 0b1010 is the constant
        # 2 * 2 >= threshold, and the 0b0110 bound keeps its free part
        args = ([0, 1, -1, 1], [2, 1, 2, 1], 3, [0b1010, 0b0110], [threshold, 2], 2)
        want = brute_force_box(*args)
        assert bool(want) is holds
        assert _kernel_py.enumerate_box(*args) == want

    @pytest.mark.parametrize(
        "masks, thresholds, scale",
        [
            # a constraint that empties the box, then a bad mask
            ([0b01, 0b100], [5, 0], 0),
            ([0b11, 0b100], [99, 0], 4),
            ([0b01, 0], [99, 0], 4),
            # the bad mask first
            ([0b100, 0b01], [0, 5], 0),
        ],
    )
    def test_bad_mask_raises_whatever_the_others(self, masks, thresholds, scale):
        bad = next(m for m in masks if m <= 0 or m >> 2)
        for kernel in (_kernel_py, _kernel):
            with pytest.raises(ValueError) as info:
                kernel.enumerate_box([0, 0], [1, 1], 1, masks, thresholds, scale)
            assert str(info.value) == f"mask {bad} out of range for 2 coordinates"

    @pytest.mark.parametrize("highs", [[0, 1, 1], [0, 0, 1], [0, 0, 2]])
    def test_bad_mask_on_pinned_coordinates(self, highs):
        # coordinate 0 is pinned, so 0b1001 lies on pinned coordinates but
        # for its bit out of range; a mask that folds to a false constant
        # comes first, and a good one after
        masks = [0b001, 0b1001, 0b010]
        for kernel in (_kernel_py, _kernel):
            with pytest.raises(ValueError) as info:
                kernel.enumerate_box([0, 0, 1], highs, 1, masks, [9, 0, 0], 4)
            assert str(info.value) == "mask 9 out of range for 3 coordinates"


class TestCompiledMatchesPure:
    @given(
        st.integers(2, 4).flatmap(
            lambda n: st.tuples(
                st.lists(
                    st.tuples(st.integers(-4, 2), st.integers(-1, 5)),
                    min_size=n,
                    max_size=n,
                ),
                st.integers(-3, 8),
                st.lists(
                    st.tuples(st.integers(1, 2**n - 1), st.integers(-9, 9)),
                    max_size=5,
                ),
            )
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_random_boxes(self, speedups, data):
        bounds, total, constraints = data
        lows = [lo for lo, _ in bounds]
        highs = [max(lo, hi) for lo, hi in bounds]
        masks = [m for m, _ in constraints]
        thresholds = [t for _, t in constraints]
        args = (lows, highs, total, masks, thresholds, 4)
        assert list(speedups.enumerate_box(*args)) == list(
            _kernel_py.enumerate_box(*args)
        )

    def test_balanced_sets_identical_over_census(self, speedups, monkeypatch):
        for g in census(3, 3):
            for d in range(-2, 6):
                monkeypatch.setattr(_kernel, "enumerate_box", speedups.enumerate_box)
                compiled = enumerate_balanced(g, d)
                monkeypatch.setattr(
                    _kernel, "enumerate_box", _kernel_py.enumerate_box
                )
                pure = enumerate_balanced(g, d)
                assert compiled == pure

    def test_strict_sets_identical_through_range_guard(self, speedups, monkeypatch):
        """Through the range guard the compiled kernel gives the same
        balanced and strict sets as the pure one on blow-ups too."""
        guarded = _kernel.range_guarded(speedups)
        for g in census(3, 4):
            bridges = sorted(separating_edges(g))
            for size in range(len(bridges) + 1):
                for subset in itertools.combinations(bridges, size):
                    hat = blow_up(g, subset)
                    for d in range(-3, 10):
                        monkeypatch.setattr(_kernel, "enumerate_box", guarded)
                        compiled = enumerate_balanced(hat, d)
                        monkeypatch.setattr(
                            _kernel, "enumerate_box", _kernel_py.enumerate_box
                        )
                        assert compiled == enumerate_balanced(hat, d)


def kernel_answer(kernel, args):
    """The kernel's list of points, or the ValueError it raises instead."""
    try:
        return list(kernel.enumerate_box(*args))
    except ValueError as exc:
        return ValueError, str(exc)


def mask_error(mask, n):
    return ValueError, f"mask {mask} out of range for {n} coordinates"


class TestRawModuleMatchesPure:
    """The built module, called directly rather than through range_guarded,
    gives the pure kernel's answer, ValueErrors included, within int64."""

    @given(
        st.integers(0, 4).flatmap(
            lambda n: st.tuples(
                st.lists(
                    st.tuples(st.integers(-4, 2), st.integers(-2, 5)),
                    min_size=n,
                    max_size=n,
                ),
                st.integers(-3, 8),
                st.lists(
                    st.tuples(st.integers(-1, 2**n + 1), st.integers(-9, 9)),
                    max_size=4,
                ),
                st.sampled_from([-2, 0, 1, 4]),
            )
        )
    )
    @settings(max_examples=300, deadline=None)
    def test_random_boxes(self, speedups, data):
        bounds, total, constraints, scale = data
        lows = [lo for lo, _ in bounds]
        highs = [lo + width for lo, width in bounds]
        masks = [m for m, _ in constraints]
        thresholds = [t for _, t in constraints]
        args = (lows, highs, total, masks, thresholds, scale)
        assert kernel_answer(speedups, args) == kernel_answer(_kernel_py, args)

    @pytest.mark.parametrize(
        "args, want",
        [
            # no coordinates: the empty vector, when the total allows it
            (([], [], 0, [], [], 4), [()]),
            (([], [], 1, [], [], 4), []),
            # masks that are 0, negative or outside the coordinates
            (([0, 0], [1, 1], 1, [0], [5], 4), mask_error(0, 2)),
            (([0, 0], [1, 1], 1, [-1], [5], 4), mask_error(-1, 2)),
            (([0, 0], [1, 1], 1, [0b100], [5], 4), mask_error(0b100, 2)),
            (([0, 0], [1, 1], 1, [1, 2**70], [5, 2**70], 4), mask_error(2**70, 2)),
            (([], [], 0, [1], [0], 4), mask_error(1, 0)),
            # every coordinate pinned (lows == highs): a point, or a bad
            # mask after a constraint the pinned values break
            (([1, -2, 3], [1, -2, 3], 2, [0b011, 0b110], [-2, 1], 2), [(1, -2, 3)]),
            (([0, 0, 1], [0, 0, 1], 1, [0b001, 0b1001], [9, 0], 4), mask_error(0b1001, 3)),
            # an empty box answers before any mask is checked
            (([0, 2], [1, 1], 1, [0b100], [5], 4), []),
            (([0], [], 0, [], [], 4), (ValueError, "lows and highs must have equal length")),
            (([0], [1], 0, [1], [], 4), (ValueError, "masks and thresholds must have equal length")),
        ],
    )
    def test_edge_cases(self, speedups, args, want):
        assert kernel_answer(speedups, args) == want
        assert kernel_answer(_kernel_py, args) == want


class TestRangeGuard:
    """With the compiled kernel selected, calls outside its 64-bit range get
    the pure kernel's answer instead of a wrong one or an OverflowError."""

    @pytest.fixture(autouse=True)
    def compiled_selected(self, speedups, monkeypatch):
        monkeypatch.setattr(_kernel, "enumerate_box", _kernel.range_guarded(speedups))

    @pytest.mark.parametrize(
        "args, want",
        [
            # scale * acc wraps around silently
            (([2**61], [2**61], 2**61, [1], [0], 4), [(2**61,)]),
            # bounds and total above int64
            (([0], [2**63], 2**63, [], [], 2), [(2**63,)]),
            (([-(2**63) - 1, 0], [0, 0], -(2**63) - 1, [], [], 4), [(-(2**63) - 1, 0)]),
            # threshold above int64
            (([0, 0], [1, 1], 1, [0b01], [2**70], 1), []),
            # more coordinates than the compiled kernel holds, and none
            (([0] * 63, [0] * 63, 0, [], [], 4), [(0,) * 63]),
            (([], [], 0, [], [], 4), [()]),
        ],
    )
    def test_box_outside_compiled_range(self, args, want):
        assert _kernel.enumerate_box(*args) == want
        assert _kernel_py.enumerate_box(*args) == want

    @pytest.mark.parametrize("mask", [0, 0b100])
    def test_mask_out_of_range_rejected(self, mask):
        with pytest.raises(ValueError, match="out of range"):
            _kernel.enumerate_box([0, 0], [1, 1], 1, [mask], [5], 4)

    def test_balanced_set_near_2_61(self, monkeypatch):
        g = WeightedGraph((0, 0), ((0, 0), (0, 1), (0, 1), (1, 1)))
        d = 2**61 - 1
        compiled = enumerate_balanced(g, d)
        monkeypatch.setattr(_kernel, "enumerate_box", _kernel_py.enumerate_box)
        assert compiled == enumerate_balanced(g, d)
        assert compiled.size == 2

    def test_cli_balanced_above_int64(self, tmp_path, theta, monkeypatch):
        path = tmp_path / "theta.graph"
        path.write_text(json.dumps(graph_to_dict(theta)))
        argv = ["balanced", "--degree", "40000000000000000000", str(path)]
        compiled_out, pure_out = io.StringIO(), io.StringIO()
        assert run(argv, out=compiled_out) == 0
        monkeypatch.setattr(_kernel, "enumerate_box", _kernel_py.enumerate_box)
        assert run(argv, out=pure_out) == 0
        assert compiled_out.getvalue() == pure_out.getvalue()
        rows = compiled_out.getvalue().splitlines()[1:]
        assert len(rows) == 3
        assert "[20000000000000000000,20000000000000000000]" in rows[1]
